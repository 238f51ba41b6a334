package minisl

import "cycada/internal/sim/gpu"

// runFrag runs p's fragment shader once with uniforms given by name, the
// way the tests below state their inputs.
func runFrag(p *Program, vary []gpu.Vec4, uniforms map[string]Value) (gpu.Vec4, int, error) {
	return p.RunFragment(p.NewFrame(), vary, uniformSlots(p, uniforms))
}

// runVert runs p's vertex shader once with attributes and uniforms given by
// name.
func runVert(p *Program, attribs, uniforms map[string]Value) (gpu.Vec4, []gpu.Vec4, error) {
	in := make([]Value, len(p.VS.Attributes))
	for i, d := range p.VS.Attributes {
		if v, ok := attribs[d.Name]; ok {
			in[i] = v
		} else {
			in[i] = Zero(d.Type)
		}
	}
	vary := make([]gpu.Vec4, len(p.VaryNames))
	pos, err := p.RunVertex(p.NewFrame(), in, uniformSlots(p, uniforms), vary)
	if err != nil {
		return gpu.Vec4{}, nil, err
	}
	return pos, vary, nil
}

// uniformSlots lays named uniform values out in p's uniform slot order;
// a name without a value reads as its type's zero.
func uniformSlots(p *Program, uniforms map[string]Value) []Value {
	out := make([]Value, len(p.Uniforms))
	for i, d := range p.Uniforms {
		if v, ok := uniforms[d.Name]; ok {
			out[i] = v
		} else {
			out[i] = Zero(d.Type)
		}
	}
	return out
}
