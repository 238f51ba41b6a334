package minisl

import (
	"fmt"
	"sort"

	"cycada/internal/sim/gpu"
)

// Value is a runtime MiniSL value: a scalar/vector (width 1-4), a matrix,
// or a sampler reference. Matrices are shared, never written through M:
// every matrix-producing operation makes a new one.
type Value struct {
	Width   int // 1..4 for float/vecN; 0 for mat4 and samplers
	V       gpu.Vec4
	M       *gpu.Mat4
	Sampler *gpu.Texture
}

// Float makes a scalar value.
func Float(f float32) Value { return Value{Width: 1, V: gpu.Vec4{f, f, f, f}} }

// Vec makes a vector value of the given width from up to 4 components.
func Vec(width int, comps ...float32) Value {
	var v gpu.Vec4
	copy(v[:], comps)
	return Value{Width: width, V: v}
}

// Mat makes a matrix value.
func Mat(m gpu.Mat4) Value { return Value{M: &m} }

// Sampler makes a sampler value.
func Sampler(t *gpu.Texture) Value { return Value{Sampler: t} }

// Vec4 returns the value widened to 4 components (vec3 gets w=1 for
// positions/colors, matching GLSL's common promotion in this simulator).
func (v Value) Vec4() gpu.Vec4 {
	out := v.V
	if v.Width == 3 {
		out[3] = 1
	}
	return out
}

// Program is a linked vertex+fragment shader pair, lowered to slot-resolved
// code (see compile.go).
type Program struct {
	VS, FS    *Shader
	VaryNames []string // sorted; defines the varying slot order
	// Uniforms lists the uniforms of both stages once each, sorted by name.
	// It defines the uniform slot order: draws pass uniform values as a
	// slice indexed like it.
	Uniforms []Decl
	Tokens   int

	vs, fs *code
}

// LinkError is a GLES-style link failure.
type LinkError struct{ Msg string }

func (e *LinkError) Error() string { return "link error: " + e.Msg }

// Link validates that every varying the fragment shader reads is written by
// the vertex shader and that the stages agree on uniform types, assigns
// varying and uniform slots, and lowers both stages to slot-resolved code.
func Link(vs, fs *Shader) (*Program, error) {
	if vs == nil || fs == nil {
		return nil, &LinkError{Msg: "missing shader"}
	}
	if vs.Kind != Vertex || fs.Kind != Fragment {
		return nil, &LinkError{Msg: "shader kinds mismatched"}
	}
	vsVary := make(map[string]string, len(vs.Varyings))
	for _, d := range vs.Varyings {
		vsVary[d.Name] = d.Type
	}
	names := make([]string, 0, len(vs.Varyings))
	for _, d := range fs.Varyings {
		typ, ok := vsVary[d.Name]
		if !ok {
			return nil, &LinkError{Msg: "varying " + d.Name + " not written by vertex shader"}
		}
		if typ != d.Type {
			return nil, &LinkError{Msg: "varying " + d.Name + " type mismatch"}
		}
	}
	for n := range vsVary {
		names = append(names, n)
	}
	sort.Strings(names)

	utype := map[string]string{}
	var uniforms []Decl
	for _, d := range append(append([]Decl(nil), vs.Uniforms...), fs.Uniforms...) {
		typ, seen := utype[d.Name]
		if !seen {
			utype[d.Name] = d.Type
			uniforms = append(uniforms, d)
		} else if typ != d.Type {
			return nil, &LinkError{Msg: "uniform " + d.Name + " type mismatch"}
		}
	}
	sort.Slice(uniforms, func(i, j int) bool { return uniforms[i].Name < uniforms[j].Name })

	p := &Program{VS: vs, FS: fs, VaryNames: names, Uniforms: uniforms, Tokens: vs.Tokens + fs.Tokens}
	p.vs = lowerStage(vs, p.vertexInputs(), "gl_Position")
	p.fs = lowerStage(fs, p.fragmentInputs(), "gl_FragColor")
	p.vs.varyOut = make([]int, len(names))
	for i, n := range names {
		p.vs.varyOut[i] = p.vs.slots[n]
	}
	return p, nil
}

// uniformIndex returns name's slot in p.Uniforms.
func (p *Program) uniformIndex(name string) int {
	return sort.Search(len(p.Uniforms), func(i int) bool { return p.Uniforms[i].Name >= name })
}

// vertexInputs lists what a vertex invocation starts with, in the order the
// values are written: attributes, uniforms, varyings (zero), gl_Position.
// When one name appears twice, the later source wins.
func (p *Program) vertexInputs() []input {
	var in []input
	for i, d := range p.VS.Attributes {
		in = append(in, input{name: d.Name, src: srcAttribute, idx: i, zero: Zero(d.Type)})
	}
	for _, d := range p.VS.Uniforms {
		in = append(in, input{name: d.Name, src: srcUniform, idx: p.uniformIndex(d.Name), zero: Zero(d.Type)})
	}
	for _, d := range p.VS.Varyings {
		in = append(in, input{name: d.Name, src: srcConst, zero: Zero(d.Type)})
	}
	return append(in, input{name: "gl_Position", src: srcConst, zero: Vec(4)})
}

// fragmentInputs lists what a fragment invocation starts with: every
// varying the vertex stage declares (typed as there), the fragment
// uniforms, gl_FragColor.
func (p *Program) fragmentInputs() []input {
	var in []input
	for i, n := range p.VaryNames {
		d := declOf(p.VS.Varyings, n)
		in = append(in, input{name: n, src: srcVarying, idx: i, width: widthOf(d.Type), zero: Zero(d.Type)})
	}
	for _, d := range p.FS.Uniforms {
		in = append(in, input{name: d.Name, src: srcUniform, idx: p.uniformIndex(d.Name), zero: Zero(d.Type)})
	}
	return append(in, input{name: "gl_FragColor", src: srcConst, zero: Vec(4)})
}

// Frame is the working memory of one shader invocation: a Value slot for
// every input, local and intermediate result the program names, plus the
// step budget and fetch count. Running a stage overwrites the frame, so one
// frame serves any number of invocations one after another but never two
// at once: the rasterizer gives each tile its own.
type Frame struct {
	slots   []Value
	def     []bool // per local: declared yet in this invocation
	steps   int
	fetches int
}

// NewFrame makes a frame sized for both of p's stages.
func (p *Program) NewFrame() *Frame {
	return &Frame{
		slots: make([]Value, max(p.vs.nslots, p.fs.nslots)),
		def:   make([]bool, max(p.vs.nlocals, p.fs.nlocals)),
	}
}

type evalError struct {
	line int
	msg  string
}

func (e *evalError) Error() string { return fmt.Sprintf("runtime: line %d: %s", e.line, e.msg) }

const defaultMaxSteps = 100000

// RunVertex executes the vertex shader for one vertex on frame f.
// attribs holds one value per p.VS.Attributes entry and uniforms one per
// p.Uniforms entry; a missing trailing entry reads as the declared type's
// zero. The varyings are written to vary in p.VaryNames order, so vary
// must hold len(p.VaryNames) entries. It returns the clip-space position.
func (p *Program) RunVertex(f *Frame, attribs, uniforms []Value, vary []gpu.Vec4) (gpu.Vec4, error) {
	c := p.vs
	if err := c.run(f, attribs, uniforms, nil); err != nil {
		return gpu.Vec4{}, err
	}
	for i, s := range c.varyOut {
		vary[i] = f.slots[s].V
	}
	return f.slots[c.out].V, nil
}

// RunFragment executes the fragment shader for one fragment on frame f,
// with varyings in p.VaryNames order and uniforms in p.Uniforms order. It
// returns gl_FragColor and the texture fetch count; a failed invocation
// reports no fetches.
func (p *Program) RunFragment(f *Frame, vary []gpu.Vec4, uniforms []Value) (gpu.Vec4, int, error) {
	c := p.fs
	if err := c.run(f, nil, uniforms, vary); err != nil {
		return gpu.Vec4{}, 0, err
	}
	return f.slots[c.out].V, f.fetches, nil
}

func declOf(ds []Decl, name string) Decl {
	for _, d := range ds {
		if d.Name == name {
			return d
		}
	}
	return Decl{Name: name, Type: "vec4"}
}

func widthOf(typ string) int {
	switch typ {
	case "float":
		return 1
	case "vec2":
		return 2
	case "vec3":
		return 3
	default:
		return 4
	}
}

// identity backs every default mat4; matrices are never written in place,
// so one copy serves all of them.
var identity = gpu.Identity()

// Zero is the value a variable of type typ holds before anything is
// assigned to it: zero for scalars and vectors, the identity for mat4, an
// unbound sampler for sampler2D. It is also what an unset uniform reads as.
func Zero(typ string) Value {
	switch typ {
	case "mat4":
		return Value{M: &identity}
	case "sampler2D":
		return Value{}
	default:
		return Value{Width: widthOf(typ)}
	}
}

func coerce(v Value, typ string) Value {
	if typ == "mat4" || typ == "sampler2D" {
		return v
	}
	return coerceWidth(v, widthOf(typ))
}

func coerceWidth(v Value, w int) Value {
	if v.Width == 1 && w > 1 {
		return Value{Width: w, V: gpu.Vec4{v.V[0], v.V[0], v.V[0], v.V[0]}}
	}
	v.Width = w
	return v
}

func broadcast(v Value, w int) gpu.Vec4 {
	if v.Width == 1 && w > 1 {
		return gpu.Vec4{v.V[0], v.V[0], v.V[0], v.V[0]}
	}
	return v.V
}

func swizzleIndex(c rune) int {
	switch c {
	case 'x', 'r':
		return 0
	case 'y', 'g':
		return 1
	case 'z', 'b':
		return 2
	default:
		return 3
	}
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
