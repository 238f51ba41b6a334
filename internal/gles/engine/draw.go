package engine

import (
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/gpu/minisl"
	"cycada/internal/sim/kernel"
)

// This file implements the draw calls. GLES 2 contexts run the MiniSL
// programmable pipeline; GLES 1 contexts run the fixed-function pipeline
// (v1.go). Both converge on the shared software rasterizer.

// DrawArrays implements glDrawArrays.
func (l *Lib) DrawArrays(t *kernel.Thread, mode uint32, first, count int) {
	l.enter(t, "glDrawArrays")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	idx := sequentialIndices(count)
	if ctx.version == 1 {
		ctx.drawFixed(t, mode, first, count, idx)
		return
	}
	ctx.drawProgrammable(t, mode, first, count, idx)
}

// DrawElements implements glDrawElements. When indices is nil the bound
// ELEMENT_ARRAY_BUFFER supplies them.
func (l *Lib) DrawElements(t *kernel.Thread, mode uint32, indices []uint16) {
	l.enter(t, "glDrawElements")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	if indices == nil {
		ctx.mu.Lock()
		id := ctx.boundElement
		ctx.mu.Unlock()
		if id != 0 {
			s := ctx.share.objects
			s.mu.Lock()
			if buf := s.buffers[id]; buf != nil {
				indices = buf.elem
			}
			s.mu.Unlock()
		}
	}
	if len(indices) == 0 {
		ctx.setErr(InvalidOperation)
		return
	}
	idx := make([]int, len(indices))
	maxIdx := 0
	for i, v := range indices {
		idx[i] = int(v)
		if int(v) > maxIdx {
			maxIdx = int(v)
		}
	}
	if ctx.version == 1 {
		ctx.drawFixed(t, mode, 0, maxIdx+1, idx)
		return
	}
	ctx.drawProgrammable(t, mode, 0, maxIdx+1, idx)
}

// drawProgrammable runs the GLES 2 pipeline: vertex shader per vertex,
// fragment shader per covered pixel. Uniforms and attribute sources are
// resolved into the program's slot order once per draw; the vertex stage
// runs on one frame, and every raster tile gets a frame of its own.
func (ctx *Context) drawProgrammable(t *kernel.Thread, mode uint32, first, count int, indices []int) {
	prog := ctx.currentProgram()
	if prog == nil || !prog.ok {
		ctx.setErr(InvalidOperation)
		return
	}
	tgt := ctx.boundTarget()
	if tgt == nil {
		ctx.setErr(InvalidFramebufferOperation)
		return
	}
	linked := prog.linked
	uniforms := ctx.buildUniforms(prog)

	// Attribute locations are declaration indices (LinkProgram).
	type attrSource struct {
		on   bool
		size int
		data []float32
	}
	srcs := make([]attrSource, len(linked.VS.Attributes))
	for loc := range srcs {
		if a := ctx.attribSource(loc); a != nil && a.enabled {
			srcs[loc] = attrSource{on: true, size: a.size, data: ctx.attribData(a)}
		}
	}
	attrs := make([]minisl.Value, len(srcs))
	nvary := len(linked.VaryNames)
	varyBuf := make([]gpu.Vec4, count*nvary)
	verts := make([]gpu.TVert, count)
	vf := linked.NewFrame()
	for i := 0; i < count; i++ {
		vi := first + i
		for loc, a := range srcs {
			if !a.on {
				attrs[loc] = minisl.Vec(4, 0, 0, 0, 1)
				continue
			}
			base := vi * a.size
			var comps [4]float32
			comps[3] = 1
			for c := 0; c < a.size && base+c < len(a.data); c++ {
				comps[c] = a.data[base+c]
			}
			attrs[loc] = minisl.Vec(a.size, comps[:]...)
		}
		vary := varyBuf[i*nvary : (i+1)*nvary : (i+1)*nvary]
		pos, err := linked.RunVertex(vf, attrs, uniforms, vary)
		if err != nil {
			ctx.setErr(InvalidOperation)
			return
		}
		verts[i] = gpu.TVert{Pos: pos, Vary: vary}
	}

	shader := func() gpu.FragFn {
		f := linked.NewFrame()
		return func(vary []gpu.Vec4) (gpu.Vec4, int) {
			col, fetches, err := linked.RunFragment(f, vary, uniforms)
			if err != nil {
				return gpu.Vec4{1, 0, 1, 1}, fetches // magenta = shader fault
			}
			return col, fetches
		}
	}

	// Rasterize on the kernel's bounded worker pool; tiles are merged
	// deterministically, so frames are identical for any worker count.
	st := ctx.renderState()
	st.Pool = t.Kernel().RasterPool()
	var stats gpu.Stats
	switch mode {
	case Lines:
		stats = gpu.DrawLines(tgt, verts, indices, shader, st)
	default:
		stats = gpu.DrawTriangles(tgt, verts, expandMode(mode, indices), shader, st)
	}
	ctx.chargeStats(t, stats, true)
}

// buildUniforms materializes the program's uniform values in its uniform
// slot order (which is also the location order), resolving sampler uniforms
// through the context's texture units. An unset uniform reads as its type's
// zero.
func (ctx *Context) buildUniforms(prog *programObj) []minisl.Value {
	decls := prog.linked.Uniforms
	out := make([]minisl.Value, len(decls))
	for loc, d := range decls {
		v, ok := prog.values[loc]
		switch {
		case !ok:
			out[loc] = minisl.Zero(d.Type)
		case d.Type == "sampler2D":
			unit := v.i
			var tex *textureObj
			if unit >= 0 && unit < len(ctx.boundTex) {
				ctx.mu.Lock()
				id := ctx.boundTex[unit]
				ctx.mu.Unlock()
				tex = ctx.lookupTexture(id)
			}
			if tex != nil && tex.img != nil {
				out[loc] = minisl.Sampler(&gpu.Texture{Img: tex.img, Repeat: tex.repeat})
			} else {
				out[loc] = minisl.Sampler(nil)
			}
		case v.mat != nil:
			out[loc] = minisl.Mat(*v.mat)
		case v.n == 0:
			out[loc] = minisl.Float(float32(v.i))
		default:
			out[loc] = minisl.Vec(v.n, v.f[:]...)
		}
	}
	return out
}

func (ctx *Context) attribSource(loc int) *vertexAttrib {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if loc < 0 || loc >= len(ctx.attribs) {
		return nil
	}
	return &ctx.attribs[loc]
}

func (ctx *Context) attribData(a *vertexAttrib) []float32 {
	if a.data != nil {
		return a.data
	}
	if a.buffer == 0 {
		return nil
	}
	s := ctx.share.objects
	s.mu.Lock()
	defer s.mu.Unlock()
	if buf := s.buffers[a.buffer]; buf != nil {
		return buf.data
	}
	return nil
}

// sequentialIndices returns [0, 1, ..., n-1].
func sequentialIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// expandMode converts strip/fan index streams to triangle lists.
func expandMode(mode uint32, idx []int) []int {
	switch mode {
	case TriangleStrip:
		var out []int
		for i := 0; i+2 < len(idx); i++ {
			if i%2 == 0 {
				out = append(out, idx[i], idx[i+1], idx[i+2])
			} else {
				out = append(out, idx[i+1], idx[i], idx[i+2])
			}
		}
		return out
	case TriangleFan:
		var out []int
		for i := 1; i+1 < len(idx); i++ {
			out = append(out, idx[0], idx[i], idx[i+1])
		}
		return out
	default:
		return idx
	}
}
