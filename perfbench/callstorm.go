package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cycada/internal/core/system"
	"cycada/internal/gles/engine"
	"cycada/internal/gles/glesapi"
	"cycada/internal/ios/eagl"
	"cycada/internal/obs"
	"cycada/internal/replay"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// Call-storm shape. What a frame's storm is made of comes from the golden
// traces: the mix of its calls (trafficMix) and how often, and for how many
// calls, a second thread adopts the context (adoptionRate). The sizes below
// are chosen, not measured:
//   - stormCalls is the storm's length: several thousand cheap calls, so
//     that the calls and not the few small draws and the present make up a
//     frame, as in an app whose frames are bound by GL calls;
//   - stormSize is a tiny screen, so draws, blits and compose cost little;
//   - stormFrames seeded frames make a round, enough frames that a round
//     samples the seeded placements widely while it stays short;
//   - stormDraws small draws end a frame, so that it has a picture to check.
//
// The seed moves which calls a frame makes and where the worker's runs fall,
// not how many there are, so it hardly moves what a frame costs.
const (
	stormSize    = 32
	stormCalls   = 3000
	stormFrames  = 16
	stormDraws   = 3
	stormTexSize = 16
)

const stormVS = `
attribute vec4 a_pos;
uniform vec2 u_offset;
uniform float u_scale;
varying vec2 v_uv;
void main() {
  v_uv = a_pos.xy * 0.5 + vec2(0.5, 0.5);
  gl_Position = vec4(a_pos.x * u_scale + u_offset.x, a_pos.y * u_scale + u_offset.y, 0.0, 1.0);
}
`

// The two fragment shaders differ in what they draw but cost about the
// same per fragment, so which program a frame ends on hardly moves its cost.
const stormTintFS = `
precision mediump float;
uniform vec4 u_tint;
uniform sampler2D u_tex;
varying vec2 v_uv;
void main() { gl_FragColor = texture2D(u_tex, v_uv) * u_tint; }
`

const stormMixFS = `
precision mediump float;
uniform vec4 u_tint;
uniform sampler2D u_tex;
varying vec2 v_uv;
void main() { gl_FragColor = mix(texture2D(u_tex, v_uv), u_tint, 0.5); }
`

// Call kinds of the storm. Each is one glesapi facade call.
const (
	cEnable = iota
	cDisable
	cViewport
	cScissor
	cActiveTexture
	cBindTexture
	cUseProgram
	cUniformTint
	cUniformScale
	cUniformOffset
	cUniformSampler
	cClearColor
	cClear
	cAttribPointer
	cEnableAttrib
	cDrawArrays
	cGetError
	nKinds
)

// kindSpan names each kind's entry point, which is also the name of the
// facade span the traced run records around it.
var kindSpan = [nKinds]string{
	"glEnable", "glDisable", "glViewport", "glScissor",
	"glActiveTexture", "glBindTexture", "glUseProgram", "glUniform4f",
	"glUniform1f", "glUniform2f", "glUniform1i",
	"glClearColor", "glClear", "glVertexAttribPointer",
	"glEnableVertexAttribArray", "glDrawArrays", "glGetError",
}

// stormKinds are the kinds a storm draws from: the GLES2 state, bind and
// uniform entry points among them that the golden traces make.
var stormKinds = [...]uint8{
	cEnable, cDisable, cActiveTexture, cBindTexture, cUseProgram,
	cUniformTint, cUniformSampler, cClearColor, cAttribPointer, cEnableAttrib,
}

// trafficMix returns the cumulative weights with which a storm draws
// stormKinds: how many times the traces call each kind's entry point.
func trafficMix(traces []*replay.Trace) ([len(stormKinds)]int, error) {
	calls := map[string]int{}
	for _, tr := range traces {
		for i := range tr.Events {
			if ev := &tr.Events[i]; ev.Kind == replay.KGLES {
				calls[ev.Name]++
			}
		}
	}
	var cum [len(stormKinds)]int
	sum := 0
	for j, k := range stormKinds {
		sum += calls[kindSpan[k]]
		cum[j] = sum
	}
	if sum == 0 {
		return cum, fmt.Errorf("the golden traces make none of the storm's calls")
	}
	return cum, nil
}

// adoptionRate returns, over the traces in which a thread adopts a context
// another thread created, the GLES calls per adoption and the calls the
// adopting threads make per adoption.
func adoptionRate(traces []*replay.Trace) (callsPer, adoptedPer float64, err error) {
	var calls, adopted, adoptions int
	for _, tr := range traces {
		creator := map[replay.CtxRef]int{}
		inAdoption := map[int]bool{} // by thread
		var c, a, n int
		for i := range tr.Events {
			ev := &tr.Events[i]
			switch {
			case ev.Kind == replay.KEAGL && ev.Name == "initWithAPI:":
				if ref, ok := ev.Ret.(replay.CtxRef); ok {
					creator[ref] = ev.TID
				}
			case ev.Kind == replay.KEAGL && ev.Name == "setCurrentContext:":
				var ref replay.CtxRef
				ok := len(ev.Args) > 0
				if ok {
					ref, ok = ev.Args[0].(replay.CtxRef)
				}
				adopts := ok && creator[ref] != ev.TID
				if adopts && !inAdoption[ev.TID] {
					n++
				}
				inAdoption[ev.TID] = adopts
			case ev.Kind == replay.KGLES:
				c++
				if inAdoption[ev.TID] {
					a++
				}
			}
		}
		if n > 0 {
			calls, adopted, adoptions = calls+c, adopted+a, adoptions+n
		}
	}
	if adoptions == 0 || adopted == 0 {
		return 0, 0, fmt.Errorf("no golden trace hands a context to another thread")
	}
	return float64(calls) / float64(adoptions), float64(adopted) / float64(adoptions), nil
}

// call is one scripted facade call. Its meaning depends on kind: i holds
// integer arguments (a capability, a rectangle, a unit, an object or a
// program index), f float arguments.
type call struct {
	kind   uint8
	worker bool
	i      [4]int
	f      [4]float32
}

// stormProgram is a linked program with its attribute and uniform
// locations.
type stormProgram struct {
	id                                uint32
	pos, tint, scale, offset, sampler int
}

// triangles are the frame's draws, in clip space.
var triangles = [stormDraws][]float32{
	{-0.6, -0.6, 0.1, -0.5, -0.3, 0.2},
	{-0.2, 0.5, 0.5, 0.4, 0.2, -0.3},
	{-0.1, -0.2, 0.3, -0.1, 0.1, 0.3},
}

// callStorm is the call-storm workload: one client on a 32x32 screen; each
// op is one frame of several thousand cheap GLES2 calls through the iOS
// facade, part of them from a second thread, then a few small draws and one
// present, checked against the frame's reference checksum.
type callStorm struct {
	sys            *system.Cycada
	app            *system.IOSApp
	gl             *glesapi.GL
	ctx            *eagl.Context
	render, worker *kernel.Thread
	progs          [2]stormProgram
	texs           []uint32
	mix            [len(stormKinds)]int // cumulative weights of stormKinds
	runs, runLen   int                  // the worker's runs per storm and calls per run
	frames         [][]call
	ref            []uint32
	decode, boot   time.Duration
}

func newCallStorm(cfg runConfig, tr *obs.Tracer) (workload, error) {
	c, err := loadCorpus(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	cs := &callStorm{decode: c.decode}
	if cs.mix, err = trafficMix(c.traces); err != nil {
		return nil, err
	}
	callsPer, adoptedPer, err := adoptionRate(c.traces)
	if err != nil {
		return nil, err
	}
	cs.runs = int(math.Round(stormCalls / callsPer))
	cs.runLen = int(math.Round(adoptedPer))
	if cs.runs < 1 || cs.runLen >= stormCalls/cs.runs {
		return nil, fmt.Errorf("%d worker runs of %d calls do not fit a storm of %d calls", cs.runs, cs.runLen, stormCalls)
	}
	start := time.Now()
	cs.sys = system.New(system.Config{ScreenW: stormSize, ScreenH: stormSize, Tracer: tr})
	cs.boot = time.Since(start)
	if err := cs.init(c, cfg.Seed); err != nil {
		cs.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for f := 0; f < stormFrames; f++ {
		cs.frames = append(cs.frames, cs.script(rng))
	}
	// Reference checksums: the first round, on this freshly booted stack.
	for f := range cs.frames {
		if err := cs.frame(f); err != nil {
			cs.close()
			return nil, fmt.Errorf("call-storm reference frame %d: %w", f, err)
		}
		cs.ref = append(cs.ref, cs.sys.Android.Flinger.ScreenChecksum())
	}
	return cs, nil
}

// init creates the app, its two threads, the context (on the render thread,
// which is not the process's main thread, so the worker's adoption of the
// context impersonates it), the drawable, two programs and two textures cut
// from the golden corpus's final frames.
func (cs *callStorm) init(c *corpus, seed int64) error {
	app, err := cs.sys.NewIOSApp(system.AppConfig{Name: "call-storm"})
	if err != nil {
		return err
	}
	cs.app, cs.gl = app, app.GL
	cs.render = app.Proc.NewThread("render")
	cs.worker = app.Proc.NewThread("worker")
	t, gl := cs.render, cs.gl
	if cs.ctx, err = app.EAGL.NewContext(t, eagl.APIGLES2); err != nil {
		return err
	}
	if err := app.EAGL.SetCurrentContext(t, cs.ctx); err != nil {
		return err
	}
	layer, err := app.NewLayer(t, 0, 0, stormSize, stormSize)
	if err != nil {
		return err
	}
	gl.BindFramebuffer(t, gl.GenFramebuffers(t, 1)[0])
	rb := gl.GenRenderbuffers(t, 1)[0]
	gl.BindRenderbuffer(t, rb)
	if err := cs.ctx.RenderbufferStorageFromDrawable(t, layer); err != nil {
		return err
	}
	gl.FramebufferRenderbuffer(t, rb)
	for i, fs := range []string{stormTintFS, stormMixFS} {
		if cs.progs[i], err = cs.link(stormVS, fs); err != nil {
			return err
		}
	}
	if cs.progs[0].pos != cs.progs[1].pos {
		return fmt.Errorf("programs place a_pos at %d and %d", cs.progs[0].pos, cs.progs[1].pos)
	}
	rng := rand.New(rand.NewSource(seed))
	cs.texs = gl.GenTextures(t, 2)
	for i, id := range cs.texs {
		gl.BindTexture(t, id)
		gl.TexImage2D(t, stormTexSize, stormTexSize, gpu.FormatRGBA8888, patch(c.traces[i].Final, rng))
	}
	if e := gl.GetError(t); e != engine.NoError {
		return fmt.Errorf("set-up left GL error %#x", e)
	}
	return nil
}

// patch cuts a seeded stormTexSize square out of img.
func patch(img *gpu.Image, rng *rand.Rand) []byte {
	x0 := rng.Intn(img.W - stormTexSize)
	y0 := rng.Intn(img.H - stormTexSize)
	out := make([]byte, 0, stormTexSize*stormTexSize*4)
	for y := y0; y < y0+stormTexSize; y++ {
		row := (y*img.W + x0) * 4
		out = append(out, img.Pix[row:row+stormTexSize*4]...)
	}
	return out
}

func (cs *callStorm) link(vsSrc, fsSrc string) (stormProgram, error) {
	t, gl := cs.render, cs.gl
	vs := gl.CreateShader(t, engine.VertexShaderKind)
	gl.ShaderSource(t, vs, vsSrc)
	gl.CompileShader(t, vs)
	fs := gl.CreateShader(t, engine.FragmentShaderKind)
	gl.ShaderSource(t, fs, fsSrc)
	gl.CompileShader(t, fs)
	id := gl.CreateProgram(t)
	gl.AttachShader(t, id, vs)
	gl.AttachShader(t, id, fs)
	gl.LinkProgram(t, id)
	if gl.GetProgramiv(t, id, engine.LinkStatus) != 1 {
		return stormProgram{}, fmt.Errorf("link: %s", gl.GetProgramInfoLog(t, id))
	}
	return stormProgram{
		id:      id,
		pos:     gl.GetAttribLocation(t, id, "a_pos"),
		tint:    gl.GetUniformLocation(t, id, "u_tint"),
		scale:   gl.GetUniformLocation(t, id, "u_scale"),
		offset:  gl.GetUniformLocation(t, id, "u_offset"),
		sampler: gl.GetUniformLocation(t, id, "u_tex"),
	}, nil
}

// script generates one seeded frame: a prologue that puts every piece of
// state the storm touches back to a fixed value and clears the whole
// drawable (so a frame's picture depends on its own calls only), the storm,
// the draws, an epilogue for the present and a glGetError.
func (cs *callStorm) script(rng *rand.Rand) []call {
	var s []call
	add := func(c call) { s = append(s, c) }
	for p := 1; p >= 0; p-- {
		add(call{kind: cUseProgram, i: [4]int{p}})
		add(call{kind: cUniformTint, i: [4]int{p}, f: [4]float32{1, 1, 1, 1}})
		add(call{kind: cUniformScale, i: [4]int{p}, f: [4]float32{1}})
		add(call{kind: cUniformOffset, i: [4]int{p}})
		add(call{kind: cUniformSampler, i: [4]int{p}})
	}
	add(call{kind: cDisable, i: [4]int{int(engine.Blend)}})
	add(call{kind: cDisable, i: [4]int{int(engine.ScissorTest)}})
	add(call{kind: cViewport, i: [4]int{0, 0, stormSize, stormSize}})
	add(call{kind: cScissor, i: [4]int{0, 0, stormSize, stormSize}})
	add(call{kind: cActiveTexture, i: [4]int{1}})
	add(call{kind: cBindTexture, i: [4]int{1}})
	add(call{kind: cActiveTexture, i: [4]int{0}})
	add(call{kind: cBindTexture, i: [4]int{0}})
	add(call{kind: cClearColor, f: [4]float32{0, 0, 0, 1}})
	add(call{kind: cClear})

	// The storm. The worker makes cs.runs runs of cs.runLen calls, one in
	// each equal slice of the storm at a seeded offset that leaves the
	// slice's last call to the render thread, so that runs never merge and
	// every frame at every seed has cs.runs adoptions.
	slice := stormCalls / cs.runs
	runStart := make([]int, cs.runs)
	for k := range runStart {
		runStart[k] = k*slice + rng.Intn(slice-cs.runLen)
	}
	prog := 0
	for j := 0; j < stormCalls; j++ {
		c := cs.stormCall(rng, &prog)
		k := j / slice
		c.worker = k < cs.runs && j >= runStart[k] && j < runStart[k]+cs.runLen
		add(c)
	}

	pos := cs.progs[0].pos
	add(call{kind: cEnableAttrib, i: [4]int{pos}})
	for d := 0; d < stormDraws; d++ {
		add(call{kind: cAttribPointer, i: [4]int{pos, d}})
		add(call{kind: cDrawArrays})
	}
	// Cycada's present blit draws the drawable into the window with the
	// context's current blend, scissor and viewport; restore them so the
	// blit covers the whole window and the frame shows only its own calls.
	add(call{kind: cDisable, i: [4]int{int(engine.Blend)}})
	add(call{kind: cDisable, i: [4]int{int(engine.ScissorTest)}})
	add(call{kind: cViewport, i: [4]int{0, 0, stormSize, stormSize}})
	add(call{kind: cGetError})
	return s
}

// stormCall draws one cheap call, its kind weighted by cs.mix. prog tracks
// the current program, so that uniform calls always name a uniform of the
// program in use and with its type: the storm must leave no GL error. The
// tint and blending vary, the geometry does not, so the pixels the draws
// cover, and with them a frame's cost, hardly vary from seed to seed.
func (cs *callStorm) stormCall(rng *rand.Rand, prog *int) call {
	f := func(lo, hi float64) float32 { return float32(lo + (hi-lo)*rng.Float64()) }
	r := rng.Intn(cs.mix[len(cs.mix)-1])
	k := stormKinds[sort.SearchInts(cs.mix[:], r+1)]
	caps := [2]int{int(engine.Blend), int(engine.ScissorTest)}
	switch k {
	case cEnable, cDisable:
		return call{kind: k, i: [4]int{caps[rng.Intn(2)]}}
	case cActiveTexture:
		return call{kind: k, i: [4]int{rng.Intn(2)}}
	case cBindTexture:
		return call{kind: k, i: [4]int{rng.Intn(len(cs.texs))}}
	case cUseProgram:
		*prog = rng.Intn(2)
		return call{kind: k, i: [4]int{*prog}}
	case cUniformTint:
		return call{kind: k, i: [4]int{*prog}, f: [4]float32{f(0.3, 1), f(0.3, 1), f(0.3, 1), 1}}
	case cUniformSampler:
		return call{kind: k, i: [4]int{*prog, rng.Intn(2)}}
	case cClearColor:
		return call{kind: k, f: [4]float32{f(0, 0.5), f(0, 0.5), f(0, 0.5), 1}}
	case cAttribPointer:
		return call{kind: k, i: [4]int{cs.progs[0].pos, rng.Intn(stormDraws)}}
	default: // cEnableAttrib
		return call{kind: k, i: [4]int{cs.progs[0].pos}}
	}
}

func (cs *callStorm) clients() int  { return 1 }
func (cs *callStorm) roundLen() int { return stormFrames }

func (cs *callStorm) close() {
	if cs.app != nil {
		cs.app.ReleaseSnapshotSources()
	}
	cs.sys.Close()
}

func (cs *callStorm) totals() (vclock.Duration, int64) {
	k := cs.sys.Android.Kernel
	return k.Clock().Now(), k.SyscallCount()
}

func (cs *callStorm) setupTimes() (time.Duration, time.Duration, int, int) {
	return cs.decode, cs.boot, len(goldenTraces), 1
}

func (cs *callStorm) op(i int) opResult {
	start := time.Now()
	f := i % stormFrames
	err := cs.frame(f)
	r := opResult{work: time.Since(start)}
	if err != nil {
		r.err = fmt.Errorf("call-storm frame %d: %w", f, err)
	} else if got := cs.sys.Android.Flinger.ScreenChecksum(); got != cs.ref[f] {
		r.err = fmt.Errorf("call-storm frame %d: screen checksum %08x, reference %08x", f, got, cs.ref[f])
	}
	return r
}

// frame runs frame f's script and presents it.
func (cs *callStorm) frame(f int) error {
	onWorker := false
	for k := range cs.frames[f] {
		c := &cs.frames[f][k]
		if c.worker != onWorker {
			if err := cs.handOver(c.worker); err != nil {
				return err
			}
			onWorker = c.worker
		}
		t := cs.render
		if c.worker {
			t = cs.worker
		}
		if e := cs.do(t, c); e != engine.NoError {
			return fmt.Errorf("glGetError %#x", e)
		}
	}
	if onWorker {
		if err := cs.handOver(false); err != nil {
			return err
		}
	}
	return cs.ctx.PresentRenderbuffer(cs.render)
}

// handOver moves the context to the worker or back to the render thread.
// The worker's adoption impersonates the render thread, the context's
// creator, and opens a session. Its release closes the session and reflects
// the released binding back to the creator, so the render thread makes the
// context current again.
func (cs *callStorm) handOver(toWorker bool) error {
	if toWorker {
		return cs.app.EAGL.SetCurrentContext(cs.worker, cs.ctx)
	}
	if err := cs.app.EAGL.SetCurrentContext(cs.worker, nil); err != nil {
		return err
	}
	return cs.app.EAGL.SetCurrentContext(cs.render, cs.ctx)
}

// do makes one facade call on t inside a facade span (inert while tracing is
// off). It returns the GL error for cGetError and NoError otherwise.
func (cs *callStorm) do(t *kernel.Thread, c *call) uint32 {
	gl := cs.gl
	sp := t.TraceBegin(catFacade, kindSpan[c.kind])
	defer t.TraceEnd(sp)
	prog := func() *stormProgram { return &cs.progs[c.i[0]] }
	switch c.kind {
	case cEnable:
		gl.Enable(t, uint32(c.i[0]))
	case cDisable:
		gl.Disable(t, uint32(c.i[0]))
	case cViewport:
		gl.Viewport(t, c.i[0], c.i[1], c.i[2], c.i[3])
	case cScissor:
		gl.Scissor(t, c.i[0], c.i[1], c.i[2], c.i[3])
	case cActiveTexture:
		gl.ActiveTexture(t, c.i[0])
	case cBindTexture:
		gl.BindTexture(t, cs.texs[c.i[0]])
	case cUseProgram:
		gl.UseProgram(t, prog().id)
	case cUniformTint:
		gl.Uniform4f(t, prog().tint, c.f[0], c.f[1], c.f[2], c.f[3])
	case cUniformScale:
		gl.Uniform1f(t, prog().scale, c.f[0])
	case cUniformOffset:
		gl.Uniform2f(t, prog().offset, c.f[0], c.f[1])
	case cUniformSampler:
		gl.Uniform1i(t, prog().sampler, c.i[1])
	case cClearColor:
		gl.ClearColor(t, c.f[0], c.f[1], c.f[2], c.f[3])
	case cClear:
		gl.Clear(t, engine.ColorBufferBit)
	case cAttribPointer:
		gl.VertexAttribPointer(t, c.i[0], 2, triangles[c.i[1]])
	case cEnableAttrib:
		gl.EnableVertexAttribArray(t, c.i[0])
	case cDrawArrays:
		gl.DrawArrays(t, engine.Triangles, 0, 3)
	case cGetError:
		return gl.GetError(t)
	}
	return engine.NoError
}
