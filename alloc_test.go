package cycada

// Allocation regression gate for the typed calling convention (DESIGN.md §8):
// with tracing off, no profiler recording and no replay tap, a direct
// diplomatic call must not touch the heap — neither as a bare diplomat nor
// through the full glesapi facade -> linker -> diplomat -> engine stack.
// The same holds for a MiniSL fragment invocation on a prepared frame
// (DESIGN.md §16): shading a pixel must not allocate.

import (
	"testing"

	"cycada/internal/core/diplomat"
	"cycada/internal/core/system"
	"cycada/internal/ios/eagl"
	"cycada/internal/linker"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/gpu/minisl"
	"cycada/internal/sim/kernel"
)

func TestDirectDiplomatCallDoesNotAllocate(t *testing.T) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "alloc"})
	if err != nil {
		t.Fatal(err)
	}
	th := app.Main()
	app.Linker.MustRegister(&linker.Blueprint{
		Name: "libnoop.so",
		New:  func(ctx *linker.LoadContext) (linker.Instance, error) { return benchNoop{}, nil },
	})
	h, err := app.Linker.Dlopen(th, "libnoop.so")
	if err != nil {
		t.Fatal(err)
	}
	d, err := diplomat.New(diplomat.Config{
		Foreign:  kernel.PersonaIOS,
		Domestic: kernel.PersonaAndroid,
		Linker:   app.Linker,
		Library:  h,
	}, "noop", diplomat.Direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { d.Call(th) }); n != 0 {
		t.Fatalf("direct diplomat call allocates %.1f times per call, want 0", n)
	}
}

func TestFacadeDirectCallDoesNotAllocate(t *testing.T) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "alloc"})
	if err != nil {
		t.Fatal(err)
	}
	th := app.Main()
	ctx, err := app.EAGL.NewContext(th, eagl.APIGLES2)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.EAGL.SetCurrentContext(th, ctx); err != nil {
		t.Fatal(err)
	}
	gl := app.GL
	if n := testing.AllocsPerRun(100, func() { gl.Viewport(th, 0, 0, 8, 8) }); n != 0 {
		t.Fatalf("facade glViewport allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if gl.GetError(th) != 0 {
			t.Fatal("unexpected GL error")
		}
	}); n != 0 {
		t.Fatalf("facade glGetError allocates %.1f times per call, want 0", n)
	}
}

// TestFragmentShaderDoesNotAllocate runs linked programs the way a raster
// tile does — one frame, uniforms resolved once, many fragments — and
// requires zero allocations per fragment. The shaders are the present blit
// (eglbridge), PassMark's complex-scene fragment shader, and a textured
// shader exercising texture2D with the builtins.
func TestFragmentShaderDoesNotAllocate(t *testing.T) {
	const quadVS = `
attribute vec4 a_pos;
attribute vec2 a_uv;
varying vec2 v_uv;
void main() { gl_Position = a_pos; v_uv = a_uv; }
`
	const shadeVS = `
attribute vec4 a_pos;
attribute float a_shade;
varying float v_shade;
void main() { gl_Position = a_pos; v_shade = a_shade; }
`
	img := gpu.NewImage(8, 8)
	img.Fill(gpu.RGBA{R: 40, G: 160, B: 220, A: 255})
	tex := minisl.Sampler(&gpu.Texture{Img: img})
	cases := []struct {
		name, vs, fs string
		uniforms     map[string]minisl.Value
		vary         []gpu.Vec4
	}{
		{"blit", quadVS, `
precision mediump float;
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() {
  gl_FragColor = texture2D(u_tex, v_uv);
}
`, map[string]minisl.Value{"u_tex": tex}, []gpu.Vec4{{0.3, 0.7}}},
		{"passmark-complex", shadeVS, `
precision mediump float;
varying float v_shade;
uniform vec4 u_tint;
void main() {
  float glow = clamp(v_shade * 1.4, 0.0, 1.0);
  gl_FragColor = vec4(u_tint.rgb * glow, 1.0);
}
`, map[string]minisl.Value{"u_tint": minisl.Vec(4, 0.9, 0.5, 0.2, 1)}, []gpu.Vec4{{0.6}}},
		{"textured-builtins", quadVS, `
precision mediump float;
varying vec2 v_uv;
uniform sampler2D u_tex;
uniform float u_alpha;
void main() {
  vec4 c = texture2D(u_tex, fract(v_uv * 2.0));
  float l = clamp(dot(c.rgb, vec3(0.3, 0.59, 0.11)), 0.0, 1.0);
  for (float i = 0.0; i < 2.0; i += 1.0) {
    c = mix(c, vec4(l), 0.25);
  }
  gl_FragColor = vec4(max(c.rgb, 0.1), c.a * u_alpha);
}
`, map[string]minisl.Value{"u_tex": tex, "u_alpha": minisl.Float(0.5)}, []gpu.Vec4{{0.3, 0.7}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs, err := minisl.Compile(tc.vs, minisl.Vertex)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := minisl.Compile(tc.fs, minisl.Fragment)
			if err != nil {
				t.Fatal(err)
			}
			p, err := minisl.Link(vs, fs)
			if err != nil {
				t.Fatal(err)
			}
			uniforms := make([]minisl.Value, len(p.Uniforms))
			for i, d := range p.Uniforms {
				uniforms[i] = tc.uniforms[d.Name]
			}
			f := p.NewFrame()
			if _, _, err := p.RunFragment(f, tc.vary, uniforms); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, func() { p.RunFragment(f, tc.vary, uniforms) }); n != 0 {
				t.Fatalf("RunFragment allocates %.1f times per fragment, want 0", n)
			}
		})
	}
}
