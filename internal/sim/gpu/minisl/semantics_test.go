package minisl

import (
	"fmt"
	"math"
	"testing"

	"cycada/internal/sim/gpu"
)

// The shaders the workloads run: the present blit of eglbridge, the
// PassMark complex-scene fragment shader and the WebKit tile shader. They
// are copied here so the table below pins exactly the text those packages
// compile.
const (
	semBlitVS = `
attribute vec4 a_pos;
attribute vec2 a_uv;
varying vec2 v_uv;
void main() {
  gl_Position = a_pos;
  v_uv = a_uv;
}
`
	semBlitFS = `
precision mediump float;
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() {
  gl_FragColor = texture2D(u_tex, v_uv);
}
`
	semPassmarkVS = `
attribute vec4 a_pos;
attribute float a_shade;
varying float v_shade;
void main() { gl_Position = a_pos; v_shade = a_shade; }
`
	semPassmarkFS = `
precision mediump float;
varying float v_shade;
uniform vec4 u_tint;
void main() {
  float glow = clamp(v_shade * 1.4, 0.0, 1.0);
  gl_FragColor = vec4(u_tint.rgb * glow, 1.0);
}
`
	semTileFS = `
precision mediump float;
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv); }
`
	// semUniformFS reads the one varying semUniformVS writes.
	semUniformFS = `
varying vec2 v_uv;
void main() { gl_FragColor = vec4(v_uv, 0.0, 1.0); }
`
	// semUniformVS feeds fragment-only edge cases; it declares the
	// varyings those cases read.
	semUniformVS = `
varying vec2 v_uv;
void main() { gl_Position = vec4(0.0); v_uv = vec2(0.0); }
`
)

// semTexture is a 4x4 texture whose every texel differs, so a fetch from
// the wrong texel changes the pinned bits.
func semTexture(repeat bool) *gpu.Texture {
	img := gpu.NewImage(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			img.Set(x, y, gpu.RGBA{
				R: uint8(10 + 60*x), G: uint8(20 + 60*y),
				B: uint8(25 * (x + y)), A: uint8(255 - 10*x),
			})
		}
	}
	return &gpu.Texture{Img: img, Repeat: repeat}
}

// bits renders a color as its exact float32 bit patterns.
func bits(c gpu.Vec4) [4]uint32 {
	return [4]uint32{math.Float32bits(c[0]), math.Float32bits(c[1]), math.Float32bits(c[2]), math.Float32bits(c[3])}
}

type semCase struct {
	name     string
	vs, fs   string
	vary     []gpu.Vec4
	uniforms map[string]Value

	want    [4]uint32 // gl_FragColor bits
	fetches int       // texture fetches
	err     string    // the runtime error, when the shader must fail
}

func semCases() []semCase {
	tex := map[string]Value{"u_tex": Sampler(semTexture(false))}
	texRepeat := map[string]Value{"u_tex": Sampler(semTexture(true))}
	tint := map[string]Value{"u_tint": Vec(4, 0.9, 0.55, 0.3, 0.7)}
	ua := func(a float32) map[string]Value { return map[string]Value{"u_a": Float(a)} }
	const uaFS = "uniform float u_a; varying vec2 v_uv; void main(){"
	return []semCase{
		// Workload shaders.
		{name: "blit/center", vs: semBlitVS, fs: semBlitFS, vary: []gpu.Vec4{{0.5, 0.5}}, uniforms: tex, want: [4]uint32{0x3f028283, 0x3f0c8c8d, 0x3ec8c8c9, 0x3f6bebec}, fetches: 1},
		{name: "blit/corner", vs: semBlitVS, fs: semBlitFS, vary: []gpu.Vec4{{0.1, 0.9}}, uniforms: tex, want: [4]uint32{0x3d20a0a1, 0x3f48c8c9, 0x3e969697, 0x3f800000}, fetches: 1},
		{name: "blit/edge", vs: semBlitVS, fs: semBlitFS, vary: []gpu.Vec4{{1, 1}}, uniforms: tex, want: [4]uint32{0x3f3ebebf, 0x3f48c8c9, 0x3f169697, 0x3f61e1e2}, fetches: 1},
		{name: "blit/clamped", vs: semBlitVS, fs: semBlitFS, vary: []gpu.Vec4{{-0.2, 1.3}}, uniforms: tex, want: [4]uint32{0x3d20a0a1, 0x3f48c8c9, 0x3e969697, 0x3f800000}, fetches: 1},
		{name: "blit/unbound-sampler", vs: semBlitVS, fs: semBlitFS, vary: []gpu.Vec4{{0.5, 0.5}}, want: [4]uint32{0x0, 0x0, 0x0, 0x3f800000}, fetches: 1},
		{name: "blit/no-varyings", vs: semBlitVS, fs: semBlitFS, uniforms: tex, want: [4]uint32{0x3d20a0a1, 0x3da0a0a1, 0x0, 0x3f800000}, fetches: 1},
		{name: "passmark/dim", vs: semPassmarkVS, fs: semPassmarkFS, vary: []gpu.Vec4{{0.3}}, uniforms: tint, want: [4]uint32{0x3ec18937, 0x3e6c8b45, 0x3e010626, 0x3f800000}},
		{name: "passmark/saturated", vs: semPassmarkVS, fs: semPassmarkFS, vary: []gpu.Vec4{{0.9}}, uniforms: tint, want: [4]uint32{0x3f666666, 0x3f0ccccd, 0x3e99999a, 0x3f800000}},
		{name: "passmark/negative", vs: semPassmarkVS, fs: semPassmarkFS, vary: []gpu.Vec4{{-0.4}}, uniforms: tint, want: [4]uint32{0x0, 0x0, 0x0, 0x3f800000}},
		{name: "passmark/unset-tint", vs: semPassmarkVS, fs: semPassmarkFS, vary: []gpu.Vec4{{0.6}}, want: [4]uint32{0x0, 0x0, 0x0, 0x3f800000}},
		{name: "webkit-tiles/inside", vs: semBlitVS, fs: semTileFS, vary: []gpu.Vec4{{0.3, 0.6}}, uniforms: texRepeat, want: [4]uint32{0x3e8c8c8d, 0x3f0c8c8d, 0x3e969697, 0x3f75f5f6}, fetches: 1},
		{name: "webkit-tiles/wrapped", vs: semBlitVS, fs: semTileFS, vary: []gpu.Vec4{{1.8, -0.3}}, uniforms: texRepeat, want: [4]uint32{0x3f3ebebf, 0x3f0c8c8d, 0x3efafafb, 0x3f61e1e2}, fetches: 1},

		// A local declared only inside an if branch: visible after the
		// branch when it ran, a runtime error when it did not.
		{name: "branch-local/taken", vs: semUniformVS, fs: uaFS + "if (u_a > 5.0) { float t = 0.25; } gl_FragColor = vec4(t); }", uniforms: ua(10), want: [4]uint32{0x3e800000, 0x3e800000, 0x3e800000, 0x3e800000}},
		{name: "branch-local/untaken", vs: semUniformVS, fs: uaFS + "if (u_a > 5.0) { float t = 0.25; } gl_FragColor = vec4(t); }", uniforms: ua(1), err: "runtime: line 1: undefined variable t"},
		{name: "branch-local/else-taken", vs: semUniformVS, fs: uaFS + "if (u_a > 5.0) { } else { float t = 0.5; } t += 1.0; gl_FragColor = vec4(t); }", uniforms: ua(1), want: [4]uint32{0x3fc00000, 0x3fc00000, 0x3fc00000, 0x3fc00000}},
		{name: "never-declared/read", vs: semUniformVS, fs: uaFS + "gl_FragColor = vec4(nowhere); }", err: "runtime: line 1: undefined variable nowhere"},
		{name: "never-declared/write", vs: semUniformVS, fs: uaFS + "nowhere = 1.0; gl_FragColor = vec4(1.0); }", err: "runtime: line 1: assignment to undeclared nowhere"},
		{name: "never-declared/unreached", vs: semUniformVS, fs: uaFS + "if (u_a > 5.0) { gl_FragColor = vec4(nowhere); } else { gl_FragColor = vec4(0.5); } }", uniforms: ua(1), want: [4]uint32{0x3f000000, 0x3f000000, 0x3f000000, 0x3f000000}},
		{name: "declared-later", vs: semUniformVS, fs: uaFS + "gl_FragColor = vec4(late); float late = 1.0; }", err: "runtime: line 1: undefined variable late"},

		// The step limit: 2N+4 statements run for N iterations, and the
		// statement that brings the budget to zero fails.
		{name: "steps/just-under", vs: semUniformVS, fs: uaFS + "float x = 0.0; for (float i = 0.0; i < u_a; i += 1.0) { x += 1.0; } gl_FragColor = vec4(x / 65536.0); }", uniforms: ua(49997), want: [4]uint32{0x3f434d00, 0x3f434d00, 0x3f434d00, 0x3f434d00}},
		{name: "steps/exhausted", vs: semUniformVS, fs: uaFS + "float x = 0.0; for (float i = 0.0; i < u_a; i += 1.0) { x += 1.0; } gl_FragColor = vec4(x / 65536.0); }", uniforms: ua(49998), err: "runtime: line 0: shader exceeded step limit"},
		{name: "steps/runaway", vs: semUniformVS, fs: uaFS + "float x = 0.0; for (float i = 0.0; i < 1.0; i *= 1.0) { x += 1.0; } gl_FragColor = vec4(x); }", err: "runtime: line 0: shader exceeded step limit"},

		// Matrices.
		{name: "mat4/scalar-assign", vs: semUniformVS, fs: "uniform mat4 u_m; void main(){ mat4 m = u_m; m = 1.0; gl_FragColor = vec4(1.0); }", err: "runtime: line 1: cannot assign scalar to matrix m"},
		{name: "mat4/scalar-init", vs: semUniformVS, fs: "void main(){ mat4 m = 2.0; gl_FragColor = m * vec4(0.5, 1.0, 1.5, 2.0); }", want: [4]uint32{0x3f800000, 0x40000000, 0x40400000, 0x40800000}},
		{name: "mat4/default-identity", vs: semUniformVS, fs: "void main(){ mat4 m; gl_FragColor = m * vec4(0.5, 1.0, 1.5, 2.0); }", want: [4]uint32{0x3f000000, 0x3f800000, 0x3fc00000, 0x40000000}},
		{name: "mat4/unset-uniform", vs: semUniformVS, fs: "uniform mat4 u_m; void main(){ gl_FragColor = u_m * vec3(0.5, 1.0, 1.5); }", want: [4]uint32{0x3f000000, 0x3f800000, 0x3fc00000, 0x3f800000}},
		{name: "mat4/mat-mat", vs: semUniformVS, fs: "uniform mat4 u_m; void main(){ mat4 m = u_m * u_m; gl_FragColor = m * vec4(0.25, 0.5, 0.75, 1.0); }",
			uniforms: map[string]Value{"u_m": Mat(gpu.Identity().Translate(0.5, -0.25, 0.125))},
			want:     [4]uint32{0x3fa00000, 0x0, 0x3f800000, 0x3f800000}},
		{name: "mat4/add", vs: semUniformVS, fs: "uniform mat4 u_m; void main(){ gl_FragColor = vec4((u_m + u_m) * vec4(1.0)); }", err: "runtime: line 1: matrices support only *"},
		{name: "mat4/vec-times-mat", vs: semUniformVS, fs: "uniform mat4 u_m; void main(){ gl_FragColor = vec4(1.0) * u_m; }", err: "runtime: line 1: vec*mat not supported; use mat*vec"},

		// Swizzles.
		{name: "swizzle/write-one", vs: semUniformVS, fs: "void main(){ vec4 v = vec4(0.1, 0.2, 0.3, 0.4); v.y = 0.7; v.b = v.x; gl_FragColor = v; }", want: [4]uint32{0x3dcccccd, 0x3f333333, 0x3dcccccd, 0x3ecccccd}},
		{name: "swizzle/write-unknown-letter", vs: semUniformVS, fs: "void main(){ vec4 v = vec4(0.1, 0.2, 0.3, 0.4); v.q = 0.9; gl_FragColor = v; }", want: [4]uint32{0x3dcccccd, 0x3e4ccccd, 0x3e99999a, 0x3f666666}},
		{name: "swizzle/write-two", vs: semUniformVS, fs: "void main(){ vec4 v = vec4(0.1); v.xy = vec2(1.0); gl_FragColor = v; }", err: "runtime: line 1: only single-component swizzle writes supported"},
		{name: "swizzle/read-mixed", vs: semUniformVS, fs: "void main(){ vec4 v = vec4(0.1, 0.2, 0.3, 0.4); gl_FragColor = vec4(v.wzy, v.r); }", want: [4]uint32{0x3ecccccd, 0x3e99999a, 0x3e4ccccd, 0x3dcccccd}},
		{name: "swizzle/scalar-widen", vs: semUniformVS, fs: "void main(){ vec3 v = vec3(0.5); gl_FragColor = vec4(v.xxx, 1.0) + v.x; }", want: [4]uint32{0x3f800000, 0x3f800000, 0x3f800000, 0x3fc00000}},

		// Constructors.
		{name: "splat/vec4", vs: semUniformVS, fs: uaFS + "gl_FragColor = vec4(u_a); }", uniforms: ua(0.375), want: [4]uint32{0x3ec00000, 0x3ec00000, 0x3ec00000, 0x3ec00000}},
		{name: "splat/vec3-widened", vs: semUniformVS, fs: uaFS + "vec3 c = vec3(u_a); gl_FragColor = c; }", uniforms: ua(0.625), want: [4]uint32{0x3f200000, 0x3f200000, 0x3f200000, 0x0}},
		{name: "splat/assign-scalar-to-vec", vs: semUniformVS, fs: uaFS + "vec4 c = vec4(0.0); c = u_a; gl_FragColor = c; }", uniforms: ua(0.125), want: [4]uint32{0x3e000000, 0x3e000000, 0x3e000000, 0x3e000000}},
		{name: "ctor/concat", vs: semUniformVS, fs: "varying vec2 v_uv; void main(){ gl_FragColor = vec4(v_uv, vec3(0.7, 0.8, 0.9)); }", vary: []gpu.Vec4{{0.2, 0.4}}, want: [4]uint32{0x3e4ccccd, 0x3ecccccd, 0x3f333333, 0x3f4ccccd}},
		{name: "ctor/too-few", vs: semUniformVS, fs: "void main(){ gl_FragColor = vec4(vec2(1.0), 0.5); }", err: "runtime: line 1: vec4: needs 4 components, got 3"},

		// Arithmetic.
		{name: "div/by-zero", vs: semUniformVS, fs: "void main(){ gl_FragColor = vec4(1.0, 2.0, 3.0, 4.0) / vec4(0.0, 1.0, 0.0, 8.0); }", want: [4]uint32{0x0, 0x40000000, 0x0, 0x3f000000}},
		{name: "div/scalar-by-zero", vs: semUniformVS, fs: uaFS + "gl_FragColor = vec4(u_a / 0.0, 1.0 / u_a, 0.5, 1.0); }", uniforms: ua(3), want: [4]uint32{0x0, 0x3eaaaaab, 0x3f000000, 0x3f800000}},
		{name: "compare-and-not", vs: semUniformVS, fs: uaFS + "gl_FragColor = vec4(u_a < 2.0, u_a >= 3.0, !(u_a == 3.0), u_a != 3.0); }", uniforms: ua(3), want: [4]uint32{0x0, 0x3f800000, 0x0, 0x0}},
		{name: "negate", vs: semUniformVS, fs: "varying vec2 v_uv; void main(){ gl_FragColor = vec4(-v_uv, 0.0 - -0.5, 1.0); }", vary: []gpu.Vec4{{0.25, -0.75}}, want: [4]uint32{0xbe800000, 0x3f400000, 0x3f000000, 0x3f800000}},

		// Builtins not covered by the workload shaders.
		{name: "builtins/mix-pow", vs: semUniformVS, fs: "varying vec2 v_uv; void main(){ gl_FragColor = vec4(mix(vec2(0.1, 0.9), vec2(0.8), v_uv.x), pow(v_uv.y, 2.2), 1.0); }", vary: []gpu.Vec4{{0.3, 0.6}}, want: [4]uint32{0x3e9eb852, 0x3f5eb852, 0x3ea66b3f, 0x3f800000}},
		{name: "builtins/trig-fract", vs: semUniformVS, fs: "varying vec2 v_uv; void main(){ gl_FragColor = vec4(sin(v_uv.x * 3.0), cos(v_uv.y), fract(v_uv.x * 7.3), floor(v_uv.y * 9.0) / 9.0); }", vary: []gpu.Vec4{{0.3, 0.6}}, want: [4]uint32{0x3f48881d, 0x3f534932, 0x3e428f60, 0x3f0e38e4}},
		{name: "builtins/geometry", vs: semUniformVS, fs: "varying vec2 v_uv; void main(){ vec3 n = normalize(vec3(v_uv, 0.5)); gl_FragColor = vec4(n, length(v_uv) + dot(n, vec3(0.2, 0.3, 0.4))); }", vary: []gpu.Vec4{{0.3, 0.6}}, want: [4]uint32{0x3eb7964d, 0x3f37964d, 0x3f18fd40, 0x3f992e28}},
		{name: "builtins/minmax-abs", vs: semUniformVS, fs: "varying vec2 v_uv; void main(){ gl_FragColor = vec4(min(v_uv, 0.4), max(v_uv.x, 0.45), abs(v_uv.y - 0.9)); }", vary: []gpu.Vec4{{0.3, 0.6}}, want: [4]uint32{0x3e99999a, 0x3ecccccd, 0x3ee66666, 0x3e999998}},
		{name: "builtins/normalize-zero", vs: semUniformVS, fs: "void main(){ gl_FragColor = vec4(normalize(vec2(0.0)), 0.5, 1.0); }", want: [4]uint32{0x0, 0x0, 0x3f000000, 0x3f800000}},
		{name: "builtins/two-fetches", vs: semUniformVS, fs: "uniform sampler2D u_tex; varying vec2 v_uv; void main(){ vec4 a = texture2D(u_tex, v_uv); vec4 b = texture2D(u_tex, v_uv.yx); gl_FragColor = mix(a, b, 0.5); }",
			vary: []gpu.Vec4{{0.1, 0.7}}, uniforms: tex, want: [4]uint32{0x3e8c8c8d, 0x3ea0a0a1, 0x3e48c8c9, 0x3f75f5f6}, fetches: 2},
		{name: "builtins/fetch-in-loop", vs: semUniformVS, fs: "uniform sampler2D u_tex; void main(){ vec4 acc = vec4(0.0); for (float i = 0.0; i < 3.0; i++) { acc += texture2D(u_tex, vec2(i * 0.3, 0.5)) * 0.25; } gl_FragColor = acc; }",
			uniforms: tex, want: [4]uint32{0x3e52d2d4, 0x3ed2d2d4, 0x3e61e1e2, 0x3f387878}, fetches: 3},
		{name: "builtins/unknown", vs: semUniformVS, fs: "void main(){ gl_FragColor = nosuchfn(1.0); }", err: "runtime: line 1: nosuchfn: unknown function"},
		{name: "builtins/bad-arity", vs: semUniformVS, fs: "void main(){ gl_FragColor = texture2D(1.0); }", err: "runtime: line 1: texture2D: needs (sampler, vec2)"},
	}
}

// TestSemanticsTable pins the exact gl_FragColor bits, texture-fetch counts
// and runtime errors of the shaders the workloads run plus the language's
// edge cases. A failed invocation reports no fetches.
func TestSemanticsTable(t *testing.T) {
	for _, tc := range semCases() {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Link(compile(t, tc.vs, Vertex), compile(t, tc.fs, Fragment))
			if err != nil {
				t.Fatal(err)
			}
			col, fetches, err := runFrag(p, tc.vary, tc.uniforms)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				if fetches != 0 {
					t.Fatalf("fetches = %d after a runtime error, want 0", fetches)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := bits(col); got != tc.want || fetches != tc.fetches {
				t.Fatalf("gl_FragColor bits = %#x with %d fetches, want %#x with %d", got, fetches, tc.want, tc.fetches)
			}
		})
	}
}

type semVertexCase struct {
	name              string
	vs, fs            string
	attribs, uniforms map[string]Value

	pos  [4]uint32   // gl_Position bits
	vary [][4]uint32 // varying bits in slot order
	err  string
}

// TestSemanticsTableVertex pins gl_Position and the varyings the vertex
// stage hands the rasterizer, including the defaults of unset inputs.
func TestSemanticsTableVertex(t *testing.T) {
	mvp := gpu.Identity().Translate(0.25, -0.5, 0.125)
	cases := []semVertexCase{
		{name: "blit", vs: semBlitVS, fs: semBlitFS,
			attribs: map[string]Value{"a_pos": Vec(4, -1, 1, 0, 1), "a_uv": Vec(2, 0, 1)},
			pos:     [4]uint32{0xbf800000, 0x3f800000, 0x0, 0x3f800000}, vary: [][4]uint32{{0x0, 0x3f800000, 0x0, 0x0}}},
		{name: "passmark", vs: semPassmarkVS, fs: semPassmarkFS,
			attribs: map[string]Value{"a_pos": Vec(2, 0.5, -0.5), "a_shade": Float(0.8)},
			pos:     [4]uint32{0x3f000000, 0xbf000000, 0x0, 0x0}, vary: [][4]uint32{{0x3f4ccccd, 0x3f4ccccd, 0x3f4ccccd, 0x3f4ccccd}}},
		{name: "mvp", vs: quadVS, fs: texFS,
			attribs:  map[string]Value{"a_position": Vec(3, 0.5, 0.25, -0.75), "a_texcoord": Vec(2, 0.125, 0.875)},
			uniforms: map[string]Value{"u_mvp": Mat(mvp)},
			pos:      [4]uint32{0x3f400000, 0xbe800000, 0xbf200000, 0x3f800000}, vary: [][4]uint32{{0x3e000000, 0x3f600000, 0x0, 0x0}}},
		{name: "mvp/unset-uniform", vs: quadVS, fs: texFS,
			attribs: map[string]Value{"a_position": Vec(4, 0.5, 0.25, -0.75, 1), "a_texcoord": Vec(2, 0.125, 0.875)},
			pos:     [4]uint32{0x3f000000, 0x3e800000, 0xbf400000, 0x3f800000}, vary: [][4]uint32{{0x3e000000, 0x3f600000, 0x0, 0x0}}},
		{name: "unwritten-varyings", fs: semUniformFS,
			vs:      "attribute vec4 a_pos; varying vec3 v_b; varying mat4 v_m; varying vec2 v_uv; void main(){ gl_Position = a_pos.wzyx; }",
			attribs: map[string]Value{"a_pos": Vec(4, 0.1, 0.2, 0.3, 0.4)},
			pos:     [4]uint32{0x3ecccccd, 0x3e99999a, 0x3e4ccccd, 0x3dcccccd}, vary: [][4]uint32{{}, {}, {}}},
		{name: "fragcolor-undefined", fs: semUniformFS,
			vs:  "varying vec2 v_uv; void main(){ gl_FragColor = vec4(1.0); gl_Position = vec4(0.0); }",
			err: "runtime: line 1: assignment to undeclared gl_FragColor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Link(compile(t, tc.vs, Vertex), compile(t, tc.fs, Fragment))
			if err != nil {
				t.Fatal(err)
			}
			pos, vary, err := runVert(p, tc.attribs, tc.uniforms)
			got := make([][4]uint32, len(vary))
			for i, v := range vary {
				got[i] = bits(v)
			}
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if bits(pos) != tc.pos || fmt.Sprint(got) != fmt.Sprint(tc.vary) {
				t.Fatalf("gl_Position bits %#x, varyings %#x; want %#x, %#x", bits(pos), got, tc.pos, tc.vary)
			}
		})
	}
}
