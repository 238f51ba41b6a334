package gpu

import (
	"fmt"
	"hash/crc32"
	"math"
	"testing"
)

// The raster semantics table pins what DrawTriangles computes, bit for bit,
// on seeded scenes across every knob of the per-fragment loop: 0 to 4
// varyings with distinct per-vertex values, the depth test, the three blend
// modes, scissoring, both windings, shared edges, the full-screen quad and
// textured fragments. Every row records the CRC32 of the color bytes, the
// CRC32 of the depth bits and the Stats; the fragment shader folds the exact
// bits of every interpolated varying component (and of each texel it
// samples) into its color, so any change to interpolation order or rounding
// shows in the color CRC. The values were recorded from the rasterizer
// before its per-fragment loop was rewritten and must not change.

// semRand is a seeded LCG so every scene is reproducible.
type semRand uint32

func (r *semRand) next() float32 {
	*r = *r*1664525 + 1013904223
	return float32(uint32(*r)>>8) / float32(1<<24) // [0,1)
}

// in returns a value in [lo, hi).
func (r *semRand) in(lo, hi float32) float32 { return lo + (hi-lo)*r.next() }

// semVaryings returns n varyings with distinct per-vertex values outside
// [0,1], so clamping never hides the interpolated bits.
func semVaryings(r *semRand, n int) []Vec4 {
	vary := make([]Vec4, n)
	for k := range vary {
		vary[k] = Vec4{r.in(-2, 3), r.in(-2, 3), r.in(-2, 3), r.in(-2, 3)}
	}
	return vary
}

// semSoup is a triangle soup that overlaps itself, crosses the target's
// edges and mixes both windings.
func semSoup(nvary int) ([]TVert, []int) {
	r := semRand(7)
	var verts []TVert
	var idx []int
	for i := 0; i < 24; i++ {
		for v := 0; v < 3; v++ {
			idx = append(idx, len(verts))
			verts = append(verts, TVert{
				Pos:  Vec4{r.in(-1.3, 1.3), r.in(-1.3, 1.3), r.in(-1, 1), 1},
				Vary: semVaryings(&r, nvary),
			})
		}
	}
	return verts, idx
}

// semMesh is a jittered grid whose cells share vertices and edges; every
// other triangle has its winding reversed.
func semMesh(nvary int) ([]TVert, []int) {
	r := semRand(11)
	const cols, rows = 6, 5
	var verts []TVert
	for j := 0; j <= rows; j++ {
		for i := 0; i <= cols; i++ {
			x := -1.1 + 2.2*float32(i)/cols
			y := -1.1 + 2.2*float32(j)/rows
			if i > 0 && i < cols && j > 0 && j < rows {
				x += r.in(-0.1, 0.1)
				y += r.in(-0.1, 0.1)
			}
			verts = append(verts, TVert{Pos: Vec4{x, y, r.in(-0.9, 0.9), 1}, Vary: semVaryings(&r, nvary)})
		}
	}
	var idx []int
	for j := 0; j < rows; j++ {
		for i := 0; i < cols; i++ {
			a := j*(cols+1) + i
			b, c, d := a+1, a+cols+2, a+cols+1
			if (i+j)%2 == 0 {
				idx = append(idx, a, b, c, a, d, c)
			} else {
				idx = append(idx, a, b, d, c, d, b)
			}
		}
	}
	return verts, idx
}

// semQuad is the full-screen quad a shader-blit present draws.
func semQuad(nvary int) ([]TVert, []int) {
	r := semRand(13)
	mk := func(x, y float32) TVert {
		return TVert{Pos: Vec4{x, y, r.in(-1, 1), 1}, Vary: semVaryings(&r, nvary)}
	}
	return []TVert{mk(-1, -1), mk(1, -1), mk(1, 1), mk(-1, 1)}, []int{0, 1, 2, 0, 2, 3}
}

// semMix folds v into the FNV-1a hash h.
func semMix(h, v uint32) uint32 { return (h ^ v) * 16777619 }

// semColor turns a hash into a color with an avalanche step, so each input
// bit moves every channel, and a texture-fetch count in [0,3].
func semColor(h uint32) (Vec4, int) {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return Vec4{
		float32(h&0xff) / 255, float32(h>>8&0xff) / 255,
		float32(h>>16&0xff) / 255, float32(h>>24) / 255,
	}, int(h >> 30)
}

// semBitsFrag shades each fragment with a hash of the exact bits of its
// varyings.
var semBitsFrag = Stateless(func(vary []Vec4) (Vec4, int) {
	h := uint32(2166136261)
	for _, v := range vary {
		for _, c := range v {
			h = semMix(h, math.Float32bits(c))
		}
	}
	return semColor(h)
})

// semTexFrag samples tex at vary[0].xy (well outside [0,1], so the wrap
// mode matters) and hashes the texel bits with the varyings.
func semTexFrag(tex *Texture) FragShader {
	return Stateless(func(vary []Vec4) (Vec4, int) {
		h := uint32(2166136261)
		for _, c := range tex.Sample(vary[0][0], vary[0][1]) {
			h = semMix(h, math.Float32bits(c))
		}
		for _, v := range vary {
			for _, c := range v {
				h = semMix(h, math.Float32bits(c))
			}
		}
		col, _ := semColor(h)
		return col, 1
	})
}

// semTexture is a seeded 13x7 texture.
func semTexture(repeat bool) *Texture {
	img := NewImage(13, 7)
	r := semRand(17)
	for i := range img.Pix {
		img.Pix[i] = byte(r.next() * 256)
	}
	return &Texture{Img: img, Repeat: repeat}
}

// semTarget is a 150x97 target (3x2 tiles, ragged on both axes) prefilled
// with seeded color and depth, so blending and the depth test see real
// destination values.
func semTarget() *Target {
	tgt := NewTarget(NewImage(150, 97))
	r := semRand(23)
	for i := range tgt.Color.Pix {
		tgt.Color.Pix[i] = byte(r.next() * 256)
	}
	return tgt
}

func semPrefillDepth(tgt *Target) {
	d := tgt.Depth()
	r := semRand(29)
	for i := range d {
		d[i] = r.in(0.2, 1)
	}
}

type semWant struct {
	name  string
	color uint32 // CRC32 of the color bytes
	depth uint32 // CRC32 of the depth bits (0 when the test is off)
	stats Stats
}

// semCase is one row's input.
type semCase struct {
	name   string
	verts  []TVert
	idx    []int
	shader FragShader
	st     RenderState
}

func semCases() []semCase {
	var cases []semCase
	states := func(prefix string, verts []TVert, idx []int, shader FragShader) {
		for _, blend := range []BlendMode{BlendNone, BlendAlpha, BlendAdditive} {
			for _, depth := range []bool{false, true} {
				for _, scissor := range []bool{false, true} {
					st := RenderState{Blend: blend, DepthTest: depth, Scissor: scissor, ScissorRect: [4]int{21, 9, 97, 70}}
					name := fmt.Sprintf("%s/blend=%d/depth=%v/scissor=%v", prefix, blend, depth, scissor)
					cases = append(cases, semCase{name, verts, idx, shader, st})
				}
			}
		}
	}
	for nvary := 0; nvary <= 4; nvary++ {
		verts, idx := semSoup(nvary)
		states(fmt.Sprintf("soup/vary=%d", nvary), verts, idx, semBitsFrag)
	}
	for _, nvary := range []int{1, 4} {
		verts, idx := semMesh(nvary)
		states(fmt.Sprintf("mesh/vary=%d", nvary), verts, idx, semBitsFrag)
		verts, idx = semQuad(nvary)
		states(fmt.Sprintf("quad/vary=%d", nvary), verts, idx, semBitsFrag)
	}
	for _, repeat := range []bool{false, true} {
		verts, idx := semMesh(2)
		states(fmt.Sprintf("tex/repeat=%v", repeat), verts, idx, semTexFrag(semTexture(repeat)))
	}
	return cases
}

// semRender draws one case into a fresh prefilled target and returns the
// row's pinned values.
func semRender(c semCase, workers int) (color, depth uint32, stats Stats) {
	tgt := semTarget()
	if c.st.DepthTest {
		semPrefillDepth(tgt)
	}
	st := c.st
	st.Pool = NewPool(workers)
	stats = DrawTriangles(tgt, c.verts, c.idx, c.shader, st)
	if tgt.depth != nil {
		buf := make([]byte, 4*len(tgt.depth))
		for i, d := range tgt.depth {
			b := math.Float32bits(d)
			buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
		}
		depth = crc32.ChecksumIEEE(buf)
	}
	return tgt.Color.Checksum(), depth, stats
}

func TestRasterSemanticsTable(t *testing.T) {
	want := make(map[string]semWant, len(rasterSemantics))
	for _, w := range rasterSemantics {
		want[w.name] = w
	}
	cases := semCases()
	if len(cases) != len(rasterSemantics) {
		t.Errorf("%d cases, %d pinned rows", len(cases), len(rasterSemantics))
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			color, depth, stats := semRender(c, workers)
			w, ok := want[c.name]
			if !ok || color != w.color || depth != w.depth || stats != w.stats {
				t.Errorf("workers=%d: got\n\t{%q, 0x%08x, 0x%08x, Stats{%d, %d, %d, %d, %d}},\npinned %+v",
					workers, c.name, color, depth, stats.Vertices, stats.Pixels, stats.TexFetches, stats.Blended, stats.ShaderEvals, w)
			}
		}
	}
}

// rasterSemantics holds the pinned rows, in semCases order.
var rasterSemantics = []semWant{
	{"soup/vary=0/blend=0/depth=false/scissor=false", 0x69721818, 0x00000000, Stats{72, 37751, 75502, 0, 37751}},
	{"soup/vary=0/blend=0/depth=false/scissor=true", 0xcbb413a2, 0x00000000, Stats{72, 24271, 48542, 0, 24271}},
	{"soup/vary=0/blend=0/depth=true/scissor=false", 0x65df1610, 0x7cc6f32b, Stats{72, 14868, 29736, 0, 14868}},
	{"soup/vary=0/blend=0/depth=true/scissor=true", 0x147201fd, 0xf53080c4, Stats{72, 7997, 15994, 0, 7997}},
	{"soup/vary=0/blend=1/depth=false/scissor=false", 0xe93620df, 0x00000000, Stats{72, 37751, 75502, 37751, 37751}},
	{"soup/vary=0/blend=1/depth=false/scissor=true", 0x140a2eda, 0x00000000, Stats{72, 24271, 48542, 24271, 24271}},
	{"soup/vary=0/blend=1/depth=true/scissor=false", 0xa2ead7fd, 0x7cc6f32b, Stats{72, 14868, 29736, 14868, 14868}},
	{"soup/vary=0/blend=1/depth=true/scissor=true", 0x40ea6ad0, 0xf53080c4, Stats{72, 7997, 15994, 7997, 7997}},
	{"soup/vary=0/blend=2/depth=false/scissor=false", 0xe1623ecf, 0x00000000, Stats{72, 37751, 75502, 37751, 37751}},
	{"soup/vary=0/blend=2/depth=false/scissor=true", 0x04dc410b, 0x00000000, Stats{72, 24271, 48542, 24271, 24271}},
	{"soup/vary=0/blend=2/depth=true/scissor=false", 0xbe3a582d, 0x7cc6f32b, Stats{72, 14868, 29736, 14868, 14868}},
	{"soup/vary=0/blend=2/depth=true/scissor=true", 0xffeec479, 0xf53080c4, Stats{72, 7997, 15994, 7997, 7997}},
	{"soup/vary=1/blend=0/depth=false/scissor=false", 0xdbe16c2b, 0x00000000, Stats{72, 40982, 61128, 0, 40982}},
	{"soup/vary=1/blend=0/depth=false/scissor=true", 0x020f698e, 0x00000000, Stats{72, 30513, 45544, 0, 30513}},
	{"soup/vary=1/blend=0/depth=true/scissor=false", 0xd154e971, 0xe44ef23b, Stats{72, 17240, 25666, 0, 17240}},
	{"soup/vary=1/blend=0/depth=true/scissor=true", 0xc543784b, 0xc94b577b, Stats{72, 11088, 16515, 0, 11088}},
	{"soup/vary=1/blend=1/depth=false/scissor=false", 0xc50aae49, 0x00000000, Stats{72, 40982, 61128, 40982, 40982}},
	{"soup/vary=1/blend=1/depth=false/scissor=true", 0xbdfc31ab, 0x00000000, Stats{72, 30513, 45544, 30513, 30513}},
	{"soup/vary=1/blend=1/depth=true/scissor=false", 0x2e79ac31, 0xe44ef23b, Stats{72, 17240, 25666, 17240, 17240}},
	{"soup/vary=1/blend=1/depth=true/scissor=true", 0x09c524ea, 0xc94b577b, Stats{72, 11088, 16515, 11088, 11088}},
	{"soup/vary=1/blend=2/depth=false/scissor=false", 0x97c509a7, 0x00000000, Stats{72, 40982, 61128, 40982, 40982}},
	{"soup/vary=1/blend=2/depth=false/scissor=true", 0x787af074, 0x00000000, Stats{72, 30513, 45544, 30513, 30513}},
	{"soup/vary=1/blend=2/depth=true/scissor=false", 0x9127bbbe, 0xe44ef23b, Stats{72, 17240, 25666, 17240, 17240}},
	{"soup/vary=1/blend=2/depth=true/scissor=true", 0xb556769d, 0xc94b577b, Stats{72, 11088, 16515, 11088, 11088}},
	{"soup/vary=2/blend=0/depth=false/scissor=false", 0xf1429f59, 0x00000000, Stats{72, 44246, 66793, 0, 44246}},
	{"soup/vary=2/blend=0/depth=false/scissor=true", 0x2b35f37e, 0x00000000, Stats{72, 29478, 44264, 0, 29478}},
	{"soup/vary=2/blend=0/depth=true/scissor=false", 0x20c68fc7, 0x35673490, Stats{72, 18505, 27841, 0, 18505}},
	{"soup/vary=2/blend=0/depth=true/scissor=true", 0xa2356dff, 0x2f6faf69, Stats{72, 12268, 18331, 0, 12268}},
	{"soup/vary=2/blend=1/depth=false/scissor=false", 0xa52b9ad0, 0x00000000, Stats{72, 44246, 66793, 44246, 44246}},
	{"soup/vary=2/blend=1/depth=false/scissor=true", 0xc3f07eca, 0x00000000, Stats{72, 29478, 44264, 29478, 29478}},
	{"soup/vary=2/blend=1/depth=true/scissor=false", 0xcd34234b, 0x35673490, Stats{72, 18505, 27841, 18505, 18505}},
	{"soup/vary=2/blend=1/depth=true/scissor=true", 0x7674f902, 0x2f6faf69, Stats{72, 12268, 18331, 12268, 12268}},
	{"soup/vary=2/blend=2/depth=false/scissor=false", 0x9da1180f, 0x00000000, Stats{72, 44246, 66793, 44246, 44246}},
	{"soup/vary=2/blend=2/depth=false/scissor=true", 0xdd1c7f76, 0x00000000, Stats{72, 29478, 44264, 29478, 29478}},
	{"soup/vary=2/blend=2/depth=true/scissor=false", 0xeab8b338, 0x35673490, Stats{72, 18505, 27841, 18505, 18505}},
	{"soup/vary=2/blend=2/depth=true/scissor=true", 0x59d81ff8, 0x2f6faf69, Stats{72, 12268, 18331, 12268, 12268}},
	{"soup/vary=3/blend=0/depth=false/scissor=false", 0x17c64042, 0x00000000, Stats{72, 37930, 56820, 0, 37930}},
	{"soup/vary=3/blend=0/depth=false/scissor=true", 0x54465357, 0x00000000, Stats{72, 23123, 34714, 0, 23123}},
	{"soup/vary=3/blend=0/depth=true/scissor=false", 0x24ef2eeb, 0xcddc521e, Stats{72, 17597, 26310, 0, 17597}},
	{"soup/vary=3/blend=0/depth=true/scissor=true", 0xd83d2d10, 0x2f91e336, Stats{72, 10405, 15595, 0, 10405}},
	{"soup/vary=3/blend=1/depth=false/scissor=false", 0x408b8e64, 0x00000000, Stats{72, 37930, 56820, 37930, 37930}},
	{"soup/vary=3/blend=1/depth=false/scissor=true", 0x97354a8c, 0x00000000, Stats{72, 23123, 34714, 23123, 23123}},
	{"soup/vary=3/blend=1/depth=true/scissor=false", 0xd34cca58, 0xcddc521e, Stats{72, 17597, 26310, 17597, 17597}},
	{"soup/vary=3/blend=1/depth=true/scissor=true", 0x3ac9f2b4, 0x2f91e336, Stats{72, 10405, 15595, 10405, 10405}},
	{"soup/vary=3/blend=2/depth=false/scissor=false", 0xb9afd722, 0x00000000, Stats{72, 37930, 56820, 37930, 37930}},
	{"soup/vary=3/blend=2/depth=false/scissor=true", 0xc8ce09fa, 0x00000000, Stats{72, 23123, 34714, 23123, 23123}},
	{"soup/vary=3/blend=2/depth=true/scissor=false", 0xae669ca5, 0xcddc521e, Stats{72, 17597, 26310, 17597, 17597}},
	{"soup/vary=3/blend=2/depth=true/scissor=true", 0xfaf45dc7, 0x2f91e336, Stats{72, 10405, 15595, 10405, 10405}},
	{"soup/vary=4/blend=0/depth=false/scissor=false", 0xf3d79c21, 0x00000000, Stats{72, 53571, 79934, 0, 53571}},
	{"soup/vary=4/blend=0/depth=false/scissor=true", 0xe6a6cd28, 0x00000000, Stats{72, 39610, 59199, 0, 39610}},
	{"soup/vary=4/blend=0/depth=true/scissor=false", 0x951ca5a4, 0x7867f764, Stats{72, 20485, 30608, 0, 20485}},
	{"soup/vary=4/blend=0/depth=true/scissor=true", 0x4c482c64, 0x90c470d9, Stats{72, 14197, 21099, 0, 14197}},
	{"soup/vary=4/blend=1/depth=false/scissor=false", 0x72edeb0d, 0x00000000, Stats{72, 53571, 79934, 53571, 53571}},
	{"soup/vary=4/blend=1/depth=false/scissor=true", 0x83c2c1d7, 0x00000000, Stats{72, 39610, 59199, 39610, 39610}},
	{"soup/vary=4/blend=1/depth=true/scissor=false", 0x50e227ec, 0x7867f764, Stats{72, 20485, 30608, 20485, 20485}},
	{"soup/vary=4/blend=1/depth=true/scissor=true", 0xd1cb4cb9, 0x90c470d9, Stats{72, 14197, 21099, 14197, 14197}},
	{"soup/vary=4/blend=2/depth=false/scissor=false", 0x439eef99, 0x00000000, Stats{72, 53571, 79934, 53571, 53571}},
	{"soup/vary=4/blend=2/depth=false/scissor=true", 0x221ab9eb, 0x00000000, Stats{72, 39610, 59199, 39610, 39610}},
	{"soup/vary=4/blend=2/depth=true/scissor=false", 0x43059f39, 0x7867f764, Stats{72, 20485, 30608, 20485, 20485}},
	{"soup/vary=4/blend=2/depth=true/scissor=true", 0x298fe961, 0x90c470d9, Stats{72, 14197, 21099, 14197, 14197}},
	{"mesh/vary=1/blend=0/depth=false/scissor=false", 0x688d94e9, 0x00000000, Stats{42, 14550, 22091, 0, 14550}},
	{"mesh/vary=1/blend=0/depth=false/scissor=true", 0xa6909424, 0x00000000, Stats{42, 6790, 10344, 0, 6790}},
	{"mesh/vary=1/blend=0/depth=true/scissor=false", 0xf118ded2, 0x940411c2, Stats{42, 9935, 15075, 0, 9935}},
	{"mesh/vary=1/blend=0/depth=true/scissor=true", 0x39023d54, 0x39942cc1, Stats{42, 4670, 7052, 0, 4670}},
	{"mesh/vary=1/blend=1/depth=false/scissor=false", 0x544d8a62, 0x00000000, Stats{42, 14550, 22091, 14550, 14550}},
	{"mesh/vary=1/blend=1/depth=false/scissor=true", 0x4dc2fc5e, 0x00000000, Stats{42, 6790, 10344, 6790, 6790}},
	{"mesh/vary=1/blend=1/depth=true/scissor=false", 0xbeb7c4be, 0x940411c2, Stats{42, 9935, 15075, 9935, 9935}},
	{"mesh/vary=1/blend=1/depth=true/scissor=true", 0xca0566db, 0x39942cc1, Stats{42, 4670, 7052, 4670, 4670}},
	{"mesh/vary=1/blend=2/depth=false/scissor=false", 0x203ea81d, 0x00000000, Stats{42, 14550, 22091, 14550, 14550}},
	{"mesh/vary=1/blend=2/depth=false/scissor=true", 0xa34854a6, 0x00000000, Stats{42, 6790, 10344, 6790, 6790}},
	{"mesh/vary=1/blend=2/depth=true/scissor=false", 0xf5969c1d, 0x940411c2, Stats{42, 9935, 15075, 9935, 9935}},
	{"mesh/vary=1/blend=2/depth=true/scissor=true", 0xb29ec1a2, 0x39942cc1, Stats{42, 4670, 7052, 4670, 4670}},
	{"quad/vary=1/blend=0/depth=false/scissor=false", 0xb129278d, 0x00000000, Stats{4, 14550, 21805, 0, 14550}},
	{"quad/vary=1/blend=0/depth=false/scissor=true", 0x99e53386, 0x00000000, Stats{4, 6790, 10187, 0, 6790}},
	{"quad/vary=1/blend=0/depth=true/scissor=false", 0xd595e258, 0x3879c5f4, Stats{4, 9733, 14595, 0, 9733}},
	{"quad/vary=1/blend=0/depth=true/scissor=true", 0x024ca348, 0xac144f01, Stats{4, 4401, 6559, 0, 4401}},
	{"quad/vary=1/blend=1/depth=false/scissor=false", 0x186c34fa, 0x00000000, Stats{4, 14550, 21805, 14550, 14550}},
	{"quad/vary=1/blend=1/depth=false/scissor=true", 0x6c3ede16, 0x00000000, Stats{4, 6790, 10187, 6790, 6790}},
	{"quad/vary=1/blend=1/depth=true/scissor=false", 0x1116f2ae, 0x3879c5f4, Stats{4, 9733, 14595, 9733, 9733}},
	{"quad/vary=1/blend=1/depth=true/scissor=true", 0x4671f9e0, 0xac144f01, Stats{4, 4401, 6559, 4401, 4401}},
	{"quad/vary=1/blend=2/depth=false/scissor=false", 0x46739b3a, 0x00000000, Stats{4, 14550, 21805, 14550, 14550}},
	{"quad/vary=1/blend=2/depth=false/scissor=true", 0x4d8175ff, 0x00000000, Stats{4, 6790, 10187, 6790, 6790}},
	{"quad/vary=1/blend=2/depth=true/scissor=false", 0xa88d0439, 0x3879c5f4, Stats{4, 9733, 14595, 9733, 9733}},
	{"quad/vary=1/blend=2/depth=true/scissor=true", 0xc90b1c15, 0xac144f01, Stats{4, 4401, 6559, 4401, 4401}},
	{"mesh/vary=4/blend=0/depth=false/scissor=false", 0x94d6b21f, 0x00000000, Stats{42, 14550, 21933, 0, 14550}},
	{"mesh/vary=4/blend=0/depth=false/scissor=true", 0x365a182d, 0x00000000, Stats{42, 6790, 10291, 0, 6790}},
	{"mesh/vary=4/blend=0/depth=true/scissor=false", 0xed19b262, 0x64196515, Stats{42, 8371, 12567, 0, 8371}},
	{"mesh/vary=4/blend=0/depth=true/scissor=true", 0xcfc8a72d, 0x3d97946c, Stats{42, 4072, 6076, 0, 4072}},
	{"mesh/vary=4/blend=1/depth=false/scissor=false", 0xba521167, 0x00000000, Stats{42, 14550, 21933, 14550, 14550}},
	{"mesh/vary=4/blend=1/depth=false/scissor=true", 0x0b86c696, 0x00000000, Stats{42, 6790, 10291, 6790, 6790}},
	{"mesh/vary=4/blend=1/depth=true/scissor=false", 0xd53479ad, 0x64196515, Stats{42, 8371, 12567, 8371, 8371}},
	{"mesh/vary=4/blend=1/depth=true/scissor=true", 0xd4aa8c3c, 0x3d97946c, Stats{42, 4072, 6076, 4072, 4072}},
	{"mesh/vary=4/blend=2/depth=false/scissor=false", 0x4bdb3305, 0x00000000, Stats{42, 14550, 21933, 14550, 14550}},
	{"mesh/vary=4/blend=2/depth=false/scissor=true", 0xdfbf7d2c, 0x00000000, Stats{42, 6790, 10291, 6790, 6790}},
	{"mesh/vary=4/blend=2/depth=true/scissor=false", 0xed3f9d27, 0x64196515, Stats{42, 8371, 12567, 8371, 8371}},
	{"mesh/vary=4/blend=2/depth=true/scissor=true", 0x72870355, 0x3d97946c, Stats{42, 4072, 6076, 4072, 4072}},
	{"quad/vary=4/blend=0/depth=false/scissor=false", 0xcecc159a, 0x00000000, Stats{4, 14550, 21923, 0, 14550}},
	{"quad/vary=4/blend=0/depth=false/scissor=true", 0xd3719bc7, 0x00000000, Stats{4, 6790, 10293, 0, 6790}},
	{"quad/vary=4/blend=0/depth=true/scissor=false", 0x818a10ce, 0xd2f63624, Stats{4, 13148, 19762, 0, 13148}},
	{"quad/vary=4/blend=0/depth=true/scissor=true", 0x9e5895b0, 0xdceea33a, Stats{4, 6400, 9707, 0, 6400}},
	{"quad/vary=4/blend=1/depth=false/scissor=false", 0xdb69fd73, 0x00000000, Stats{4, 14550, 21923, 14550, 14550}},
	{"quad/vary=4/blend=1/depth=false/scissor=true", 0xd9f7f646, 0x00000000, Stats{4, 6790, 10293, 6790, 6790}},
	{"quad/vary=4/blend=1/depth=true/scissor=false", 0x0ab6f214, 0xd2f63624, Stats{4, 13148, 19762, 13148, 13148}},
	{"quad/vary=4/blend=1/depth=true/scissor=true", 0xbc9a88a2, 0xdceea33a, Stats{4, 6400, 9707, 6400, 6400}},
	{"quad/vary=4/blend=2/depth=false/scissor=false", 0x96d141e4, 0x00000000, Stats{4, 14550, 21923, 14550, 14550}},
	{"quad/vary=4/blend=2/depth=false/scissor=true", 0xeb01406b, 0x00000000, Stats{4, 6790, 10293, 6790, 6790}},
	{"quad/vary=4/blend=2/depth=true/scissor=false", 0xe299b1f1, 0xd2f63624, Stats{4, 13148, 19762, 13148, 13148}},
	{"quad/vary=4/blend=2/depth=true/scissor=true", 0x76b5e1a6, 0xdceea33a, Stats{4, 6400, 9707, 6400, 6400}},
	{"tex/repeat=false/blend=0/depth=false/scissor=false", 0x80b62aad, 0x00000000, Stats{42, 14550, 14550, 0, 14550}},
	{"tex/repeat=false/blend=0/depth=false/scissor=true", 0x9123b3a3, 0x00000000, Stats{42, 6790, 6790, 0, 6790}},
	{"tex/repeat=false/blend=0/depth=true/scissor=false", 0xf604513e, 0x17d56cdf, Stats{42, 8939, 8939, 0, 8939}},
	{"tex/repeat=false/blend=0/depth=true/scissor=true", 0xe279850e, 0xb5810e43, Stats{42, 4385, 4385, 0, 4385}},
	{"tex/repeat=false/blend=1/depth=false/scissor=false", 0xec46f012, 0x00000000, Stats{42, 14550, 14550, 14550, 14550}},
	{"tex/repeat=false/blend=1/depth=false/scissor=true", 0x03c41a5f, 0x00000000, Stats{42, 6790, 6790, 6790, 6790}},
	{"tex/repeat=false/blend=1/depth=true/scissor=false", 0xcc824000, 0x17d56cdf, Stats{42, 8939, 8939, 8939, 8939}},
	{"tex/repeat=false/blend=1/depth=true/scissor=true", 0x766126bd, 0xb5810e43, Stats{42, 4385, 4385, 4385, 4385}},
	{"tex/repeat=false/blend=2/depth=false/scissor=false", 0xa41b70ca, 0x00000000, Stats{42, 14550, 14550, 14550, 14550}},
	{"tex/repeat=false/blend=2/depth=false/scissor=true", 0xf5a1b368, 0x00000000, Stats{42, 6790, 6790, 6790, 6790}},
	{"tex/repeat=false/blend=2/depth=true/scissor=false", 0x97ede4a0, 0x17d56cdf, Stats{42, 8939, 8939, 8939, 8939}},
	{"tex/repeat=false/blend=2/depth=true/scissor=true", 0xcb20692a, 0xb5810e43, Stats{42, 4385, 4385, 4385, 4385}},
	{"tex/repeat=true/blend=0/depth=false/scissor=false", 0xda05e36d, 0x00000000, Stats{42, 14550, 14550, 0, 14550}},
	{"tex/repeat=true/blend=0/depth=false/scissor=true", 0x10e2f4b8, 0x00000000, Stats{42, 6790, 6790, 0, 6790}},
	{"tex/repeat=true/blend=0/depth=true/scissor=false", 0x27118386, 0x17d56cdf, Stats{42, 8939, 8939, 0, 8939}},
	{"tex/repeat=true/blend=0/depth=true/scissor=true", 0x85a3195e, 0xb5810e43, Stats{42, 4385, 4385, 0, 4385}},
	{"tex/repeat=true/blend=1/depth=false/scissor=false", 0x593b68b8, 0x00000000, Stats{42, 14550, 14550, 14550, 14550}},
	{"tex/repeat=true/blend=1/depth=false/scissor=true", 0x7d781dd7, 0x00000000, Stats{42, 6790, 6790, 6790, 6790}},
	{"tex/repeat=true/blend=1/depth=true/scissor=false", 0x5754e41c, 0x17d56cdf, Stats{42, 8939, 8939, 8939, 8939}},
	{"tex/repeat=true/blend=1/depth=true/scissor=true", 0x7642718a, 0xb5810e43, Stats{42, 4385, 4385, 4385, 4385}},
	{"tex/repeat=true/blend=2/depth=false/scissor=false", 0xcaaf7b72, 0x00000000, Stats{42, 14550, 14550, 14550, 14550}},
	{"tex/repeat=true/blend=2/depth=false/scissor=true", 0xe85d3fa0, 0x00000000, Stats{42, 6790, 6790, 6790, 6790}},
	{"tex/repeat=true/blend=2/depth=true/scissor=false", 0x1860f202, 0x17d56cdf, Stats{42, 8939, 8939, 8939, 8939}},
	{"tex/repeat=true/blend=2/depth=true/scissor=true", 0xafbd8937, 0xb5810e43, Stats{42, 4385, 4385, 4385, 4385}},
}
