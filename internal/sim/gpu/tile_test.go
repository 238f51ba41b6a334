package gpu

import (
	"fmt"
	"sync"
	"testing"
)

// --- Pool ---

func TestPoolRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		hits := make([]int32, 100)
		var mu sync.Mutex
		p.Run(len(hits), func(i int) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, h)
			}
		}
	}
}

func TestPoolNilAndZeroAreSerial(t *testing.T) {
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("nil pool workers = %d, want 1", got)
	}
	ran := 0
	nilPool.Run(5, func(i int) { ran++ }) // inline: no goroutines, no locking
	if ran != 5 {
		t.Fatalf("nil pool ran %d jobs, want 5", ran)
	}
	if got := (&Pool{}).Workers(); got != 1 {
		t.Fatalf("zero pool workers = %d, want 1", got)
	}
	if NewPool(0).Workers() < 1 {
		t.Fatal("NewPool(0) must size to GOMAXPROCS")
	}
}

func TestPoolRunPropagatesPanic(t *testing.T) {
	p := NewPool(4)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in a pool job did not propagate to the caller")
		}
	}()
	p.Run(16, func(i int) {
		if i == 7 {
			panic("tile fault")
		}
	})
}

// --- Fill rule / adjacency ---

// quadVerts returns a quad as 4 clip-space vertices covering the NDC
// rectangle [x0,x1]x[y0,y1], split into two triangles sharing the diagonal
// by the standard {0,1,2, 0,2,3} index pattern.
func quadVerts(x0, y0, x1, y1 float32, col Vec4) ([]TVert, []int) {
	mk := func(x, y float32) TVert { return TVert{Pos: Vec4{x, y, 0, 1}, Vary: []Vec4{col}} }
	return []TVert{mk(x0, y0), mk(x1, y0), mk(x1, y1), mk(x0, y1)}, []int{0, 1, 2, 0, 2, 3}
}

// countShaded asserts every covered pixel has exactly the value one shading
// pass produces, and returns the covered pixel count.
func countShaded(t *testing.T, im *Image, want RGBA, label string) int {
	t.Helper()
	n := 0
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			c := im.At(x, y)
			if c == (RGBA{}) {
				continue
			}
			if c != want {
				t.Fatalf("%s: pixel (%d,%d) = %v, want %v (an edge pixel shaded twice?)", label, x, y, c, want)
			}
			n++
		}
	}
	return n
}

// Two triangles sharing a diagonal edge under additive blend: the seam
// pixels must be shaded exactly once, so every covered pixel holds exactly
// one source application.
func TestSharedDiagonalEdgeShadedOnceAdditive(t *testing.T) {
	im := NewImage(32, 32)
	tgt := NewTarget(im)
	verts, idx := quadVerts(-1, -1, 1, 1, Vec4{100.0 / 255, 0, 0, 100.0 / 255})
	stats := DrawTriangles(tgt, verts, idx, colorFrag, RenderState{Blend: BlendAdditive})
	n := countShaded(t, im, RGBA{R: 100, A: 100}, "additive quad")
	if n != 32*32 {
		t.Fatalf("covered %d pixels, want %d (full quad, each exactly once)", n, 32*32)
	}
	if stats.Pixels != n || stats.Blended != n {
		t.Fatalf("stats = %+v, want Pixels=Blended=%d", stats, n)
	}
}

func TestSharedDiagonalEdgeShadedOnceAlpha(t *testing.T) {
	im := NewImage(32, 32)
	tgt := NewTarget(im)
	// 50.2% alpha red over black: one blend pass gives exactly R=128.
	verts, idx := quadVerts(-1, -1, 1, 1, Vec4{1, 0, 0, 128.0 / 255})
	DrawTriangles(tgt, verts, idx, colorFrag, RenderState{Blend: BlendAlpha})
	countShaded(t, im, RGBA{R: 128, A: 128}, "alpha quad")
}

// Four quads tiling the target share vertical and horizontal edges; with
// additive blend, no pixel may be shaded twice, and the whole target must be
// covered with no cracks.
func TestSharedStraightEdgesShadedOnce(t *testing.T) {
	im := NewImage(64, 64)
	tgt := NewTarget(im)
	src := Vec4{0, 60.0 / 255, 0, 1}
	total := 0
	for _, r := range [][4]float32{
		{-1, -1, 0, 0}, {0, -1, 1, 0}, {-1, 0, 0, 1}, {0, 0, 1, 1},
	} {
		verts, idx := quadVerts(r[0], r[1], r[2], r[3], src)
		stats := DrawTriangles(tgt, verts, idx, colorFrag, RenderState{Blend: BlendAdditive})
		total += stats.Pixels
	}
	n := countShaded(t, im, RGBA{G: 60, A: 255}, "2x2 quads")
	if n != 64*64 {
		t.Fatalf("covered %d pixels, want %d (watertight tiling)", n, 64*64)
	}
	if total != 64*64 {
		t.Fatalf("stats counted %d pixels across quads, want %d", total, 64*64)
	}
}

// Reversing a triangle's winding must not change its rasterization: both
// windings render (no face culling), normalized to one fill-rule convention.
func TestWindingNormalization(t *testing.T) {
	ccw := NewImage(16, 16)
	cw := NewImage(16, 16)
	verts, _ := quadVerts(-1, -1, 1, 1, Vec4{1, 1, 1, 1})
	DrawTriangles(NewTarget(ccw), verts, []int{0, 1, 2, 0, 2, 3}, colorFrag, RenderState{})
	DrawTriangles(NewTarget(cw), verts, []int{2, 1, 0, 3, 2, 0}, colorFrag, RenderState{})
	if ccw.Checksum() != cw.Checksum() {
		t.Fatal("reversed winding rasterized differently")
	}
}

// --- Depth convention (GL_LESS) ---

func TestDepthTestRejectsEqualZ(t *testing.T) {
	im := NewImage(8, 8)
	tgt := NewTarget(im)
	st := RenderState{DepthTest: true}
	red, idx := quadVerts(-1, -1, 1, 1, Vec4{1, 0, 0, 1})
	blue, _ := quadVerts(-1, -1, 1, 1, Vec4{0, 0, 1, 1})
	DrawTriangles(tgt, red, idx, colorFrag, st)
	DrawTriangles(tgt, blue, idx, colorFrag, st) // same z: GL_LESS must reject
	if got := im.At(4, 4); got.B != 0 || got.R != 255 {
		t.Fatalf("equal-depth fragment passed the GL_LESS depth test: %v", got)
	}
}

// --- Worker-count determinism ---

// scene builds a deterministic overlapping-triangle soup via an LCG.
func scene(n int, nvary int) ([]TVert, []int) {
	state := uint32(12345)
	rnd := func() float32 {
		state = state*1664525 + 1013904223
		return float32(state>>8) / float32(1<<24) // [0,1)
	}
	verts := make([]TVert, 0, n*3)
	idx := make([]int, 0, n*3)
	for i := 0; i < n; i++ {
		for v := 0; v < 3; v++ {
			pos := Vec4{rnd()*2 - 1, rnd()*2 - 1, rnd()*2 - 1, 1}
			vary := make([]Vec4, nvary)
			for k := range vary {
				vary[k] = Vec4{rnd(), rnd(), rnd(), rnd()}
			}
			idx = append(idx, len(verts))
			verts = append(verts, TVert{Pos: pos, Vary: vary})
		}
	}
	return verts, idx
}

// scratchFrag keeps per-tile scratch state between fragments, as the
// engine's MiniSL frames do; a FragFn shared between tiles would race on it.
func scratchFrag() FragFn {
	scratch := make([]Vec4, 1)
	return func(vary []Vec4) (Vec4, int) {
		scratch[0] = vary[0].Scale(0.5)
		return scratch[0], 1
	}
}

// The tiled rasterizer must produce byte-identical images and identical
// stats for every worker count, including dimensions that are not tile
// multiples, for stateless and per-tile stateful fragment shaders alike.
func TestWorkerCountDeterminism(t *testing.T) {
	verts, idx := scene(60, 1)
	for _, tc := range []struct {
		shader     FragShader
		blendDepth RenderState
	}{
		{colorFrag, RenderState{Blend: BlendAlpha}},
		{colorFrag, RenderState{Blend: BlendAdditive, DepthTest: true}},
		{scratchFrag, RenderState{Blend: BlendAlpha, DepthTest: true}},
	} {
		blendDepth := tc.blendDepth
		var wantSum uint32
		var wantStats Stats
		for i, workers := range []int{1, 2, 4, 8} {
			im := NewImage(257, 131) // 5x3 tiles with ragged edges
			st := blendDepth
			st.Pool = NewPool(workers)
			stats := DrawTriangles(NewTarget(im), verts, idx, tc.shader, st)
			if i == 0 {
				wantSum, wantStats = im.Checksum(), stats
				continue
			}
			if got := im.Checksum(); got != wantSum {
				t.Fatalf("blend=%d workers=%d: checksum %08x, want %08x", blendDepth.Blend, workers, got, wantSum)
			}
			if stats != wantStats {
				t.Fatalf("blend=%d workers=%d: stats %+v, want %+v", blendDepth.Blend, workers, stats, wantStats)
			}
		}
		// The nil pool (fully serial path) must agree too.
		im := NewImage(257, 131)
		if DrawTriangles(NewTarget(im), verts, idx, tc.shader, blendDepth); im.Checksum() != wantSum {
			t.Fatalf("blend=%d: serial render diverged from pooled render", blendDepth.Blend)
		}
	}
}

// Concurrent draws on one shared pool into separate targets; meaningful
// under -race (workers from both draws interleave on the scheduler).
func TestParallelDrawsShareOnePool(t *testing.T) {
	pool := NewPool(8)
	verts, idx := scene(30, 1)
	const draws = 4
	sums := make([]uint32, draws)
	var wg sync.WaitGroup
	for d := 0; d < draws; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			im := NewImage(320, 200)
			DrawTriangles(NewTarget(im), verts, idx, colorFrag, RenderState{Blend: BlendAlpha, DepthTest: true, Pool: pool})
			sums[d] = im.Checksum()
		}(d)
	}
	wg.Wait()
	for d := 1; d < draws; d++ {
		if sums[d] != sums[0] {
			t.Fatalf("draw %d checksum %08x, want %08x", d, sums[d], sums[0])
		}
	}
}

// --- DrawLines through the shared fragment back end ---

func TestDrawLinesScissor(t *testing.T) {
	im := NewImage(16, 16)
	tgt := NewTarget(im)
	verts := []TVert{
		{Pos: Vec4{-1, 0, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
		{Pos: Vec4{1, 0, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
	}
	st := RenderState{Scissor: true, ScissorRect: [4]int{4, 0, 4, 16}}
	stats := DrawLines(tgt, verts, []int{0, 1}, colorFrag, st)
	for x := 0; x < 16; x++ {
		lit := im.At(x, 8).R != 0
		if lit != (x >= 4 && x < 8) {
			t.Fatalf("scissored line: pixel x=%d lit=%v", x, lit)
		}
	}
	if stats.Pixels != 4 {
		t.Fatalf("scissored line wrote %d pixels, want 4", stats.Pixels)
	}
}

func TestDrawLinesAdditiveBlendCounted(t *testing.T) {
	im := NewImage(16, 16)
	im.Fill(RGBA{R: 200, A: 255})
	tgt := NewTarget(im)
	verts := []TVert{
		{Pos: Vec4{-1, 0, 0, 1}, Vary: []Vec4{{100.0 / 255, 0, 0, 1}}},
		{Pos: Vec4{1, 0, 0, 1}, Vary: []Vec4{{100.0 / 255, 0, 0, 1}}},
	}
	stats := DrawLines(tgt, verts, []int{0, 1}, colorFrag, RenderState{Blend: BlendAdditive})
	if stats.Blended == 0 || stats.Blended != stats.Pixels {
		t.Fatalf("additive line stats = %+v, want every pixel blended", stats)
	}
	if got := im.At(8, 8).R; got != 255 { // 200+100 saturates
		t.Fatalf("additive line did not saturate: R=%d", got)
	}
}

func TestDrawLinesDepthTested(t *testing.T) {
	im := NewImage(16, 16)
	tgt := NewTarget(im)
	st := RenderState{DepthTest: true}
	// A near quad occludes the whole target...
	quad, idx := quadVerts(-1, -1, 1, 1, Vec4{0, 1, 0, 1})
	for i := range quad {
		quad[i].Pos[2] = -0.5
	}
	DrawTriangles(tgt, quad, idx, colorFrag, st)
	// ...so a farther line must be fully rejected.
	line := []TVert{
		{Pos: Vec4{-1, 0, 0.5, 1}, Vary: []Vec4{{1, 0, 0, 1}}},
		{Pos: Vec4{1, 0, 0.5, 1}, Vary: []Vec4{{1, 0, 0, 1}}},
	}
	stats := DrawLines(tgt, line, []int{0, 1}, colorFrag, st)
	if stats.Pixels != 0 {
		t.Fatalf("occluded line wrote %d pixels, want 0", stats.Pixels)
	}
	for x := 0; x < 16; x++ {
		if im.At(x, 8).R != 0 {
			t.Fatalf("occluded line visible at x=%d", x)
		}
	}
}

// --- CopyParallel ---

func TestCopyParallelMatchesCopy(t *testing.T) {
	src := NewImage(100, 300) // several TileSize bands
	for i := range src.Pix {
		src.Pix[i] = byte(i * 31)
	}
	for _, off := range [][2]int{{0, 0}, {-20, -130}, {50, 40}, {90, 290}} {
		serial := NewImage(128, 256)
		parallel := NewImage(128, 256)
		n1 := serial.Copy(src, off[0], off[1])
		n2 := parallel.CopyParallel(src, off[0], off[1], NewPool(4))
		if n1 != n2 {
			t.Fatalf("offset %v: CopyParallel copied %d pixels, Copy copied %d", off, n2, n1)
		}
		if serial.Checksum() != parallel.Checksum() {
			t.Fatalf("offset %v: CopyParallel result differs from Copy", off)
		}
	}
}

// --- Throughput scaling ---

// BenchmarkRasterTiles measures tiled raster throughput as the worker pool
// grows; scripts/benchjson.sh records the series as the PR's perf artifact.
func BenchmarkRasterTiles(b *testing.B) {
	verts, idx := scene(120, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := NewPool(workers)
			im := NewImage(640, 400)
			tgt := NewTarget(im)
			st := RenderState{Blend: BlendAlpha, DepthTest: true, Pool: pool}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tgt.ClearDepth(1)
				DrawTriangles(tgt, verts, idx, colorFrag, st)
			}
		})
	}
}
