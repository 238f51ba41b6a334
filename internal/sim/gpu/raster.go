package gpu

import "math"

// Stats counts the work a rendering operation performed. The GLES libraries
// convert stats into virtual-time charges via the cost model, so "how
// expensive was this call" always derives from real work done. Parallel
// tiled rasterization accumulates one Stats per tile and merges them in
// tile-index order; every field is an integer sum, so the merged totals are
// exact and independent of worker count.
type Stats struct {
	Vertices    int // vertices transformed
	Pixels      int // pixels written to the target
	TexFetches  int // texture samples taken
	Blended     int // pixels that went through the blend unit
	ShaderEvals int // programmable fragment-shader invocations
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Vertices += o.Vertices
	s.Pixels += o.Pixels
	s.TexFetches += o.TexFetches
	s.Blended += o.Blended
	s.ShaderEvals += o.ShaderEvals
}

// BlendMode selects the framebuffer blend function.
type BlendMode uint8

// Supported blend modes.
const (
	BlendNone     BlendMode = iota // overwrite
	BlendAlpha                     // src-alpha / one-minus-src-alpha
	BlendAdditive                  // one / one
)

// RenderState is the fixed per-draw state.
type RenderState struct {
	Blend       BlendMode
	DepthTest   bool
	Scissor     bool
	ScissorRect [4]int // x, y, w, h in target pixels
	Viewport    [4]int // x, y, w, h
	// Pool renders tiles concurrently when it has more than one worker. A
	// nil pool rasterizes serially; results are byte-identical either way.
	Pool *Pool
}

// Target is a framebuffer attachment set.
type Target struct {
	Color *Image
	depth []float32
}

// NewTarget wraps a color image as a render target.
func NewTarget(color *Image) *Target { return &Target{Color: color} }

// Depth lazily allocates and returns the depth buffer, cleared to 1.0.
func (t *Target) Depth() []float32 {
	if t.depth == nil {
		t.depth = make([]float32, t.Color.W*t.Color.H)
		t.ClearDepth(1)
	}
	return t.depth
}

// ClearDepth resets every depth sample to d.
func (t *Target) ClearDepth(d float32) {
	if t.depth == nil {
		t.depth = make([]float32, t.Color.W*t.Color.H)
	}
	for i := range t.depth {
		t.depth[i] = d
	}
}

// TVert is a transformed (clip-space) vertex with interpolated varyings.
type TVert struct {
	Pos  Vec4   // clip space
	Vary []Vec4 // per-pipeline varying slots
}

// FragFn shades one fragment from interpolated varyings, returning the
// color and the number of texture fetches it performed. A FragFn is only
// ever called by one goroutine at a time, so it may keep scratch state
// between calls.
type FragFn func(vary []Vec4) (Vec4, int)

// FragShader makes the fragment function for one unit of raster work. Tiled
// rasterization calls it once per tile, on the worker that renders the
// tile, and tiles render concurrently: each FragFn it returns must own its
// scratch state (the engine gives each one its own MiniSL frame) and share
// nothing mutable with the others.
type FragShader func() FragFn

// Stateless adapts a FragFn that keeps no state between calls, so one
// function value can serve every tile at once.
func Stateless(frag FragFn) FragShader { return func() FragFn { return frag } }

// Texture is a sampleable image.
type Texture struct {
	Img    *Image
	Repeat bool // wrap mode: repeat (true) or clamp-to-edge
}

// Sample fetches the nearest texel at normalized coordinates (u, v), with
// v=0 at the top row (matching how the GLES layer uploads data).
func (t *Texture) Sample(u, v float32) Vec4 {
	if t == nil || t.Img == nil {
		return Vec4{0, 0, 0, 1}
	}
	if t.Repeat {
		u = u - float32(math.Floor(float64(u)))
		v = v - float32(math.Floor(float64(v)))
	} else {
		u = clampf(u, 0, 1)
		v = clampf(v, 0, 1)
	}
	// Nearest sampling maps u in [i/W, (i+1)/W) to texel i, which makes a
	// 1:1 fullscreen blit pixel-exact — the property the §9 "pixel for
	// pixel" comparison between Cycada's shader-blit present and the native
	// present relies on.
	x := int(u * float32(t.Img.W))
	if x >= t.Img.W {
		x = t.Img.W - 1
	}
	y := int(v * float32(t.Img.H))
	if y >= t.Img.H {
		y = t.Img.H - 1
	}
	return t.Img.At(x, y).Vec()
}

// sv is a screen-space vertex: pixel coordinates, window depth, varyings.
type sv struct {
	x, y, z float32
	vary    []Vec4
}

// toScreen projects a clip-space vertex onto target pixels. The viewport
// maps NDC with y flipped so that NDC +y is up, like OpenGL; z maps from
// [-1,1] NDC to [0,1] window depth.
func toScreen(v TVert, vp [4]int) sv {
	w := v.Pos[3]
	if w == 0 {
		w = 1
	}
	nx, ny, nz := v.Pos[0]/w, v.Pos[1]/w, v.Pos[2]/w
	return sv{
		x:    float32(vp[0]) + (nx+1)/2*float32(vp[2]),
		y:    float32(vp[1]) + (1-ny)/2*float32(vp[3]), // flip y
		z:    nz*0.5 + 0.5,
		vary: v.Vary,
	}
}

// tri is one set-up triangle ready to rasterize: winding-normalized screen
// vertices, the reciprocal of its (positive) doubled area, its clipped
// inclusive pixel bounding box, and the top-left flag of each edge.
type tri struct {
	a, b, c                sv
	inv                    float32
	minX, minY, maxX, maxY int
	tl0, tl1, tl2          bool // edges b→c, c→a, a→b
}

// topLeft reports whether an edge with screen-space direction (dx, dy) is a
// top or left edge of a clockwise (y-down) triangle. Pixels whose center
// lies exactly on an edge are shaded only when the edge is top or left; an
// adjacent triangle sees the same edge with the opposite direction, for
// which exactly one of the two flags is set — so every shared-edge pixel is
// shaded exactly once per draw (the fill rule that makes per-tile pixel
// ownership unambiguous).
func topLeft(dx, dy float32) bool {
	return dy < 0 || (dy == 0 && dx > 0)
}

// DrawTriangles rasterizes indexed triangles into dst. Vertices are in clip
// space; the viewport maps NDC onto target pixels with y flipped so that
// NDC +y is up, like OpenGL. Varyings are interpolated linearly in screen
// space (no perspective correction; adequate for the simulated workloads).
//
// Coverage follows the top-left fill rule, so pixels on an edge shared by
// two triangles are shaded exactly once. Both windings render (GLES has
// face culling disabled by default); negative-area triangles are winding-
// normalized before setup so one fill-rule convention applies everywhere.
// The depth test implements GL_LESS — the GLES default depth func, which is
// what the engine advertises (glDepthFunc is a fixed-cost stub, so the
// default is the only comparison workloads can observe).
//
// Rasterization is tiled: triangles are binned into TileSize-square tiles
// and tiles render concurrently on st.Pool, each shading with its own FragFn
// from shader. Tiles own disjoint pixels, so the output is byte-identical
// for any worker count.
func DrawTriangles(dst *Target, verts []TVert, indices []int, shader FragShader, st RenderState) Stats {
	var stats Stats
	stats.Vertices = len(verts)
	if dst == nil || dst.Color == nil || shader == nil {
		return stats
	}
	vp := st.Viewport
	if vp[2] == 0 || vp[3] == 0 {
		vp = [4]int{0, 0, dst.Color.W, dst.Color.H}
	}
	var depth []float32
	if st.DepthTest {
		depth = dst.Depth()
	}
	img := dst.Color

	// Transform every vertex once; triangles sharing vertices share the
	// projection (and therefore agree bit-for-bit on shared edges).
	screen := make([]sv, len(verts))
	for i, v := range verts {
		screen[i] = toScreen(v, vp)
	}

	clipX0, clipY0, clipX1, clipY1 := clipBounds(img, st)

	// Triangle setup: winding normalization, bbox clip, fill-rule flags.
	tris := make([]tri, 0, len(indices)/3)
	maxVary := 0
	for i := 0; i+2 < len(indices); i += 3 {
		a, b, c := screen[indices[i]], screen[indices[i+1]], screen[indices[i+2]]
		area := (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x)
		if area == 0 {
			continue // degenerate
		}
		if area < 0 {
			// Winding normalization: swapping b and c makes the triangle
			// clockwise in y-down screen space without changing its pixels,
			// so the interior test and fill rule use one sign convention.
			b, c = c, b
			area = -area
		}
		minX := int(math.Floor(float64(min3(a.x, b.x, c.x))))
		maxX := int(math.Ceil(float64(max3(a.x, b.x, c.x))))
		minY := int(math.Floor(float64(min3(a.y, b.y, c.y))))
		maxY := int(math.Ceil(float64(max3(a.y, b.y, c.y))))
		if minX < clipX0 {
			minX = clipX0
		}
		if minY < clipY0 {
			minY = clipY0
		}
		if maxX > clipX1 {
			maxX = clipX1
		}
		if maxY > clipY1 {
			maxY = clipY1
		}
		if minX > maxX || minY > maxY {
			continue
		}
		if n := len(a.vary); n > maxVary {
			maxVary = n
		}
		tris = append(tris, tri{
			a: a, b: b, c: c,
			inv:  1 / area,
			minX: minX, minY: minY, maxX: maxX, maxY: maxY,
			tl0: topLeft(c.x-b.x, c.y-b.y),
			tl1: topLeft(a.x-c.x, a.y-c.y),
			tl2: topLeft(b.x-a.x, b.y-a.y),
		})
	}
	if len(tris) == 0 {
		return stats
	}

	// Bin triangles to the tiles their bbox overlaps, preserving submission
	// order within each bin (blending inside a draw is order-dependent).
	grid := gridFor(img.W, img.H)
	bins := make([][]int32, grid.tiles())
	for ti := range tris {
		tr := &tris[ti]
		tx0, ty0, tx1, ty1 := grid.tileRange(tr.minX, tr.minY, tr.maxX, tr.maxY)
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				id := ty*grid.cols + tx
				bins[id] = append(bins[id], int32(ti))
			}
		}
	}
	work := make([]int, 0, len(bins))
	for id, bin := range bins {
		if len(bin) > 0 {
			work = append(work, id)
		}
	}

	// Render the non-empty tiles on the pool and merge per-tile stats in
	// tile-index order. Tiles cover disjoint pixels, so any schedule
	// produces the same image.
	tileStats := make([]Stats, len(work))
	st.Pool.Run(len(work), func(i int) {
		id := work[i]
		x0, y0, x1, y1 := grid.bounds(id)
		rasterTile(img, depth, tris, bins[id], x0, y0, x1-1, y1-1, maxVary, shader(), st.Blend, &tileStats[i])
	})
	for i := range tileStats {
		stats.Add(tileStats[i])
	}
	return stats
}

// rasterTile rasterizes one tile's binned triangles into the inclusive pixel
// rectangle [tx0,tx1] x [ty0,ty1] with the tile's own fragment function and
// stores the tile's Stats in *out once, at the end. It touches only pixels
// inside the tile, so concurrent calls on distinct tiles never write the
// same memory.
//
// The loop computes exactly the bits of the straightforward per-fragment
// formulas (DESIGN.md §17): each edge function, depth and varying component
// is evaluated with the same operations in the same order; only values that
// do not change along a row or within a triangle are hoisted. Varyings are
// interpolated per component as (a*w0 + b*w1) + c*w2 with every product
// rounded to float32 before it is added, so no build may fuse them.
func rasterTile(img *Image, depth []float32, tris []tri, bin []int32, tx0, ty0, tx1, ty1, maxVary int, frag FragFn, mode BlendMode, out *Stats) {
	vary := make([]Vec4, maxVary)
	pix, stride := img.Pix, img.W
	frags, fetches := 0, 0
	for _, ti := range bin {
		tr := &tris[ti]
		minX, minY, maxX, maxY := tr.minX, tr.minY, tr.maxX, tr.maxY
		if minX < tx0 {
			minX = tx0
		}
		if minY < ty0 {
			minY = ty0
		}
		if maxX > tx1 {
			maxX = tx1
		}
		if maxY > ty1 {
			maxY = ty1
		}
		ax, ay, az := tr.a.x, tr.a.y, tr.a.z
		bx, by, bz := tr.b.x, tr.b.y, tr.b.z
		cx, cy, cz := tr.c.x, tr.c.y, tr.c.z
		inv := tr.inv
		tl0, tl1, tl2 := tr.tl0, tr.tl1, tr.tl2
		fv := vary[:len(tr.a.vary)]
		va, vb, vc := tr.a.vary[:len(fv)], tr.b.vary[:len(fv)], tr.c.vary[:len(fv)]
		for y := minY; y <= maxY; y++ {
			py := float32(y) + 0.5
			ayp, byp, cyp := ay-py, by-py, cy-py
			row := y * stride
			for x := minX; x <= maxX; x++ {
				px := float32(x) + 0.5
				// Edge functions: eN > 0 strictly inside; eN == 0 exactly on
				// the edge, accepted only when the edge is top-left.
				e0 := (bx-px)*cyp - byp*(cx-px)
				if e0 < 0 || (e0 == 0 && !tl0) {
					continue
				}
				e1 := (cx-px)*ayp - cyp*(ax-px)
				if e1 < 0 || (e1 == 0 && !tl1) {
					continue
				}
				e2 := (ax-px)*byp - ayp*(bx-px)
				if e2 < 0 || (e2 == 0 && !tl2) {
					continue
				}
				w0, w1, w2 := e0*inv, e1*inv, e2*inv
				if depth != nil {
					z := w0*az + w1*bz + w2*cz
					// GL_LESS: the incoming fragment wins only when strictly
					// nearer than the stored sample.
					if z >= depth[row+x] {
						continue
					}
					depth[row+x] = z
				}
				for i := range fv {
					a, b, c := &va[i], &vb[i], &vc[i]
					fv[i] = Vec4{
						float32(a[0]*w0) + float32(b[0]*w1) + float32(c[0]*w2),
						float32(a[1]*w0) + float32(b[1]*w1) + float32(c[1]*w2),
						float32(a[2]*w0) + float32(b[2]*w1) + float32(c[2]*w2),
						float32(a[3]*w0) + float32(b[3]*w1) + float32(c[3]*w2),
					}
				}
				col, n := frag(fv)
				fetches += n
				frags++
				p := 4 * (row + x)
				writeFragment(pix[p:p+4:p+4], FromVec(col), mode)
			}
		}
	}
	// Every shaded fragment is written and, unless the mode overwrites,
	// blended: one count serves Pixels, ShaderEvals and Blended.
	*out = Stats{Pixels: frags, TexFetches: fetches, ShaderEvals: frags, Blended: blended(mode, frags)}
}

// writeFragment is the blend back end shared by the triangle and line
// rasterizers: it writes src into the 4-byte RGBA pixel dst.
func writeFragment(dst []byte, src RGBA, mode BlendMode) {
	switch mode {
	case BlendAlpha:
		c := blend(src, RGBA{dst[0], dst[1], dst[2], dst[3]})
		dst[0], dst[1], dst[2], dst[3] = c.R, c.G, c.B, c.A
	case BlendAdditive:
		dst[0], dst[1], dst[2], dst[3] = addSat(src.R, dst[0]), addSat(src.G, dst[1]), addSat(src.B, dst[2]), addSat(src.A, dst[3])
	default:
		dst[0], dst[1], dst[2], dst[3] = src.R, src.G, src.B, src.A
	}
}

// blended reports how many of n written fragments went through the blend
// unit under mode.
func blended(mode BlendMode, n int) int {
	if mode == BlendAlpha || mode == BlendAdditive {
		return n
	}
	return 0
}

// clipBounds intersects the image rectangle with the scissor rectangle and
// returns inclusive pixel bounds.
func clipBounds(img *Image, st RenderState) (x0, y0, x1, y1 int) {
	x0, y0, x1, y1 = 0, 0, img.W-1, img.H-1
	if st.Scissor {
		sr := st.ScissorRect
		if x0 < sr[0] {
			x0 = sr[0]
		}
		if y0 < sr[1] {
			y0 = sr[1]
		}
		if x1 >= sr[0]+sr[2] {
			x1 = sr[0] + sr[2] - 1
		}
		if y1 >= sr[1]+sr[3] {
			y1 = sr[1] + sr[3] - 1
		}
	}
	return
}

// DrawLines rasterizes index pairs as 1px lines, with varyings interpolated
// along the segment. Lines run through the same per-fragment back end as
// triangles: scissor clipping, the GL_LESS depth test, and all three blend
// modes (overwrite, alpha, additive), with Blended counted accordingly.
// Line rasterization is serial — segments may revisit pixels, so they are
// not tile-disjoint — but draws are cheap relative to triangle fills.
func DrawLines(dst *Target, verts []TVert, indices []int, shader FragShader, st RenderState) Stats {
	var stats Stats
	stats.Vertices = len(verts)
	if dst == nil || dst.Color == nil || shader == nil {
		return stats
	}
	vp := st.Viewport
	if vp[2] == 0 || vp[3] == 0 {
		vp = [4]int{0, 0, dst.Color.W, dst.Color.H}
	}
	var depth []float32
	if st.DepthTest {
		depth = dst.Depth()
	}
	img := dst.Color
	clipX0, clipY0, clipX1, clipY1 := clipBounds(img, st)
	nvary := 0
	if len(verts) > 0 {
		nvary = len(verts[0].Vary)
	}
	vary := make([]Vec4, nvary)
	frag := shader()
	for i := 0; i+1 < len(indices); i += 2 {
		va := toScreen(verts[indices[i]], vp)
		vb := toScreen(verts[indices[i+1]], vp)
		steps := int(math.Max(math.Abs(float64(vb.x-va.x)), math.Abs(float64(vb.y-va.y)))) + 1
		for s := 0; s <= steps; s++ {
			t := float32(s) / float32(steps)
			x, y := int(va.x+(vb.x-va.x)*t), int(va.y+(vb.y-va.y)*t)
			if x < clipX0 || y < clipY0 || x > clipX1 || y > clipY1 {
				continue
			}
			if depth != nil {
				z := va.z + (vb.z-va.z)*t
				di := y*img.W + x
				if z >= depth[di] { // GL_LESS, as for triangles
					continue
				}
				depth[di] = z
			}
			for vi := 0; vi < nvary; vi++ {
				vary[vi] = va.vary[vi].Scale(1 - t).Add(vb.vary[vi].Scale(t))
			}
			col, fetches := frag(vary)
			stats.TexFetches += fetches
			stats.ShaderEvals++
			p := 4 * (y*img.W + x)
			writeFragment(img.Pix[p:p+4:p+4], FromVec(col), st.Blend)
			stats.Pixels++
		}
	}
	stats.Blended = blended(st.Blend, stats.Pixels)
	return stats
}

func min3(a, b, c float32) float32 {
	return float32(math.Min(float64(a), math.Min(float64(b), float64(c))))
}
func max3(a, b, c float32) float32 {
	return float32(math.Max(float64(a), math.Max(float64(b), float64(c))))
}

func addSat(a, b uint8) uint8 {
	s := uint16(a) + uint16(b)
	if s > 255 {
		return 255
	}
	return uint8(s)
}
