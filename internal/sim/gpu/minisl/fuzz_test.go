package minisl

import (
	"errors"
	"strings"
	"testing"

	"cycada/internal/sim/gpu"
)

// maxFuzzSource bounds the shader text one fuzz input may hold. The step
// limit bounds statements, not the size of each one, so a long source in a
// long loop is slow without being stuck.
const maxFuzzSource = 1 << 10

// FuzzCompile feeds arbitrary text through Compile, Link and one run of each
// stage. Shader source is untrusted input: every failure must come back as
// an error — a *CompileError, a *LinkError or a runtime error — never as a
// panic or a hang. The seed corpus in testdata/fuzz/FuzzCompile holds the
// blit and workload shaders.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzSource {
			t.Skip()
		}
		vs, verr := Compile(src, Vertex)
		fs, ferr := Compile(src, Fragment)
		for _, err := range []error{verr, ferr} {
			var ce *CompileError
			if err != nil && !errors.As(err, &ce) {
				t.Fatalf("compile error %T is not a *CompileError: %v", err, err)
			}
		}
		if vs != nil {
			fuzzRun(t, vs, compileFuzz(t, "void main(){ gl_FragColor = vec4(1.0); }", Fragment))
		}
		if fs != nil {
			fuzzRun(t, compileFuzz(t, feedingVS(fs), Vertex), fs)
		}
		if vs != nil && fs != nil {
			fuzzRun(t, vs, fs)
		}
	})
}

func compileFuzz(t *testing.T, src string, k Kind) *Shader {
	sh, err := Compile(src, k)
	if err != nil {
		t.Fatalf("harness shader does not compile: %v\n%s", err, src)
	}
	return sh
}

// feedingVS writes a vertex shader declaring every varying fs reads.
func feedingVS(fs *Shader) string {
	var b strings.Builder
	for _, d := range fs.Varyings {
		b.WriteString("varying " + d.Type + " " + d.Name + ";\n")
	}
	b.WriteString("void main(){ gl_Position = vec4(0.0); }\n")
	return b.String()
}

// fuzzRun links vs and fs and runs one vertex and one fragment with
// sampler uniforms bound to a small texture.
func fuzzRun(t *testing.T, vs, fs *Shader) {
	p, err := Link(vs, fs)
	if err != nil {
		var le *LinkError
		if !errors.As(err, &le) {
			t.Fatalf("link error %T is not a *LinkError: %v", err, err)
		}
		return
	}
	img := gpu.NewImage(2, 2)
	img.Fill(gpu.RGBA{R: 200, G: 100, B: 50, A: 255})
	uniforms := make([]Value, len(p.Uniforms))
	for i, d := range p.Uniforms {
		if d.Type == "sampler2D" {
			uniforms[i] = Sampler(&gpu.Texture{Img: img, Repeat: i%2 == 1})
		} else {
			uniforms[i] = Zero(d.Type)
		}
	}
	attribs := make([]Value, len(p.VS.Attributes))
	for i := range attribs {
		attribs[i] = Vec(4, 0.25, -0.5, 0.75, 1)
	}
	f := p.NewFrame()
	vary := make([]gpu.Vec4, len(p.VaryNames))
	if _, err := p.RunVertex(f, attribs, uniforms, vary); err != nil {
		return
	}
	if _, fetches, err := p.RunFragment(f, vary, uniforms); err == nil && fetches < 0 {
		t.Fatalf("negative fetch count %d", fetches)
	}
}
