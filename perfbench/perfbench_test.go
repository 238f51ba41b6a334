package main

import (
	"math"
	"testing"
	"time"

	"cycada/internal/obs"
	"cycada/internal/sim/vclock"
)

// span builds a finished span that starts at ms milliseconds after base and
// lasts dur milliseconds, with dur/10 ms of virtual time.
func span(base time.Time, pid, tid int, seq int64, cat, name string, ms, dur float64) obs.Event {
	d := time.Duration(dur * float64(time.Millisecond))
	return obs.Event{
		Name: name, Cat: cat, PID: pid, TID: tid, Seq: seq,
		WStart: base.Add(time.Duration(ms * float64(time.Millisecond))),
		WDur:   d,
		VDur:   vclock.Duration(d.Nanoseconds() / 10),
	}
}

func TestLayerSelfTimes(t *testing.T) {
	base := time.Now()
	evs := []obs.Event{
		span(base, 1, 1, 1, obs.CatReplay, "replay:play:x", 0, 100),
		span(base, 1, 1, 2, obs.CatDiplomat, "diplomat:glClear", 10, 20),
		span(base, 1, 1, 3, obs.CatDiplomat, "domestic:glClear", 12, 10),
		span(base, 1, 1, 4, obs.CatSyscall, "set_persona:android", 13, 2),
		// A call the replay player makes on another thread of the stack
		// nests in the player's span.
		span(base, 1, 2, 5, obs.CatDiplomat, "diplomat:glDrawArrays", 40, 30),
		span(base, 1, 2, 6, obs.CatDiplomat, "domestic:glDrawArrays", 41, 28),
		// The session span encloses calls without nesting with them.
		span(base, 1, 2, 7, obs.CatImpersonation, "impersonation", 35, 60),
		span(base, 1, 2, 8, obs.CatImpersonation, "tls_save", 36, 3),
		span(base, 1, 2, 9, obs.CatSyscall, "locate_tls", 37, 1),
		// Another stack runs concurrently and is nested on its own.
		span(base, 1001, 1, 10, obs.CatEGL, "egl:present", 5, 50),
		span(base, 1001, 1, 11, obs.CatEGL, "egl:blit_shader", 6, 40),
	}
	lt := newLayerTable(spanCost{})
	top := lt.add(evs)
	if want := 150 * time.Millisecond; top != want {
		t.Errorf("top-level time %v, want %v", top, want)
	}
	want := map[string]float64{
		layerReplay:     100 - 20 - 30 - 3,
		layerDiplomat:   (20 - 10) + (30 - 28),
		layerState:      10 - 2,
		layerDraw:       28,
		layerSyscall:    2 + 1,
		layerImperson:   3 - 1,
		layerPresent:    50 - 40,
		layerBlit:       40,
		layerFacade:     0,
		layerEGL:        0,
		layerLinker:     0,
		layerUnknown:    0,
		"no such layer": 0,
	}
	for layer, w := range want {
		if got := ms(lt.wall[layer]); math.Abs(got-w) > 1e-9 {
			t.Errorf("%s self time %.3f ms, want %.3f", layer, got, w)
		}
	}
	if got, w := lt.attributedMS(), 150.0; math.Abs(got-w) > 1e-9 {
		t.Errorf("self times add up to %.3f ms, want the top-level %.3f", got, w)
	}
	if lt.crossings != 2 || lt.sessions != 1 || lt.facade != 0 {
		t.Errorf("crossings %d sessions %d facade %d, want 2 1 0", lt.crossings, lt.sessions, lt.facade)
	}
	// Impersonation's virtual time is its syscalls'; tls_save charges none
	// of its own.
	if got, w := lt.outerVT[layerImperson], int64(300_000); int64(got) != w {
		t.Errorf("impersonation virtual time %d, want %d", got, w)
	}
	if !lt.ok() {
		t.Errorf("trace check failed: %s", lt.problem())
	}

	// With a cost per span, each span gives up its inner cost and the outer
	// cost of each direct child; the top-level spans' outer cost lies
	// outside every span. Ten spans nest, eight of them as children.
	costed := newLayerTable(spanCost{inner: time.Millisecond, outer: 2 * time.Millisecond})
	costed.add(evs)
	for layer, w := range map[string]float64{
		layerReplay:  47 - 1 - 3*2, // children: diplomat:glClear, tls_save, diplomat:glDrawArrays
		layerPresent: 10 - 1 - 2,
		layerBlit:    40 - 1,
	} {
		if got := ms(costed.wall[layer]); math.Abs(got-w) > 1e-9 {
			t.Errorf("%s self time with tracer cost %.3f ms, want %.3f", layer, got, w)
		}
	}
	if got, w := ms(costed.traceCost), 10*1+10*2.0; math.Abs(got-w) > 1e-9 {
		t.Errorf("tracer cost %.3f ms, want %.3f", got, w)
	}
	if got, w := costed.attributedMS(), 150+2*2.0; math.Abs(got-w) > 1e-9 {
		t.Errorf("self times and tracer cost add up to %.3f ms, want %.3f", got, w)
	}

	bad := newLayerTable(spanCost{})
	bad.add([]obs.Event{
		span(base, 1, 1, 1, obs.CatDiplomat, "diplomat:glClear", 0, 10),
		span(base, 1, 1, 2, obs.CatDiplomat, "domestic:glClear", 5, 10),
	})
	if bad.misnested != 1 || bad.ok() {
		t.Errorf("a child ending after its parent was not caught (misnested %d)", bad.misnested)
	}
}

// TestCPUShares checks how the process CPU is shared among ops: all of it
// to a lone op, evenly among overlapping ones, none to the gaps between ops.
func TestCPUShares(t *testing.T) {
	var clock time.Duration
	c := newCPUShares()
	c.now = func() time.Duration { return clock }
	clock = 5 * time.Millisecond
	c.begin(1)
	clock += 10 * time.Millisecond // op 1 alone
	c.begin(2)
	clock += 6 * time.Millisecond // ops 1 and 2
	if got, want := c.end(1), 13*time.Millisecond; got != want {
		t.Errorf("op 1 got %v of CPU, want %v", got, want)
	}
	clock += 4 * time.Millisecond // op 2 alone
	if got, want := c.end(2), 7*time.Millisecond; got != want {
		t.Errorf("op 2 got %v of CPU, want %v", got, want)
	}
	clock += 50 * time.Millisecond // no op
	c.begin(3)
	clock += time.Millisecond
	if got, want := c.end(3), time.Millisecond; got != want {
		t.Errorf("op 3 got %v of CPU, want %v", got, want)
	}
}

// TestCalibrate checks that the tracer calibration measures a cost and
// leaves the tracer empty.
func TestCalibrate(t *testing.T) {
	tr := obs.New()
	tr.SetEventCap(1 << 20)
	tr.SetEnabled(true)
	c, err := calibrate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if c.inner <= 0 || c.outer <= 0 || tr.Len() != 0 {
		t.Errorf("span cost %+v, %d spans left in the tracer", c, tr.Len())
	}
}

// TestRepeatsAtOneSeed runs every workload twice at one seed, untraced and
// traced, on a short run: every op must verify, the traced run must pass
// its checks, and the virtual time per op and every count must repeat
// exactly.
func TestRepeatsAtOneSeed(t *testing.T) {
	counts := []string{"diplomat.crossings", "impersonate.sessions", "kernel.syscalls"}
	for _, name := range []string{"golden-replay", "call-storm", "farm-mix"} {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{
				Workload: name,
				Seed:     7,
				Duration: time.Millisecond,
				Corpus:   "../internal/replay/testdata",
				Setups:   1,
			}
			var runs [2][2]*outcome
			for i := range runs {
				for traced := range runs[i] {
					cfg.Traced = traced == 1
					out, err := run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if out.Failed != 0 || !out.TraceOK {
						t.Fatalf("traced=%v: %d of %d ops failed, trace ok %v", cfg.Traced, out.Failed, out.Attempted, out.TraceOK)
					}
					runs[i][traced] = out
				}
			}
			for _, m := range append([]string{"vt_ms_per_op"}, counts...) {
				traced := 1
				if m == "vt_ms_per_op" {
					traced = 0
				}
				a := runs[0][traced].Metrics[m]
				b := runs[1][traced].Metrics[m]
				if a.Unit == "" || a != b {
					t.Errorf("%s: %v then %v", m, a, b)
				}
			}
		})
	}
}

// TestCallStormTraffic pins what call-storm takes from the golden traces,
// as README.md records it: the weights of its call kinds and the rate at
// which its worker adopts the context.
func TestCallStormTraffic(t *testing.T) {
	c, err := loadCorpus("../internal/replay/testdata")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := trafficMix(c.traces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"glEnable": 2, "glDisable": 2, "glActiveTexture": 4, "glBindTexture": 12,
		"glUseProgram": 6, "glUniform4f": 72, "glUniform1i": 4, "glClearColor": 5,
		"glVertexAttribPointer": 152, "glEnableVertexAttribArray": 152,
	}
	prev := 0
	for j, k := range stormKinds {
		if got := mix[j] - prev; got != want[kindSpan[k]] {
			t.Errorf("%s weighs %d, want %d", kindSpan[k], got, want[kindSpan[k]])
		}
		prev = mix[j]
	}
	callsPer, adoptedPer, err := adoptionRate(c.traces)
	if err != nil {
		t.Fatal(err)
	}
	if callsPer != 21 || adoptedPer != 3 {
		t.Errorf("one adoption per %v calls, %v calls per adoption; want 21 and 3", callsPer, adoptedPer)
	}
}
