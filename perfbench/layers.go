package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"cycada/internal/obs"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// Layers of the stack, as the traced run attributes span self time to them.
// Self time is a span's duration minus the part its child spans cover and
// minus the tracer's cost of recording those children, so the layers' self
// times and the tracer's cost add up to the traced time without double
// counting.
const (
	layerFacade    = "glesapi"      // facade spans the benchmark records around glesapi calls
	layerDiplomat  = "diplomat"     // diplomat:* and batch:dispatch: the persona crossing itself
	layerState     = "engine.state" // domestic:gl* other than draws: GLES engine state
	layerDraw      = "engine.draw"  // domestic:glDraw*: engine, MiniSL and raster
	layerEGL       = "eglbridge.egl"
	layerBlit      = "eglbridge.blit"    // egl:blit_shader, egl:blit_copy
	layerPresent   = "eglbridge.present" // egl:present: compose and post in sflinger
	layerImperson  = "impersonate"       // tls_save/replace/reflect/restore
	layerSyscall   = "kernel.syscall"
	layerLinker    = "linker" // dlr spans: dlopen, dlforce, ctor
	layerReplay    = "replay" // the replay player's own loop
	layerUnknown   = "unknown"
	catFacade      = "facade"
	sessionSpan    = "impersonation"
	domesticPrefix = "domestic:"
	// pidSpace is the size of the PID range each kernel takes from a shared
	// tracer.
	pidSpace = 1000
)

// classify maps a span to its layer.
func classify(ev *obs.Event) string {
	switch ev.Cat {
	case catFacade:
		return layerFacade
	case obs.CatBatch:
		return layerDiplomat
	case obs.CatDiplomat:
		fn, domestic := strings.CutPrefix(ev.Name, domesticPrefix)
		switch {
		case !domestic:
			return layerDiplomat
		case strings.HasPrefix(fn, "glDraw"):
			return layerDraw
		case strings.HasPrefix(fn, "gl"):
			return layerState
		default:
			return layerEGL
		}
	case obs.CatEGL:
		switch {
		case strings.HasPrefix(ev.Name, "egl:blit_"):
			return layerBlit
		case ev.Name == "egl:present":
			return layerPresent
		default:
			return layerEGL
		}
	case obs.CatImpersonation:
		return layerImperson
	case obs.CatSyscall:
		return layerSyscall
	case obs.CatDLR:
		return layerLinker
	case obs.CatReplay:
		return layerReplay
	default:
		return layerUnknown
	}
}

// layerTable accumulates self times and counts over a traced phase.
type layerTable struct {
	wall map[string]time.Duration
	vt   map[string]vclock.Duration
	// outerVT is the virtual time of a layer's outermost spans, children
	// included: impersonation charges its cost through the syscalls it makes.
	outerVT   map[string]vclock.Duration
	facade    int // facade spans
	crossings int // diplomat and batch spans
	sessions  int // impersonation sessions
	dropped   int64
	// misnested counts spans that end after the span enclosing their start.
	misnested int
	// overflow is traced top-level span time beyond the ops' work time.
	overflow time.Duration
	// cost is the calibrated cost of recording one span. topSpans counts
	// the top-level spans, whose outer cost falls outside every span (in
	// other_ms); traceCost sums the cost taken out of the self times.
	cost      spanCost
	topSpans  int
	traceCost time.Duration
}

func newLayerTable(cost spanCost) *layerTable {
	return &layerTable{
		wall:    map[string]time.Duration{},
		vt:      map[string]vclock.Duration{},
		outerVT: map[string]vclock.Duration{},
		cost:    cost,
	}
}

// drain moves the tracer's spans into the table and empties the tracer.
// work is the summed work time of the ops that recorded them.
func (lt *layerTable) drain(tr *obs.Tracer, work time.Duration) {
	lt.dropped += tr.Dropped()
	evs := tr.Events()
	tr.Reset()
	if top := lt.add(evs); top > work {
		lt.overflow += top - work
	}
}

// add attributes self times of evs and returns the summed duration of the
// top-level spans.
//
// Spans carry no parent link, so nesting is rebuilt per stack from wall
// intervals: a parent begins before its children (lower Seq on equal
// starts) and ends after them. Nesting spans threads, not just one thread,
// because one goroutine drives all of a stack's threads in turn (the replay
// player's span encloses the calls it makes on other threads); stacks run
// concurrently, so they are kept apart, by the PID range a kernel takes
// from the tracer (obs.Tracer.AllocPIDSpace). The whole-session
// "impersonation" span is left out of the nesting: it opens in one
// setCurrentContext: call and closes in a later one, so it encloses the
// calls in between rather than nesting with them. It is counted, and its
// tls_* children are the layer; its own recording cost (one span per
// session) is left where it falls.
//
// A span's self time loses the calibrated cost of recording it: its inner
// part, which lies inside the span's own interval, and the outer part of
// each direct child, which lies inside this span but outside the child.
func (lt *layerTable) add(evs []obs.Event) time.Duration {
	byStack := map[int][]*obs.Event{}
	for i := range evs {
		ev := &evs[i]
		if ev.Cat == obs.CatImpersonation && ev.Name == sessionSpan {
			lt.sessions++
			continue
		}
		switch ev.Cat {
		case obs.CatDiplomat:
			if !strings.HasPrefix(ev.Name, domesticPrefix) {
				lt.crossings++
			}
		case obs.CatBatch:
			lt.crossings++
		case catFacade:
			lt.facade++
		}
		k := ev.PID / pidSpace
		byStack[k] = append(byStack[k], ev)
	}
	type open struct {
		ev       *obs.Event
		end      time.Time
		childW   time.Duration
		childV   vclock.Duration
		children int
		layer    string
	}
	var top time.Duration
	for _, list := range byStack {
		sort.Slice(list, func(i, j int) bool {
			a, b := list[i], list[j]
			if !a.WStart.Equal(b.WStart) {
				return a.WStart.Before(b.WStart)
			}
			return a.Seq < b.Seq
		})
		var stack []*open
		closeTop := func() {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			tc := lt.cost.inner + time.Duration(o.children)*lt.cost.outer
			lt.wall[o.layer] += o.ev.WDur - o.childW - tc
			lt.vt[o.layer] += o.ev.VDur - o.childV
			lt.traceCost += tc
		}
		for _, ev := range list {
			for len(stack) > 0 && !stack[len(stack)-1].end.After(ev.WStart) {
				closeTop()
			}
			end := ev.WStart.Add(ev.WDur)
			layer := classify(ev)
			if len(stack) == 0 {
				top += ev.WDur
				lt.outerVT[layer] += ev.VDur
				lt.topSpans++
				lt.traceCost += lt.cost.outer
			} else {
				p := stack[len(stack)-1]
				if end.After(p.end) {
					lt.misnested++
				}
				p.childW += ev.WDur
				p.childV += ev.VDur
				p.children++
				if p.layer != layer {
					lt.outerVT[layer] += ev.VDur
				}
			}
			stack = append(stack, &open{ev: ev, end: end, layer: layer})
		}
		for len(stack) > 0 {
			closeTop()
		}
	}
	return top
}

// ok reports whether the traced phase passed its checks.
func (lt *layerTable) ok() bool { return lt.problem() == "" }

func (lt *layerTable) problem() string {
	var p []string
	if lt.dropped != 0 {
		p = append(p, fmt.Sprintf("%d spans dropped", lt.dropped))
	}
	if lt.misnested != 0 {
		p = append(p, fmt.Sprintf("%d spans not nested in their parent", lt.misnested))
	}
	if lt.overflow > 0 {
		p = append(p, fmt.Sprintf("top-level spans exceed op time by %v", lt.overflow))
	}
	if lt.wall[layerUnknown] != 0 {
		p = append(p, "spans of an unknown category")
	}
	return strings.Join(p, "; ")
}

// attributedMS is the summed self time of every layer plus the tracer's
// calibrated cost, in ms: the part of the ops' work time the spans account
// for.
func (lt *layerTable) attributedMS() float64 {
	sum := lt.traceCost
	for _, d := range lt.wall {
		sum += d
	}
	return ms(sum)
}

// report emits the per-op layer metrics over n traced ops.
func (lt *layerTable) report(set func(string, float64, string), n float64) {
	perOp := func(layer string) float64 { return ms(lt.wall[layer]) / n }
	vtPerOp := func(layer string) float64 { return float64(lt.vt[layer]) / float64(vclock.Millisecond) / n }
	callNS := 0.0
	if lt.facade > 0 {
		callNS = float64(lt.wall[layerFacade]) / float64(lt.facade)
	}
	set("glesapi.call_ns", callNS, "ns")
	set("diplomat.crossings", float64(lt.crossings)/n, "count")
	set("diplomat.self_ms", perOp(layerDiplomat), "ms")
	set("diplomat.vt_ms", vtPerOp(layerDiplomat), "vms")
	set("impersonate.sessions", float64(lt.sessions)/n, "count")
	set("impersonate.self_ms", perOp(layerImperson), "ms")
	set("impersonate.vt_ms", float64(lt.outerVT[layerImperson])/float64(vclock.Millisecond)/n, "vms")
	set("engine.state_ms", perOp(layerState), "ms")
	set("engine.draw_ms", perOp(layerDraw), "ms")
	set("engine.draw_vt_ms", vtPerOp(layerDraw), "vms")
	set("eglbridge.blit_ms", perOp(layerBlit), "ms")
	set("eglbridge.blit_vt_ms", vtPerOp(layerBlit), "vms")
	set("eglbridge.present_self_ms", perOp(layerPresent), "ms")
	set("eglbridge.egl_ms", perOp(layerEGL), "ms")
	set("kernel.syscall_ms", perOp(layerSyscall), "ms")
	set("linker.dlforce_ms", perOp(layerLinker), "ms")
	set("replay.self_ms", perOp(layerReplay), "ms")
	set("trace.cost_ms", ms(lt.traceCost)/n, "ms")
}

// shares returns each layer's share of the op time opMS less the tracer's
// cost (all per op): the shape of the work with the recording taken out.
func (lt *layerTable) shares(opMS, n, decodeMS, bootMS, otherMS float64) map[string]float64 {
	work := opMS - ms(lt.traceCost)/n
	sh := map[string]float64{
		"replay.decode": decodeMS / work,
		"system.boot":   bootMS / work,
		"other":         otherMS / work,
	}
	for layer, d := range lt.wall {
		sh[layer] = ms(d) / n / work
	}
	return sh
}

// spanCost is what the tracer costs per recorded span. inner is the part
// inside the span's own interval (an empty span's duration); outer is the
// rest, opening the span before its clock starts and appending it after the
// clock stops, which lands in the enclosing span or, for a top-level span,
// in no span at all.
type spanCost struct{ inner, outer time.Duration }

// Calibration: calibRounds rounds of calibSpans empty spans, about as many
// as one call-storm frame records, each round on an emptied tracer as after
// a per-op drain, so that growing the span buffer is part of the cost.
const (
	calibRounds = 15
	calibSpans  = 20000
)

// calibrate measures spanCost on a kernel thread of its own that records
// into tr, which must be enabled, and leaves tr empty. It starts on a
// collected heap and keeps the fastest round: the host and the collector
// only ever add to a round, and a cost set too high would take more from the
// self times than recording cost them, while one set too low leaves the
// rest in the layers. So it is a lower bound; the ops' spans, recorded
// among the work's own allocations and cache traffic, cost more.
func calibrate(tr *obs.Tracer) (spanCost, error) {
	k := kernel.New(kernel.Config{Tracer: tr, RasterWorkers: 1})
	p, err := k.NewProcess("calibrate", kernel.PersonaAndroid)
	if err != nil {
		return spanCost{}, err
	}
	t := p.NewThread("calibrate")
	runtime.GC()
	var best spanCost
	for r := 0; r < calibRounds; r++ {
		tr.Reset()
		start := time.Now()
		for i := 0; i < calibSpans; i++ {
			t.TraceEnd(t.TraceBegin(obs.CatSyscall, "calibrate"))
		}
		total := time.Since(start) / calibSpans
		var in time.Duration
		for _, ev := range tr.Events() {
			in += ev.WDur
		}
		in /= calibSpans
		if r == 0 || total < best.inner+best.outer {
			best = spanCost{inner: in, outer: max(total-in, 0)}
		}
	}
	if d := tr.Dropped(); d != 0 {
		return spanCost{}, fmt.Errorf("calibration dropped %d spans", d)
	}
	tr.Reset()
	return best, nil
}
