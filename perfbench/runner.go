package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"cycada/internal/obs"
	"cycada/internal/sim/vclock"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Traced   bool
	Corpus   string // directory holding the golden CYTR traces
	Setups   int
	// MinOps is the fewest ops the untraced run measures.
	MinOps int
}

// hardStop ends a run's phases whatever they have measured, so the process
// always exits well within three minutes.
const hardStop = 150 * time.Second

// metric is one named value in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run reports.
type outcome struct {
	Attempted int
	Failed    int
	// TraceOK is false when the traced run lost spans or its self times did
	// not fit inside the op times (README.md, "Per-layer metrics").
	TraceOK bool
	Metrics map[string]metric
	// Shares is each layer's share of the traced op time (traced runs).
	Shares map[string]float64
	// SpanCost is the tracer's calibrated cost per span (traced runs).
	SpanCost spanCost
	// StealFrac is the host's stolen share of CPU time after set-up.
	StealFrac float64
}

func (o *outcome) failRatio() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// opResult is what one op reports back to the loop.
type opResult struct {
	err error
	// queue is the wait from issue to start of work and work the time from
	// start to finish: the farm's Result.Queued and Result.Ran. Workloads
	// without a scheduler leave queue zero, and the loop sets it to the
	// latency the work leaves (teardown and the loop itself).
	queue, work time.Duration
	// decode and boot are the parts of work spent in replay.Decode and
	// system.New, timed by the benchmark (golden-replay only).
	decode, boot time.Duration
	decodes      int
	boots        int
}

// workload is one seeded workload, set up and ready to run ops.
type workload interface {
	// clients is the closed loop's number of clients.
	clients() int
	// roundLen is the length of the seeded schedule's round; a phase always
	// ends on a round boundary, so per-op virtual time and counts are means
	// over whole rounds and repeat exactly at one seed.
	roundLen() int
	// op runs op i of the schedule and checks its output.
	op(i int) opResult
	// totals returns the virtual time and syscalls the workload's stacks
	// have accumulated so far. It is read only while no op is running.
	totals() (vclock.Duration, int64)
	// setupTimes reports the decode and boot calls the last set-up made.
	setupTimes() (decode, boot time.Duration, decodes, boots int)
	close()
}

// newWorkload sets up the named workload. Spans go to tr, which stays
// disabled until a traced phase.
func newWorkload(cfg runConfig, tr *obs.Tracer) (workload, error) {
	switch cfg.Workload {
	case "golden-replay":
		return newGolden(cfg, tr)
	case "call-storm":
		return newCallStorm(cfg, tr)
	case "farm-mix":
		return newFarmMix(cfg, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want golden-replay, call-storm or farm-mix)", cfg.Workload)
	}
}

// run sets the workload up cfg.Setups times and measures the last set-up.
// A set-up ends with a verified first round (reference checksums), which
// also fills the caches before anything is timed. setup_s is the median
// CPU time of the set-ups.
func run(cfg runConfig) (*outcome, error) {
	if cfg.Setups < 1 {
		cfg.Setups = 1
	}
	tr := obs.New()
	var (
		w      workload
		setups []float64
	)
	for i := 0; i < cfg.Setups; i++ {
		if w != nil {
			w.close()
		}
		// Every set-up starts on a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		start := cpuNow()
		var err error
		w, err = newWorkload(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuNow() - start).Seconds())
	}
	defer w.close()
	started := time.Now()

	out := &outcome{TraceOK: true, Metrics: map[string]metric{}}
	steal0, total0 := cpuTicks()
	defer func() {
		steal1, total1 := cpuTicks()
		if total1 > total0 {
			out.StealFrac = (steal1 - steal0) / (total1 - total0)
		}
	}()
	lp := &loop{w: w, started: started}

	if !cfg.Traced {
		ph := lp.phase(cfg.Duration, max(cfg.MinOps, w.roundLen()))
		out.Attempted += ph.attempted
		out.Failed += ph.failed
		endToEnd(out, ph, median(setups))
		return out, nil
	}

	// Traced run: an untraced half for the overhead baseline, the farm and
	// GC figures, then a traced half for the per-layer table.
	base := lp.phase(cfg.Duration/2, w.roundLen())
	tr.SetEventCap(1 << 20)
	tr.SetEnabled(true)
	cost, err := calibrate(tr)
	if err != nil {
		return nil, fmt.Errorf("calibrating the tracer: %w", err)
	}
	lp.tr, lp.cost = tr, cost
	traced := lp.phase(cfg.Duration/2, w.roundLen())
	tr.SetEnabled(false)
	out.Attempted += base.attempted + traced.attempted
	out.Failed += base.failed + traced.failed
	out.SpanCost = cost
	perLayer(out, w, base, traced)
	return out, nil
}

// phaseStats is what one measured phase collected.
type phaseStats struct {
	attempted, failed int
	wall              time.Duration
	latency           []time.Duration // per op, issue to completion
	opCPU             []time.Duration // per op, its share of the process CPU
	cpu               time.Duration   // process CPU over the phase
	queue, work       []time.Duration
	allocBytes        uint64
	rssMB             float64 // 95th percentile of the sampled resident set
	vt                vclock.Duration
	syscalls          int64
	gcCPU, totalCPU   float64
	decode, boot      time.Duration
	decodes, boots    int
	layers            *layerTable // traced phases only
}

// loop drives the closed loop over phases that share one schedule.
type loop struct {
	w       workload
	tr      *obs.Tracer // non-nil while tracing
	cost    spanCost    // the tracer's calibrated cost per span
	next    int         // next op index of the schedule
	started time.Time
}

// phase runs ops for at least d and at least min ops, ending on a round
// boundary.
func (lp *loop) phase(d time.Duration, min int) *phaseStats {
	w := lp.w
	ps := &phaseStats{}
	if lp.tr != nil {
		ps.layers = newLayerTable(lp.cost)
	}
	vt0, sc0 := w.totals()
	cpu0 := readCPU()
	proc0 := cpuNow()
	shares := newCPUShares()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss := startRSS()

	var mu sync.Mutex
	first := lp.next
	start := time.Now()
	deadline := start.Add(d)
	// take hands out the next op index, or false once the phase is over.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		done := lp.next-first >= min && !time.Now().Before(deadline)
		if time.Since(lp.started) > hardStop {
			done = true
		}
		if done && (lp.next-first)%w.roundLen() == 0 {
			return 0, false
		}
		i := lp.next
		lp.next++
		return i, true
	}
	record := func(i int, lat, cpu time.Duration, r opResult) {
		mu.Lock()
		defer mu.Unlock()
		ps.attempted++
		if r.err != nil {
			ps.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, r.err)
		}
		ps.latency = append(ps.latency, lat)
		ps.opCPU = append(ps.opCPU, cpu)
		if r.queue == 0 {
			r.queue = lat - r.work
		}
		ps.queue = append(ps.queue, r.queue)
		ps.work = append(ps.work, r.work)
		ps.decode += r.decode
		ps.boot += r.boot
		ps.decodes += r.decodes
		ps.boots += r.boots
	}
	// The tracer is drained after every op while one client runs. Concurrent
	// clients keep recording, and a drain would lose the spans they record
	// while it copies and empties the tracer, so with several clients the
	// tracer is drained once, after the phase; its raised cap holds a
	// phase's spans, and the drain reports any it dropped.
	perOp := lp.tr != nil && w.clients() == 1
	client := func() bool {
		i, ok := take()
		if !ok {
			return false
		}
		t0 := time.Now()
		shares.begin(i)
		r := w.op(i)
		cpu := shares.end(i)
		record(i, time.Since(t0), cpu, r)
		if perOp {
			ps.layers.drain(lp.tr, r.work)
		}
		return true
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for client() {
			}
		}()
	}
	wg.Wait()
	if lp.tr != nil && !perOp {
		ps.layers.drain(lp.tr, total(ps.work))
	}
	ps.wall = time.Since(start)
	ps.cpu = cpuNow() - proc0
	ps.rssMB = rss.p95()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ps.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	cpu1 := readCPU()
	ps.gcCPU = cpu1.gc - cpu0.gc
	ps.totalCPU = cpu1.total - cpu0.total
	vt1, sc1 := w.totals()
	ps.vt = vt1 - vt0
	ps.syscalls = sc1 - sc0
	return ps
}

type cpuTimes struct{ gc, total float64 }

// readCPU samples the runtime's cumulative GC and total CPU estimates.
func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuTimes
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// endToEnd fills the untraced run's metrics. Its times are CPU times: on a
// shared host the hypervisor takes CPU away from the process for stretches
// of milliseconds, which moves wall time by tens of percent between runs
// but is not counted in CPU time (README.md, "Steadiness"). The wall-clock
// figures are in the traced run's table.
func endToEnd(out *outcome, ps *phaseStats, setup float64) {
	n := float64(len(ps.latency))
	ok := float64(ps.attempted - ps.failed)
	set := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }
	set("setup_s", setup, "s")
	set("cpu_ms_per_op", ms(ps.cpu)/ok, "ms")
	set("op_cpu_ms_p50", ms(quantile(ps.opCPU, 0.50)), "ms")
	set("op_cpu_ms_p90", ms(quantile(ps.opCPU, 0.90)), "ms")
	set("alloc_mb_per_op", float64(ps.allocBytes)/1e6/n, "MB")
	set("rss_peak_mb", ps.rssMB, "MB")
	set("vt_ms_per_op", float64(ps.vt)/float64(vclock.Millisecond)/n, "vms")
}

// perLayer fills the traced run's metrics: wall-clock, farm and GC figures
// from the untraced half, the layer table from the traced half.
func perLayer(out *outcome, w workload, base, traced *phaseStats) {
	set := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }
	lt := traced.layers
	out.TraceOK = lt.ok()
	if !out.TraceOK {
		fmt.Fprintf(os.Stderr, "perfbench: trace check failed: %s\n", lt.problem())
	}
	n := float64(len(traced.work))

	// Decode and boot are timed by the benchmark: per call, in the traced
	// ops when the workload makes them there, otherwise in its set-up.
	dec, boot, decs, boots := traced.decode, traced.boot, traced.decodes, traced.boots
	sdec, sboot, sdecs, sboots := w.setupTimes()
	if decs == 0 {
		dec, decs = sdec, sdecs
	}
	if boots == 0 {
		boot, boots = sboot, sboots
	}
	set("replay.decode_ms", ms(dec)/float64(max(decs, 1)), "ms")
	set("system.boot_ms", ms(boot)/float64(max(boots, 1)), "ms")

	lt.report(set, n)
	set("kernel.syscalls", float64(traced.syscalls)/n, "count")
	// other_ms: op work time neither a layer nor the tracer's calibrated
	// cost accounts for.
	work := total(traced.work)
	other := ms(work-traced.decode-traced.boot)/n - lt.attributedMS()/n
	set("other_ms", other, "ms")
	out.Shares = lt.shares(ms(work)/n, n, ms(traced.decode)/n, ms(traced.boot)/n, other)
	if other < -0.01*ms(work)/n {
		out.TraceOK = false
		fmt.Fprintf(os.Stderr, "perfbench: trace check failed: layer self times exceed op time by %.3f ms per op\n", -other)
	}

	set("wall.ops_per_s", float64(base.attempted-base.failed)/base.wall.Seconds(), "1/s")
	set("wall.op_ms_p50", ms(quantile(base.latency, 0.50)), "ms")
	set("wall.op_ms_p90", ms(quantile(base.latency, 0.90)), "ms")
	set("farm.queue_ms_p50", ms(quantile(base.queue, 0.5)), "ms")
	set("farm.run_ms_p50", ms(quantile(base.work, 0.5)), "ms")
	set("farm.busy_frac", total(base.work).Seconds()/(base.wall.Seconds()*float64(w.clients())), "ratio")
	gc := 0.0
	if base.totalCPU > 0 {
		gc = base.gcCPU / base.totalCPU
	}
	set("runtime.gc_cpu_frac", gc, "ratio")
	set("trace.overhead_frac", ms(quantile(traced.work, 0.5))/ms(quantile(base.work, 0.5))-1, "ratio")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// quantile returns the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuShares shares the process's CPU time out among the ops that run while
// it is spent. With one client an op's share is the process CPU from its
// start to its end (its own thread, the rasterizer's workers and the
// collector); with several clients each stretch of CPU between two op
// starts or ends is split evenly among the ops running in it.
type cpuShares struct {
	mu      sync.Mutex
	now     func() time.Duration // the process CPU clock
	last    time.Duration
	running map[int]time.Duration
}

func newCPUShares() *cpuShares {
	return &cpuShares{now: cpuNow, running: map[int]time.Duration{}}
}

// advance gives the CPU spent since the last event to the running ops.
func (c *cpuShares) advance() {
	now := c.now()
	if k := len(c.running); k > 0 {
		each := (now - c.last) / time.Duration(k)
		for i := range c.running {
			c.running[i] += each
		}
	}
	c.last = now
}

func (c *cpuShares) begin(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance()
	c.running[i] = 0
}

// end returns op i's share of the CPU.
func (c *cpuShares) end(i int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance()
	d := c.running[i]
	delete(c.running, i)
	return d
}
