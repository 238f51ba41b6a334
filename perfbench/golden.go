package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cycada/internal/core/system"
	"cycada/internal/obs"
	"cycada/internal/replay"
	"cycada/internal/sim/vclock"
)

// goldenTraces are the checked-in golden CYTR traces, the byte-identity
// contract of ROADMAP.md.
var goldenTraces = []string{"passmark-2d", "passmark-3d", "webkit-tiles"}

// corpus is the golden traces, read and decoded once per set-up.
type corpus struct {
	data   [][]byte
	traces []*replay.Trace
	decode time.Duration // summed replay.Decode time
}

func loadCorpus(dir string) (*corpus, error) {
	c := &corpus{}
	for _, name := range goldenTraces {
		data, err := os.ReadFile(filepath.Join(dir, name+".cytr"))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tr, err := replay.Decode(data)
		c.decode += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		c.data = append(c.data, data)
		c.traces = append(c.traces, tr)
	}
	return c, nil
}

// schedule is the seeded round-robin order of the golden traces: round r is
// a seeded permutation of all of them, so every round replays each trace
// once and only the order depends on the seed.
type schedule struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rounds [][]int
}

func newSchedule(seed int64) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed))}
}

// trace returns the index of the trace op i replays.
func (s *schedule) trace(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := i / len(goldenTraces)
	for len(s.rounds) <= r {
		s.rounds = append(s.rounds, s.rng.Perm(len(goldenTraces)))
	}
	return s.rounds[r][i%len(goldenTraces)]
}

// golden is the golden-replay workload: one client; each op decodes one
// golden trace, boots a fresh stack and replays the trace onto it with
// verification.
type golden struct {
	tr       *obs.Tracer
	corpus   *corpus
	sched    *schedule
	vt       atomic.Int64
	syscalls atomic.Int64
}

func newGolden(cfg runConfig, tr *obs.Tracer) (workload, error) {
	c, err := loadCorpus(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	g := &golden{tr: tr, corpus: c, sched: newSchedule(cfg.Seed)}
	// Reference check: every trace replays and verifies once on a fresh
	// stack before anything is measured.
	for k := range goldenTraces {
		if r := g.op(k); r.err != nil {
			return nil, fmt.Errorf("reference replay: %w", r.err)
		}
	}
	g.vt.Store(0)
	g.syscalls.Store(0)
	return g, nil
}

func (g *golden) clients() int  { return 1 }
func (g *golden) roundLen() int { return len(goldenTraces) }
func (g *golden) close()        {}

func (g *golden) totals() (vclock.Duration, int64) {
	return vclock.Duration(g.vt.Load()), g.syscalls.Load()
}

func (g *golden) setupTimes() (time.Duration, time.Duration, int, int) {
	return g.corpus.decode, 0, len(goldenTraces), 0
}

func (g *golden) op(i int) opResult {
	k := g.sched.trace(i)
	r := opResult{decodes: 1}
	start := time.Now()
	tr, err := replay.Decode(g.corpus.data[k])
	r.decode = time.Since(start)
	if err != nil {
		r.err = fmt.Errorf("%s: decode: %w", goldenTraces[k], err)
		r.work = time.Since(start)
		return r
	}
	bootStart := time.Now()
	sys := system.New(system.Config{ScreenW: tr.ScreenW, ScreenH: tr.ScreenH, Tracer: g.tr})
	r.boot, r.boots = time.Since(bootStart), 1
	defer sys.Close()
	// Boot is timed whole as system.boot_ms; its spans would count twice.
	pause := time.Now()
	discardSpans(g.tr)
	start = start.Add(time.Since(pause))

	res, err := replay.Play(tr, replay.Options{Verify: true, Tracer: g.tr, System: sys})
	r.work = time.Since(start)
	kern := sys.Android.Kernel
	g.vt.Add(int64(kern.Clock().Now()))
	g.syscalls.Add(kern.SyscallCount())
	switch {
	case err != nil:
		r.err = fmt.Errorf("%s: %w", goldenTraces[k], err)
	case !res.VerifyOK():
		r.err = fmt.Errorf("%s: %w", goldenTraces[k], res.VerifyError())
	}
	return r
}

// discardSpans drops the spans recorded so far, keeping any drop count for
// the trace check.
func discardSpans(tr *obs.Tracer) {
	if !tr.Enabled() || tr.Dropped() != 0 {
		return
	}
	tr.Reset()
}
