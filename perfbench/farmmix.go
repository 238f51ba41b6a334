package main

import (
	"fmt"
	"runtime"
	"time"

	"cycada/internal/farm"
	"cycada/internal/obs"
	"cycada/internal/sim/vclock"
)

// sessionDeadline bounds one farm session; a session past it fails as a
// timeout. Golden sessions take well under a second.
const sessionDeadline = 30 * time.Second

// farmMix is the farm-mix workload: a farm of one device per CPU booted at
// set-up, and as many closed-loop clients, each submitting verified replay
// sessions of the golden traces in the seeded round-robin order. Sessions
// run on booted stacks that Flinger.Reset recycles, concurrently.
type farmMix struct {
	f      *farm.Farm
	corpus *corpus
	sched  *schedule
	boot   time.Duration
}

func newFarmMix(cfg runConfig, tr *obs.Tracer) (workload, error) {
	c, err := loadCorpus(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	fm := &farmMix{corpus: c, sched: newSchedule(cfg.Seed)}
	start := time.Now()
	fm.f = farm.New(farm.Config{
		Devices:         runtime.NumCPU(),
		Tracer:          tr,
		Label:           "perfbench",
		SessionDeadline: sessionDeadline,
	})
	fm.boot = time.Since(start)
	// Reference check: every trace replays and verifies once on the farm
	// before anything is measured.
	var sessions []*farm.Session
	for k, name := range goldenTraces {
		s, err := fm.f.Submit(farm.SessionSpec{Name: "reference-" + name, Trace: c.traces[k], Verify: true})
		if err != nil {
			fm.close()
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		sessions = append(sessions, s)
	}
	for _, s := range sessions {
		if res := s.Result(); res.Err != nil || res.Replay == nil || !res.Replay.VerifyOK() {
			fm.close()
			return nil, fmt.Errorf("reference %s: not verified: %v", s.Spec().Name, res.Err)
		}
	}
	return fm, nil
}

func (fm *farmMix) clients() int  { return fm.f.Devices() }
func (fm *farmMix) roundLen() int { return len(goldenTraces) }
func (fm *farmMix) close()        { fm.f.Close() }

func (fm *farmMix) totals() (vclock.Duration, int64) {
	var vt vclock.Duration
	var sc int64
	for i := 0; i < fm.f.Devices(); i++ {
		k := fm.f.Device(i).System().Android.Kernel
		vt += k.Clock().Now()
		sc += k.SyscallCount()
	}
	return vt, sc
}

func (fm *farmMix) setupTimes() (time.Duration, time.Duration, int, int) {
	return fm.corpus.decode, fm.boot, len(goldenTraces), fm.f.Devices()
}

func (fm *farmMix) op(i int) opResult {
	k := fm.sched.trace(i)
	name := goldenTraces[k]
	s, err := fm.f.Submit(farm.SessionSpec{
		Name:   fmt.Sprintf("%s-%d", name, i),
		Trace:  fm.corpus.traces[k],
		Verify: true,
	})
	if err != nil {
		return opResult{err: fmt.Errorf("%s: rejected: %w", name, err)}
	}
	res := s.Result()
	r := opResult{queue: res.Queued, work: res.Ran}
	switch {
	case res.Err != nil:
		r.err = fmt.Errorf("%s on device %d: %s: %w", name, res.Device, res.ErrKind(), res.Err)
	case res.Replay == nil || !res.Replay.VerifyOK():
		r.err = fmt.Errorf("%s on device %d: not verified", name, res.Device)
	}
	return r
}
