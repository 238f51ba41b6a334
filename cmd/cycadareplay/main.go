// Command cycadareplay records, replays, verifies, and load-tests traces of
// the cross-persona graphics command stream.
//
// Usage:
//
//	cycadareplay record -scenario passmark-2d -o trace.cytr
//	cycadareplay replay -i trace.cytr [-n 3] [-batch 64] [-faults seed=7,rate=0.05]
//	cycadareplay verify [-batch 64] trace.cytr [more.cytr ...]
//	cycadareplay load -i trace.cytr -n 4 -dur 10s [-batch 64] [-listen :9090]
//	cycadareplay stat -i trace.cytr [-top 15]
//
// record runs a workload (PassMark sections or a WebKit tile-upload sequence)
// on a freshly booted Cycada iOS configuration with the boundary taps
// attached, and writes the capture. replay re-drives a trace against a fresh
// Android stack with no iOS app code present. verify additionally checks
// per-present screen checksums and the final frame against the recorded
// values — the differential regression gate used on the golden traces in
// internal/replay/testdata. stat prints a per-call-kind histogram.
//
// With -batch N, replay, verify and load drive GLES events through the batched
// command encoder (runs of batchable calls cross the persona boundary in one
// impersonation window of at most N calls) instead of one crossing per call.
// The logical call stream — and therefore every differential check — is
// identical either way; 0 (the default) keeps the serial path.
//
// load drives sustained replay sessions on an N-device farm (internal/farm):
// N closed-loop clients each submit a session replaying the trace and wait
// for it, back-to-back for a wall-clock duration. It reports sustained
// sessions/sec plus rolling-window frame percentiles and retry/drop rates.
// Parallel replay throughput over a fixed session count is cycadafarm's job
// (cycadafarm -devices W -sessions N -trace T).
//
// With -listen (load and replay) an embedded telemetry server exposes
// /metrics (Prometheus text), /snapshot and /healthz (JSON), and /events
// (SSE incident stream) while the run executes.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cycada/internal/android/egl"
	"cycada/internal/core/system"
	"cycada/internal/farm"
	"cycada/internal/fault"
	"cycada/internal/harness"
	"cycada/internal/obs"
	"cycada/internal/obs/telemetry"
	"cycada/internal/replay"
	"cycada/internal/sim/vclock"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "cycadareplay: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cycadareplay:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  cycadareplay record -scenario <name> -o <file>   capture a workload (scenarios: %v)
  cycadareplay replay -i <file> [-n N] [-batch B] [-faults S]  re-drive a trace N times (with S, chaos mode: seed=7,rate=0.05,points=binder+egl_present)
  cycadareplay verify [-batch B] <file> [file ...] replay with differential frame checks
  cycadareplay load -i <file> [-n K] [-dur D] [-batch B] [-listen addr]  sustained load on a K-device farm with windowed stats
  (-batch B: encode GLES runs into boundary batches of <= B calls; 0 = serial)
  (-listen addr: serve /metrics /snapshot /healthz /events during the run)
  cycadareplay stat -i <file> [-top N]             per-call-kind histogram
`, harness.Scenarios())
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	scenario := fs.String("scenario", "passmark-2d", "workload to capture")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	tr, err := harness.RecordScenario(*scenario)
	if err != nil {
		return err
	}
	if err := replay.WriteFile(*out, tr); err != nil {
		return err
	}
	data, err := os.ReadFile(*out)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %q: %d events, %d presents, %d bytes -> %s\n",
		tr.Label, len(tr.Events), tr.Presents(), len(data), *out)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	n := fs.Int("n", 1, "number of replays")
	faults := fs.String("faults", "", "fault schedule, e.g. seed=7,rate=0.05,points=binder+egl_present (chaos mode)")
	batch := fs.Int("batch", 0, "batched-encoder cap per boundary crossing (0 = serial)")
	snapshot := fs.Bool("snapshot", false, "print a live-state introspection snapshot after the run")
	listen := fs.String("listen", "", "serve telemetry (/metrics /snapshot /healthz /events) on this address during the run")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("replay: -i is required")
	}
	if *listen != "" {
		srv, err := serveDefaultTelemetry(*listen)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	if *snapshot {
		obs.SetSnapshotSourcesEnabled(true)
		obs.DefaultHistograms.SetEnabled(true)
		defer func() { fmt.Print(obs.Snapshot().Text()) }()
	}
	tr, err := replay.ReadFile(*in)
	if err != nil {
		return err
	}
	if *faults != "" {
		sched, err := fault.ParseSpec(*faults)
		if err != nil {
			return err
		}
		failed := 0
		for i := 0; i < *n; i++ {
			s := sched
			s.Seed = sched.Seed + uint64(i)
			var res *replay.ChaosResult
			var err error
			if *batch > 0 {
				res, err = replay.ChaosBatched(tr, s, *batch)
			} else {
				res, err = replay.Chaos(tr, s)
			}
			if err != nil {
				return err
			}
			fmt.Println(res)
			if err := res.Check(); err != nil {
				fmt.Println(" ", err)
				// The failure report carries the flight recorder's recent
				// event tail and the live-state snapshot taken at violation.
				if res.Flight != nil {
					fmt.Print(res.Flight.String())
				}
				if res.Snapshot != nil {
					fmt.Print(res.Snapshot.Text())
				}
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d/%d chaos replays violated invariants", failed, *n)
		}
		return nil
	}
	for i := 0; i < *n; i++ {
		res, err := replay.Play(tr, replay.Options{BatchCap: *batch})
		if err != nil {
			return err
		}
		if *batch > 0 {
			fmt.Printf("replayed %q: %d events, %d presents, %d calls batched over %d crossings\n",
				tr.Label, res.Events, res.Presents, res.BatchedCalls, res.Crossings)
		} else {
			fmt.Printf("replayed %q: %d events, %d presents\n", tr.Label, res.Events, res.Presents)
		}
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	batch := fs.Int("batch", 0, "batched-encoder cap per boundary crossing (0 = serial)")
	fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("verify: no trace files given")
	}
	failed := 0
	for _, path := range files {
		tr, err := replay.ReadFile(path)
		if err != nil {
			return err
		}
		res, err := replay.Play(tr, replay.Options{Verify: true, BatchCap: *batch})
		if err == nil {
			err = res.VerifyError()
		}
		if err != nil {
			fmt.Printf("FAIL %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Printf("ok   %s: %d events, %d/%d present checksums match, final frame %08x matches\n",
			path, res.Events, res.Presents-len(res.Mismatches), res.Presents, res.FinalGot)
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d traces diverged", failed, len(files))
	}
	return nil
}

// serveDefaultTelemetry starts the exposition server over the process-wide
// default registries (what replay kernels record into) with a rotating 1s
// window set. load exports its farm's registries instead.
func serveDefaultTelemetry(addr string) (*telemetry.Server, error) {
	obs.DefaultHistograms.SetEnabled(true)
	win := obs.NewWindows(time.Second, 60)
	srv, err := telemetry.Serve(addr, telemetry.Options{Windows: win})
	if err != nil {
		return nil, err
	}
	telemetry.AttachDefaults(srv)
	win.Start()
	fmt.Printf("telemetry: listening on %s\n", srv.URL())
	return srv, nil
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	n := fs.Int("n", 4, "farm devices, each driven by one closed-loop client")
	dur := fs.Duration("dur", 10*time.Second, "wall-clock run length")
	batch := fs.Int("batch", 0, "batched-encoder cap per boundary crossing (0 = serial)")
	listen := fs.String("listen", "", "serve telemetry on this address during the run")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("load: -i is required")
	}
	tr, err := replay.ReadFile(*in)
	if err != nil {
		return err
	}

	f := farm.New(farm.Config{Devices: *n})
	defer f.Close()
	// A rotating window set over the farm's registries, so /metrics (and the
	// final report) carry current rolling percentiles and rates rather than
	// since-boot aggregates.
	win := obs.NewWindows(time.Second, 60)
	if *listen != "" {
		srv, err := telemetry.Serve(*listen, telemetry.Options{Windows: win})
		if err != nil {
			return err
		}
		defer srv.Close()
		telemetry.AttachFarm(srv, f)
		fmt.Printf("telemetry: listening on %s\n", srv.URL())
	} else {
		telemetry.TrackFarm(win, f)
	}
	win.Start()
	defer win.Stop()

	res, err := runLoad(f, tr, *dur, *batch)
	if err != nil {
		return err
	}

	fmt.Printf("load %q: %d sessions in %v across %d workers (%.1f sessions/sec sustained)\n",
		tr.Label, res.Sessions, res.Wall.Round(time.Millisecond), res.Workers, res.PerSec)
	fmt.Printf("frames: %d  p50=%.1fus p95=%.1fus p99=%.1fus max=%.1fus\n",
		res.Frames, res.FrameP50.Micros(), res.FrameP95.Micros(),
		res.FrameP99.Micros(), res.FrameMax.Micros())
	fmt.Printf("present health: retries=%d (%.2f/sec) drops=%d (%.2f/sec)\n",
		res.Retries, float64(res.Retries)/res.Wall.Seconds(),
		res.Drops, float64(res.Drops)/res.Wall.Seconds())

	// The rolling tail: what a live scrape would have answered just before
	// the run ended (capture the final partial interval first).
	win.Rotate()
	for _, span := range []time.Duration{10 * time.Second, 60 * time.Second} {
		if ws, ok := win.Hist(egl.PresentHistName, span); ok && ws.Count > 0 {
			fmt.Printf("window %3.0fs: frames=%d rate=%.1f/sec p50=%.1fus p95=%.1fus p99=%.1fus\n",
				span.Seconds(), ws.Count, ws.Rate(),
				ws.P50().Micros(), ws.P95().Micros(), ws.P99().Micros())
		}
		if ws, ok := win.Hist(farm.SessionRanHist, span); ok {
			fmt.Printf("window %3.0fs: sessions=%d (%.1f/sec)\n", span.Seconds(), ws.Count, ws.Rate())
		}
	}
	return nil
}

// loadResult summarizes a sustained-load run. Frame statistics and
// retry/drop totals are read from the farm devices' registries.
type loadResult struct {
	Workers  int
	Wall     time.Duration
	Sessions int64
	PerSec   float64 // sustained sessions/sec across all clients

	Frames   int64
	FrameP50 vclock.Duration
	FrameP95 vclock.Duration
	FrameP99 vclock.Duration
	FrameMax vclock.Duration

	Retries int64 // transient presents retried
	Drops   int64 // presents abandoned after retries
}

// runLoad drives sustained replay load on a freshly booted farm: one
// closed-loop client per device submits a session replaying tr and waits
// for its result, back-to-back, until dur elapses. The first failed session
// aborts the run.
func runLoad(f *farm.Farm, tr *replay.Trace, dur time.Duration, batch int) (*loadResult, error) {
	spec := farm.SessionSpec{Body: func(sys *system.Cycada) error {
		_, err := replay.Play(tr, replay.Options{BatchCap: batch, System: sys})
		return err
	}}
	var (
		sessions atomic.Int64
		failed   atomic.Bool
		runErr   error
		wg       sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(dur)
	for c := 0; c < f.Devices(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && time.Now().Before(end) {
				s, err := f.Submit(spec)
				if err == nil {
					err = s.Result().Err
				}
				if err != nil {
					if failed.CompareAndSwap(false, true) {
						runErr = fmt.Errorf("load client %d: %w", c, err)
					}
					return
				}
				sessions.Add(1)
			}
		}()
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	wall := time.Since(start)
	res := &loadResult{
		Workers:  f.Devices(),
		Wall:     wall,
		Sessions: sessions.Load(),
		PerSec:   float64(sessions.Load()) / wall.Seconds(),
	}
	hists := obs.NewHistograms()
	for i := 0; i < f.Devices(); i++ {
		d := f.Device(i)
		hists.Merge(d.Hists)
		res.Retries += d.Ctrs.Counter(egl.CtrPresentRetried).Load()
		res.Drops += d.Ctrs.Counter(egl.CtrPresentDropped).Load()
	}
	if h, ok := hists.Lookup(egl.PresentHistName); ok {
		res.Frames = h.Count()
		res.FrameP50 = h.P50()
		res.FrameP95 = h.P95()
		res.FrameP99 = h.P99()
		res.FrameMax = h.Max()
	}
	return res, nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	top := fs.Int("top", 15, "entry points to list")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("stat: -i is required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	tr, err := replay.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	fmt.Printf("%s: %d bytes encoded\n", *in, len(data))
	replay.Stat(tr).Write(os.Stdout, *top)
	return nil
}
