// Command perfbench is the repository's benchmark. It runs one of three
// seeded closed-loop workloads against the simulated Cycada stack, checks the
// output of every operation, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up and per-op CPU
// time, host memory and the virtual-time cost model). With -trace 1 the run
// is split into an untraced half and a traced half; the untraced half gives
// the wall-clock figures, and the traced half turns on an obs.Tracer and
// reports the per-layer table (self time per op, wall and virtual, plus
// counts) and the tracing overhead. See README.md for the
// workloads, the metrics and which end-to-end metric each layer should move.
//
// Usage (from the repository root; run.py builds and runs this command):
//
//	perfbench -workload golden-replay -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// minOps is the fewest ops an untraced run measures, so that op_cpu_ms_p90
// has at least ten samples beyond it; setups is how many times a run sets
// its workload up, setup_s being their median.
const (
	minOps = 100
	setups = 5
)

// defaultSeed is the seed the benchmark was tuned on. README.md names the
// held-out seed kept aside for confirming a claimed change.
const defaultSeed = 1

func main() {
	var (
		name    = flag.String("workload", "", "workload: golden-replay, call-storm or farm-mix")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 30, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = report the per-layer table from a traced run")
		root    = flag.String("root", ".", "repository root (holds internal/replay/testdata)")
	)
	flag.Parse()
	cfg := runConfig{
		Workload: *name,
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Traced:   *trace == 1,
		Corpus:   filepath.Join(*root, "internal", "replay", "testdata"),
		Setups:   setups,
		MinOps:   minOps,
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	out, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(os.Stdout, cfg, out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printResult writes the host facts, a readable metric table and, last, the
// result object.
func printResult(w *os.File, cfg runConfig, out *outcome) {
	host, _ := json.Marshal(hostFacts(cfg.Seed, out.StealFrac))
	fmt.Fprintf(w, "host %s\n", host)
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed (fail_ratio %.4f)\n",
		cfg.Workload, out.Attempted, out.Failed, out.failRatio())
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "  %-26s %14.6f %s\n", n, m.Value, m.Unit)
	}
	if cfg.Traced {
		fmt.Fprintf(w, "  tracer cost per span: %d ns inside it, %d ns outside it\n",
			out.SpanCost.inner.Nanoseconds(), out.SpanCost.outer.Nanoseconds())
	}
	layers := make([]string, 0, len(out.Shares))
	for l := range out.Shares {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "  share %-20s %6.2f%%\n", l, 100*out.Shares[l])
	}
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Failed == 0 && out.TraceOK, out.Attempted, out.Failed, out.Metrics})
	fmt.Fprintf(w, "%s\n", res)
}
