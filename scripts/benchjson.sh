#!/bin/sh
# Dump the raster, replay, batch, farm, and farm-resilience benchmark
# series as machine-readable JSON. `make bench-json` writes BENCH_9.json at
# the repo root; CI or a tracking dashboard can diff the series across
# commits. The resilience series (BenchmarkFarmResilience, verified replay
# sessions with a retry budget at 0%/5%/20% injected diplomat panics)
# records delivered sessions/sec and the P95 present latency of the
# sessions that succeeded — what self-healing costs under failure.
# GOMAXPROCS is recorded because the workers=N raster series and the
# devices=N farm series only show speedup on multi-core hosts — on a single
# core those series instead measure parallel overhead. The batch series
# (BenchmarkReplayBatch, batching off and caps 1/16/64/256 over the
# draw-call-heavy passmark-3d trace) records the persona-boundary crossing
# count alongside timing: the crossings column is the batched encoder's
# figure of merit and must fall as the cap rises.
#
# After writing the file, the series is diffed against the most recent
# previous BENCH_*.json via scripts/benchdiff at a ±15% threshold; the
# PASS/REGRESSED verdicts are warn-only (benchmark noise on shared runners
# makes a hard gate flaky).
#
# Usage: scripts/benchjson.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
out=${1:-BENCH_10.json}

raster=$(go test -run='^$' -bench='^BenchmarkRasterTiles$' -benchtime=3x -benchmem ./internal/sim/gpu)
replay=$(go test -run='^$' -bench='^BenchmarkReplay(Parallel)?$' -benchtime=1x -benchmem .)
batch=$(go test -run='^$' -bench='^BenchmarkReplayBatch$' -benchtime=3x -benchmem .)
farm=$(go test -run='^$' -bench='^BenchmarkFarm$' -benchtime=1x -benchmem ./internal/farm)
resil=$(go test -run='^$' -bench='^BenchmarkFarmResilience$' -benchtime=2x -benchmem ./internal/farm)

all=$(printf '%s\n%s\n%s\n%s\n%s\n' "$raster" "$replay" "$batch" "$farm" "$resil")

# Fail loudly when an invoked benchmark produced no rows — a renamed or
# deleted benchmark must break this script, not silently thin the series.
for want in BenchmarkRasterTiles BenchmarkReplay BenchmarkReplayParallel BenchmarkReplayBatch BenchmarkFarm BenchmarkFarmResilience; do
	if ! printf '%s\n' "$all" | grep -Eq "^${want}([/-]|[[:space:]]|\$)"; then
		echo "benchjson: no output rows for ${want} — was it renamed or removed?" >&2
		exit 1
	fi
done

procs=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

printf '%s\n' "$all" | awk -v goversion="$(go env GOVERSION)" -v procs="$procs" '
BEGIN {
	printf "{\n  \"schema\": \"cycada-bench/v1\",\n"
	printf "  \"go\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"benchmarks\": [", goversion, procs
	n = 0
}
$1 ~ /^Benchmark/ && $NF == "allocs/op" {
	# Fields after the iteration count come in value/unit pairs; benchmarks
	# may interleave custom ReportMetric units, so select by unit name.
	ns = bytes = allocs = "null"
	extra = ""
	for (i = 3; i < NF; i += 2) {
		if ($(i + 1) == "ns/op") ns = $i
		else if ($(i + 1) == "B/op") bytes = $i
		else if ($(i + 1) == "allocs/op") allocs = $i
		else if ($(i + 1) == "sessions/sec") extra = extra sprintf(", \"sessions_per_sec\": %s", $i)
		else if ($(i + 1) == "frame-p95-us") extra = extra sprintf(", \"frame_p95_us\": %s", $i)
		else if ($(i + 1) == "crossings") extra = extra sprintf(", \"crossings\": %s", $i)
		else if ($(i + 1) == "batched-calls") extra = extra sprintf(", \"batched_calls\": %s", $i)
	}
	if (n++) printf ","
	printf "\n    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}",
		$1, $2, ns, bytes, allocs, extra
}
END { printf "\n  ]\n}\n" }
' >"$out"

echo "wrote $out:"
cat "$out"

# Warn-only regression diff against the most recent previous series file.
prev=$(ls BENCH_*.json 2>/dev/null | grep -vx "$out" | sort -t_ -k2 -n | tail -1 || true)
if [ -n "$prev" ]; then
	echo ""
	go run ./scripts/benchdiff "$prev" "$out" || true
else
	echo "benchjson: no previous BENCH_*.json to diff against"
fi
