#!/bin/sh
# Tier-1 checks: the gate every change must pass before merging.
# Run directly or via `make check`.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./internal/core/... ./internal/replay/... ./internal/android/egl ./internal/android/sflinger ./internal/sim/gpu ./internal/farm ./internal/obs/..."
go test -race ./internal/core/... ./internal/replay/... ./internal/android/egl ./internal/android/sflinger ./internal/sim/gpu ./internal/farm ./internal/obs/...

echo "== chaos smoke (fault-injection invariants under -race, serial and batched)"
go test -race ./internal/replay -run 'TestChaos' -chaos.seeds=8

echo "== farm soak (multi-device session scheduler under -race)"
go test -race ./internal/farm -run 'TestFarmSoak' -soak.devices=2 -soak.sessions=8

echo "== farm chaos (self-healing invariants under -race: watchdog, quarantine, failover)"
go test -race ./internal/farm -run 'TestFarmChaos|TestFarmFailoverVerifiesIdentically' -chaosfarm.seeds=2

echo "== replay golden traces (serial)"
go run ./cmd/cycadareplay verify internal/replay/testdata/*.cytr

echo "== replay golden traces (batched encoder, caps 1/16/64/256)"
# Byte-identity is the batched encoder's correctness contract: the same
# checksums and final frame must come out no matter how calls are grouped
# into impersonation windows.
for cap in 1 16 64 256; do
	go run ./cmd/cycadareplay verify -batch "$cap" internal/replay/testdata/*.cytr
done

echo "== batched chaos smoke (faults injected mid-batch via cycadareplay)"
go run ./cmd/cycadareplay replay -i internal/replay/testdata/passmark-3d.cytr \
	-batch 16 -n 4 -faults seed=7,rate=0.05 >/dev/null

echo "== farm smoke (2 devices x 8 sessions, per-session checksums vs recordings)"
go run ./cmd/cycadafarm -devices 2 -sessions 8 -trace internal/replay/testdata/passmark-2d.cytr -verify

echo "== fuzz smoke (MiniSL: arbitrary shader source through compile, link and one run of each stage)"
# Shader text is untrusted input: it must fail with an error, never a panic
# or a hang. Minimization is capped at 100 runs per input: the default 60s
# minimizer is what makes a short fuzz run look stalled at 0 execs/sec.
go test -run='^$' -fuzz='^FuzzCompile$' -fuzztime=10s -fuzzminimizetime=100x ./internal/sim/gpu/minisl

echo "== fuzz smoke (CYTR: arbitrary trace files through decode and an encode/decode round trip)"
# Trace files are untrusted input too: Decode must return an error, never
# panic or allocate what the file cannot back, and whatever it accepts must
# survive encode -> decode -> encode unchanged.
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=10s -fuzzminimizetime=100x ./internal/replay

echo "== fuzz smoke (fault specs: arbitrary -faults text through ParseSpec and a String round trip)"
# Fault specs come from the command line: ParseSpec must return an error,
# never panic, and every schedule it accepts must parse back from String.
go test -run='^$' -fuzz='^FuzzParseSpec$' -fuzztime=10s -fuzzminimizetime=100x ./internal/fault

echo "== fuzz smoke (Prometheus text: arbitrary documents through ParseText)"
# cycadatop -connect parses remote /metrics: malformed text must come back
# as an error, never a panic.
go test -run='^$' -fuzz='^FuzzParseText$' -fuzztime=10s -fuzzminimizetime=100x ./internal/obs/telemetry

echo "== bench smoke (diplomat hot path)"
go test -run='^$' -bench='BenchmarkDiplomatCall' -benchtime=100x .

echo "== bench smoke (tiled rasterizer, 1..8 workers)"
go test -run='^$' -bench='BenchmarkRasterTiles' -benchtime=1x ./internal/sim/gpu

echo "== obs overhead gate (fully-disabled observability within 3% of baseline)"
# The always-compiled-in observability layer (tracer + flight recorder +
# frame-health histograms) must cost nothing when off: the fully-disabled
# diplomat call may be at most 3% slower than the hot-path baseline. Three
# attempts absorb scheduler noise; any passing attempt is a pass.
obs_gate_ok=0
for attempt in 1 2 3; do
	base=$(go test -run='^$' -bench='^BenchmarkDiplomatCall$' -benchtime=200000x . |
		awk '$NF == "ns/op" { print $(NF-1) }')
	off=$(go test -run='^$' -bench='^BenchmarkObsOverhead$/^flight-hist-disabled$' -benchtime=200000x . |
		awk '$NF == "ns/op" { print $(NF-1) }')
	echo "   attempt $attempt: baseline ${base} ns/op, fully disabled ${off} ns/op"
	if [ -n "$base" ] && [ -n "$off" ] &&
		awk -v b="$base" -v o="$off" 'BEGIN { exit !(o <= b * 1.03) }'; then
		obs_gate_ok=1
		break
	fi
done
if [ "$obs_gate_ok" != 1 ]; then
	echo "obs overhead gate failed: fully-disabled path more than 3% over baseline" >&2
	exit 1
fi

echo "== telemetry smoke (load generator with -listen: /metrics, /healthz, /snapshot)"
# Boot the sustained-load generator (closed-loop clients on a 2-device farm)
# with an embedded telemetry server on an ephemeral port, scrape /metrics
# while it runs and validate the exposition with the Prometheus-text parser,
# then pipe the JSON endpoints through jsoncheck. The load must outlive the scrapes, hence the generous -dur.
tmplog=$(mktemp)
go run ./cmd/cycadareplay load -i internal/replay/testdata/passmark-2d.cytr \
	-n 2 -dur 12s -listen 127.0.0.1:0 >"$tmplog" 2>&1 &
loadpid=$!
url=""
for i in $(seq 1 60); do
	url=$(awk '/^telemetry: listening on / { print $4; exit }' "$tmplog")
	[ -n "$url" ] && break
	sleep 0.25
done
if [ -z "$url" ]; then
	echo "telemetry smoke failed: server address never printed" >&2
	cat "$tmplog" >&2
	kill "$loadpid" 2>/dev/null || true
	exit 1
fi
go run ./scripts/promcheck "$url/metrics" >/dev/null
go run ./scripts/promcheck -raw "$url/healthz" | go run ./scripts/jsoncheck.go
go run ./scripts/promcheck -raw "$url/snapshot" | go run ./scripts/jsoncheck.go
if ! wait "$loadpid"; then
	echo "telemetry smoke failed: load generator exited non-zero" >&2
	cat "$tmplog" >&2
	exit 1
fi
if ! grep -q "sustained" "$tmplog"; then
	echo "telemetry smoke failed: load summary missing" >&2
	cat "$tmplog" >&2
	exit 1
fi
rm -f "$tmplog"

echo "== cycadatop smoke (live introspection snapshot)"
top=$(go run ./cmd/cycadatop)
for section in "== impersonation/tracedemo" "== egl/tracedemo" "== dlr/tracedemo" \
	"== histograms" "== flight-recorder" "== tracer"; do
	if ! printf '%s\n' "$top" | grep -q "^$section"; then
		echo "cycadatop smoke failed: missing section \"$section\"" >&2
		printf '%s\n' "$top" >&2
		exit 1
	fi
done
go run ./cmd/cycadatop -json | go run ./scripts/jsoncheck.go

echo "== cycadatop -farm smoke (scheduler snapshot section)"
farmtop=$(go run ./cmd/cycadatop -farm -devices 2 -sessions 2)
for key in "== farm" "queue-depth" "state=" "device\[0\]" "device\[1\]"; do
	if ! printf '%s\n' "$farmtop" | grep -q "$key"; then
		echo "cycadatop -farm smoke failed: missing \"$key\"" >&2
		printf '%s\n' "$farmtop" >&2
		exit 1
	fi
done

echo "tier-1 checks passed"
