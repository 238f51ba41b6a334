.PHONY: check test bench bench-smoke bench-json profile trace replay-golden chaos top farm farm-soak farm-chaos load

# Tier-1 gate: gofmt, vet, build, full test suite, race tests on the
# concurrency-heavy core and replay packages, golden-trace verification,
# the obs overhead gate (fully-disabled observability within 3% of the
# diplomat hot-path baseline) and the cycadatop snapshot smoke test.
check:
	./scripts/check.sh

# Differential verification of the checked-in golden traces: each must replay
# to byte-identical per-present checksums and final frame.
replay-golden:
	go run ./cmd/cycadareplay verify internal/replay/testdata/*.cytr

test:
	go test ./...

bench:
	go test -bench=. -benchmem ./...

# Quick compile-and-run sanity check of the diplomat hot-path benchmarks
# (BenchmarkDiplomatCall, BenchmarkDiplomatCallAllocs); also run by check.sh.
bench-smoke:
	go test -run='^$$' -bench='BenchmarkDiplomatCall' -benchtime=100x .

# CPU and allocation profiles of BenchmarkReplayGolden (the benchmark's
# golden-replay op: all three golden traces in turn, a fresh stack per op,
# Verify on) in profiles/, which git ignores, followed by the top 10 of
# each. Dig further with `go tool pprof profiles/cycada.test profiles/cpu.out`.
profile:
	mkdir -p profiles
	go test -run='^$$' -bench='^BenchmarkReplayGolden$$' -benchtime=60x -benchmem \
		-o profiles/cycada.test -cpuprofile profiles/cpu.out -memprofile profiles/mem.out .
	go tool pprof -top -nodecount=10 profiles/cycada.test profiles/cpu.out
	go tool pprof -top -nodecount=10 -sample_index=alloc_space profiles/cycada.test profiles/mem.out

# Machine-readable benchmark dump: the tiled-rasterizer worker series
# (BenchmarkRasterTiles/workers=1..8), the replay benchmarks, the batched
# boundary-crossing series (BenchmarkReplayBatch, off + caps 1/16/64/256
# with crossings and batched-call counts), and the farm throughput grid
# (BenchmarkFarm/d{N}s{M}), plus the farm resilience series
# (BenchmarkFarmResilience/fail{0,5,20}, throughput and frame P95 under
# injected failure with retries), written to BENCH_10.json with the host
# core count so scaling numbers are interpretable. The series is then diffed against the most
# recent previous BENCH_*.json (warn-only, ±15%).
bench-json:
	./scripts/benchjson.sh BENCH_10.json

# Long chaos soak: golden traces under many generated fault schedules, with
# the recovery invariants checked for every seed. Tier-1 runs 8 seeds (see
# check.sh); override with SEEDS=N for longer runs.
SEEDS ?= 64
chaos:
	go test -race ./internal/replay -run 'TestChaos' -chaos.seeds=$(SEEDS) -v

# Chrome trace_event demo: open trace.json in chrome://tracing or Perfetto.
trace:
	go run ./cmd/cycadabench -trace trace.json

# Live-state introspection snapshot: boots the Cycada iOS configuration,
# drives a short cross-persona workload and prints what the system is doing
# (sessions, replicas, surface health, frame histograms, flight recorder).
top:
	go run ./cmd/cycadatop

# Multi-device farm demo: 2 device stacks, 8 verified trace-replay sessions
# through the admission-controlled scheduler, per-session frame health.
farm:
	go run ./cmd/cycadafarm -devices 2 -sessions 8 \
		-trace internal/replay/testdata/passmark-2d.cytr -verify

# Sustained-load demo with live telemetry: 4 closed-loop clients on a
# 4-device farm replaying the PassMark 2D golden trace for 15s, with
# /metrics, /healthz, /snapshot, and /events served on :9090 — scrape with
# `cycadatop -connect http://127.0.0.1:9090` from another terminal while it
# runs. Override with LOAD_N/LOAD_DUR/LOAD_ADDR.
LOAD_N ?= 4
LOAD_DUR ?= 15s
LOAD_ADDR ?= 127.0.0.1:9090
load:
	go run ./cmd/cycadareplay load -i internal/replay/testdata/passmark-2d.cytr \
		-n $(LOAD_N) -dur $(LOAD_DUR) -listen $(LOAD_ADDR)

# Heavier farm soak under the race detector: more devices and sessions than
# the tier-1 run in check.sh. Override with SOAK_DEVICES/SOAK_SESSIONS.
SOAK_DEVICES ?= 3
SOAK_SESSIONS ?= 24
farm-soak:
	go test -race ./internal/farm -run 'TestFarmSoak' -v \
		-soak.devices=$(SOAK_DEVICES) -soak.sessions=$(SOAK_SESSIONS)

# Long self-healing chaos soak: seeded farm runs with injected session
# hangs, device wedges, and mid-replay panics, checking the watchdog /
# quarantine / failover invariants per seed. Tier-1 runs 2 seeds (see
# check.sh); override with FARM_SEEDS=N for longer runs.
FARM_SEEDS ?= 8
farm-chaos:
	go test -race ./internal/farm -v \
		-run 'TestFarmChaos|TestFarmFailoverVerifiesIdentically' \
		-chaosfarm.seeds=$(FARM_SEEDS)
