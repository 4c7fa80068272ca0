# Convenience targets; see scripts/check.sh for the full gate.

.PHONY: build test lint check bench bench-obs bench-store bench-json bench-baseline bench-trace bench-serve profile serve

build:
	go build ./...

test:
	go test ./...

# Contract linter (cmd/opmlint): determinism, telemetry, store-safety
# and concurrency rules as a hard gate. Suppress with //opmlint:allow <check> — <reason>.
lint:
	go run ./cmd/opmlint ./...

# Full pre-merge gate: vet + opmlint + (optional) staticcheck +
# race-enabled tests.
check:
	scripts/check.sh

bench:
	go test -bench=BenchmarkSweepEngine -benchtime=1x -run=^$$ .

# Telemetry overhead guard: enabled registry vs disabled on the same sweep.
bench-obs:
	go test -bench=BenchmarkObsOverhead -benchtime=3x -run=^$$ .

# Result-store payoff: no store vs cold (journal everything) vs warm
# (every job answered from the journal, zero simulation).
bench-store:
	go test -bench=BenchmarkStoreWarmVsCold -benchtime=3x -run=^$$ .

# Tracing overhead guard: nil tracer vs the JSONL file sink on the same
# sweep.
bench-trace:
	go test -bench=BenchmarkTraceOverhead -benchtime=3x -run=^$$ .

# Perf trajectory: run the fixed benchmark roster (sweep, cache, memsim,
# harness cells, exact estimator, store, obs, trace, serve, lint) and
# write the sorted {benchmark: ns_per_op} map to BENCH_sweep.json.
bench-json:
	scripts/bench-json.sh

# Re-measure and overwrite the committed baseline the check gate
# (scripts/bench-json.sh -check) compares against. Run after a
# deliberate perf change and commit the diff.
bench-baseline:
	scripts/bench-json.sh
	cp BENCH_sweep.json scripts/bench-baseline.json

# Run the serving daemon (cmd/opmserve) over the default local store.
# Warm it from a batch run first (go run ./cmd/opmbench -store .opmstore)
# and most queries are sub-millisecond hits.
serve:
	go run ./cmd/opmserve -store .opmstore -addr localhost:8080

# Warm-hit latency guard: the full hot-path request cycle (mux, decode,
# resolve, LRU hit, render, encode) must stay sub-millisecond.
bench-serve:
	go test -bench=BenchmarkServeHotPath -benchtime=1s -run=^$$ ./internal/serve

# Profile a short dense sweep with live pprof plus a CPU profile and a
# metrics dump under prof/. Inspect with: go tool pprof prof/opmbench.cpu
profile:
	mkdir -p prof
	go run ./cmd/opmbench -exp fig7 -q -pprof localhost:0 \
		-cpuprofile prof/opmbench.cpu -metrics prof/metrics.json
	@echo "wrote prof/opmbench.cpu and prof/metrics.json"
