#!/bin/sh
# check.sh — the full pre-merge gate: static analysis plus the entire
# test suite under the race detector. The sweep engine is the one
# place this repo runs goroutines, so -race here is what guards the
# parallel/sequential equivalence contract.
#
# Usage: scripts/check.sh [package...]   (defaults to ./...)
set -eu
cd "$(dirname "$0")/.."

pkgs="${*:-./...}"

echo "== go vet $pkgs"
go vet $pkgs

# opmlint is this repo's own contract linter (cmd/opmlint): it
# mechanizes the determinism, telemetry and resilience rules the
# equivalence suites depend on. It is a hard gate — a finding fails
# the build; legitimate exceptions carry //opmlint:allow annotations
# with reasons (see DESIGN.md §10).
echo "== opmlint $pkgs"
go run ./cmd/opmlint $pkgs

# staticcheck is optional: it is not vendored and this gate must work
# in hermetic containers that cannot install tools. When present it
# runs as a hard check; when absent we say so and move on.
if command -v staticcheck >/dev/null 2>&1; then
	echo "== staticcheck $pkgs"
	staticcheck $pkgs
else
	echo "== staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

# Twin calibration gate: sweep the analytic twin and the exact
# simulator over the quick paper grid and fail if any kernel family's
# MAPE regressed past scripts/calib-baseline.json (10% relative slack
# plus half a point absolute — see internal/twin/calib.Check). A
# deliberate model change re-baselines with `make calib-baseline`.
echo "== twin calibration (cmd/opmcalib -check)"
go run ./cmd/opmcalib -check

# The harness suite is simulator-bound and the race detector costs
# >10x on it (TestTablesTiny alone is ~2 minutes clean and well past
# 20 under -race on a small container), so the default 10m
# per-package timeout has no headroom; 60m keeps a loaded box from
# flaking without masking a genuine hang.
echo "== go test -race $pkgs"
go test -race -timeout 60m $pkgs

# The fuzz targets. The cache models' decode a geometry and an
# operation stream and require the cache to match its reference
# implementation (internal/cache/ref_test.go) after every operation;
# FuzzReadTrace holds the trace decoder to never panicking and to
# re-encoding every stream it accepts into equal events; FuzzFanout
# requires memsim.Fanout to leave every sim as a lone run would, and a
# sim to detach exactly when its buffer bases are not congruent to its
# front's; FuzzOpen holds the store's journal replay to never failing
# an open and to leaving a store that reopens clean after a Put and a
# Close; FuzzParse holds the -faults grammar to round-tripping every
# spec it accepts. Plain `go test` above replays only the committed
# seed corpora.
for target in internal/cache:FuzzSetAssoc internal/cache:FuzzDirectMapped internal/obs:FuzzReadTrace internal/memsim:FuzzFanout internal/store:FuzzOpen internal/faultinject:FuzzParse; do
	pkg="./${target%%:*}"
	fn="${target#*:}"
	echo "== go test -fuzz $fn $pkg (10s)"
	go test -run '^$' -fuzz "^$fn\$" -fuzztime 10s "$pkg"
done

# The store's crash-safety claims rest on its locking discipline; run
# its suite twice under the race detector to shake out ordering flakes.
echo "== go test -race -count=2 ./internal/store"
go test -race -count=2 ./internal/store

# Perf-regression gate: re-measure the fixed benchmark roster and
# compare against scripts/bench-baseline.json. The 2x factor
# (BENCH_GATE_FACTOR to override) is deliberately generous — it exists
# to catch algorithmic regressions, not scheduler noise. A deliberate
# perf change re-baselines with `make bench-baseline`.
echo "== bench gate (scripts/bench-json.sh -check)"
scripts/bench-json.sh -check

# Chaos gate: the fault-injection scenarios run explicitly, under the
# race detector, with their fixed fault seeds (every chaos spec pins
# seed=N, so the injected fault set is identical on every run). The
# torn-write scenarios (TestChaosStoreTornWrites and
# TestTornWritesAreAbsorbed) assert the store-corruption counters —
# store/torn_writes and store/write_repairs — are non-zero, so a
# silently disabled injector fails this gate instead of passing
# vacuously.
echo "== chaos suite (go test -race, fixed fault seeds)"
go test -race -count=1 -run 'TestChaos|TestTornWrites|TestCorruptWrites|TestStoreChaos' \
	./internal/harness ./internal/store
