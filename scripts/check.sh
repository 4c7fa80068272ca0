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
# mechanizes the determinism, telemetry, store-safety and concurrency
# rules the equivalence suites depend on. It is a hard gate — a finding fails
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

# The harness suite is simulator-bound and the race detector costs
# >10x on it (TestTablesTiny alone is ~2 minutes clean and well past
# 20 under -race on a small container), so the default 10m
# per-package timeout has no headroom; 60m keeps a loaded box from
# flaking without masking a genuine hang.
echo "== go test -race $pkgs"
go test -race -timeout 60m $pkgs

# The fuzz targets. The cache models' decode a geometry and an
# operation stream and require the cache to match its reference
# implementation (internal/cache/ref_test.go) after every operation,
# and SetAssoc's sets to keep their recency-ordered layout;
# FuzzReadTrace holds the trace decoder to never panicking and to
# re-encoding every stream it accepts into equal events; FuzzFanout
# requires memsim.Fanout to leave every sim as a lone run would, and a
# sim to detach exactly when its buffer bases are not congruent to its
# front's; FuzzFront holds memsim's on-chip front (the L1 MRU check,
# the walk from way 1, L2) to a reference front built on
# SetAssoc.Access and Insert, down to every call on the memory side;
# FuzzOpen holds the store's journal replay to never failing
# an open and to leaving a store that reopens clean after a Put and a
# Close; FuzzParseMode holds ParseMode and Mode's
# UnmarshalText to agreeing and every accepted label to re-marshalling
# byte-identical; FuzzEntryEncode holds the store's one-buffer journal
# frame to header + json.Marshal bytes; FuzzQueryRequest holds the
# serve catalog's resolve of a /v1/query body to never panicking, to
# the digest computed with no cached config fingerprint, and to
# resolving a re-marshalled request identically; FuzzQueryResponse
# holds serve's /v1/query answer writer to the bytes encoding/json
# writes for the same response; FuzzParseAdmit holds
# opmserve's -admit grammar to never panicking, to finite positive
# rates wherever serve.New accepts the classes, and to round-tripping
# every spec it accepts; FuzzGenerators holds every sparse matrix
# generator to its COO-built reference (internal/sparse/gen_ref_test.go),
# bit for bit, or to panicking where the reference does. Plain
# `go test` above replays only the committed seed corpora.
for target in internal/cache:FuzzSetAssoc internal/cache:FuzzDirectMapped internal/obs:FuzzReadTrace internal/memsim:FuzzFanout internal/memsim:FuzzFront internal/memsim:FuzzParseMode internal/store:FuzzOpen internal/store:FuzzEntryEncode internal/serve:FuzzQueryRequest internal/serve:FuzzQueryResponse cmd/opmserve:FuzzParseAdmit internal/sparse:FuzzGenerators; do
	pkg="./${target%%:*}"
	fn="${target#*:}"
	echo "== go test -fuzz $fn $pkg (10s)"
	go test -run '^$' -fuzz "^$fn\$" -fuzztime 10s "$pkg"
done

# The store's crash-safety claims rest on its locking discipline (the
# journal lock serializes appends and rewrites, the index lock guards
# the map that reads take), and a cached sweep's lookups run on its
# workers, several at once; run both suites ten times under the race
# detector to shake out ordering flakes.
echo "== go test -race -count=10 ./internal/store ./internal/sweep"
go test -race -count=10 ./internal/store ./internal/sweep

# Perf-regression gate: re-measure the fixed benchmark roster and
# compare against scripts/bench-baseline.json. The 2x factor
# (BENCH_GATE_FACTOR to override) is deliberately generous — it exists
# to catch algorithmic regressions, not scheduler noise. A deliberate
# perf change re-baselines with `make bench-baseline`.
echo "== bench gate (scripts/bench-json.sh -check)"
scripts/bench-json.sh -check
