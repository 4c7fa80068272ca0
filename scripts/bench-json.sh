#!/bin/sh
# bench-json.sh — emit the repo's perf trajectory as JSON.
#
# Runs the fixed benchmark roster (sweep-engine overheads, the cache
# models' lookups and reset, the memory simulator's streaming hot loop,
# one KNL curve cell across its four modes, twin-vs-exact, store
# warm/cold, and the obs registry/tracer overhead guards) through `go test -bench -json`, extracts every "<name> ns/op"
# result from the test2json stream, and writes the sorted {benchmark:
# ns_per_op} map to BENCH_sweep.json.
#
# Usage:
#   scripts/bench-json.sh           # measure, (over)write BENCH_sweep.json
#   scripts/bench-json.sh -check    # measure, then gate against
#                                   # scripts/bench-baseline.json: fail when
#                                   # any baselined benchmark is more than
#                                   # BENCH_GATE_FACTOR (default 2.0) times
#                                   # slower, or disappeared entirely
#
# -check exit codes: 0 ok, 1 perf regression, 2 configuration error
# (missing baseline, a measured benchmark the baseline does not list,
# or a non-numeric BENCH_GATE_FACTOR).
#
# The baseline's absolute numbers are machine-specific; the generous 2x
# factor is what makes the gate portable enough to catch relative
# regressions (an accidental quadratic loop, a lock on the sweep hot
# path) without flaking on hardware drift. After a deliberate perf
# change, re-baseline with `make bench-baseline` and commit the diff.
set -eu
cd "$(dirname "$0")/.."

out="BENCH_sweep.json"
baseline="scripts/bench-baseline.json"
factor="${BENCH_GATE_FACTOR:-2.0}"

# Configuration errors are exit 2, detected before the multi-minute
# measurement; exit 1 is reserved for a genuine perf regression, so CI
# can tell "fix the setup" from "fix the code".
if [ "${1:-}" = "-check" ]; then
	case "$factor" in
	''|.|*[!0-9.]*|*.*.*)
		echo "bench gate: BENCH_GATE_FACTOR must be a positive number, got \"$factor\"" >&2
		exit 2 ;;
	esac
	if ! awk -v f="$factor" 'BEGIN { exit !(f > 0) }'; then
		echo "bench gate: BENCH_GATE_FACTOR must be a positive number, got \"$factor\"" >&2
		exit 2
	fi
	if [ ! -f "$baseline" ]; then
		echo "bench gate: no $baseline committed — run 'make bench-baseline' to create one" >&2
		exit 2
	fi
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

bench() { # package regex benchtime
	echo "== bench $1 ($2, $3)" >&2
	go test -run '^$' -bench "$2" -benchtime "$3" -count 1 -json "$1" >>"$raw"
}

bench ./internal/sweep  'BenchmarkMap(DisabledResilience|IdleResilience|NilInjector)$' 100x
bench ./internal/cache  'Benchmark(SetAssocAccess|DirectMappedAccess|DirectMappedReset)$' 1s
bench ./internal/memsim 'BenchmarkSimStreamingAccess$' 1s
bench ./internal/harness 'BenchmarkCurveCellKNL$' 20x
bench ./internal/twin   'BenchmarkTwinVsExact$' 1x
bench .                 'BenchmarkObsOverhead$' 1x
bench .                 'BenchmarkTraceOverhead$' 1x
bench .                 'BenchmarkStoreWarmVsCold$' 1x
bench ./internal/serve  'BenchmarkServeHotPath$' 1s
bench ./internal/lint   'BenchmarkLintRepo$' 3x

# test2json wraps stdout writes in Output actions, and one benchmark
# result line spans several of them (the name is printed before the
# timing): reassemble the payloads in order, expand the \n/\t escapes,
# then pull each "<name> ... ns/op" line. The GOMAXPROCS suffix is
# stripped — core count is hardware, not code. Sort by name and render
# as a flat JSON object.
sed -n 's/.*"Output":"\(.*\)"}$/\1/p' "$raw" |
awk '{ printf "%s", $0 }' |
sed 's/\\t/ /g; s/\\n/\n/g' |
awk '/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++)
		if ($i == "ns/op") { print name, $(i - 1); break }
}' | sort | awk '
	BEGIN { print "{" }
	{ lines[NR] = sprintf("  \"%s\": %s", $1, $2) }
	END {
		for (i = 1; i <= NR; i++)
			print lines[i] (i < NR ? "," : "")
		print "}"
	}
' >"$out"

n="$(grep -c '":' "$out")" || n=0
echo "wrote $out ($n benchmarks)"
if [ "$n" -eq 0 ]; then
	echo "bench-json: no benchmark produced output" >&2
	exit 1
fi

[ "${1:-}" = "-check" ] || exit 0

awk -v factor="$factor" -F'"' '
	FNR == 1 { file++ }
	/":/ {
		name = $2
		val = $3
		sub(/^: */, "", val)
		sub(/,? *$/, "", val)
		if (file == 1) base[name] = val + 0
		else cur[name] = val + 0
	}
	END {
		fail = 0
		conf = 0
		for (name in base) {
			if (!(name in cur)) {
				printf "bench gate: %s is baselined but was not measured — restore it or re-baseline\n", name
				conf = 1
				continue
			}
			if (cur[name] > base[name] * factor) {
				printf "bench gate: %s regressed %.2fx (%.0f -> %.0f ns/op, gate %.1fx)\n",
					name, cur[name] / base[name], base[name], cur[name], factor
				fail = 1
			}
		}
		for (name in cur)
			if (!(name in base)) {
				printf "bench gate: %s is absent from the baseline — run make bench-baseline and commit the diff\n", name
				conf = 1
			}
		if (conf) exit 2
		exit fail
	}
' "$baseline" "$out"
echo "bench gate: ok ($out within ${factor}x of $baseline)"
