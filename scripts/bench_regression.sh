#!/usr/bin/env bash
# Benchmark-regression smoke (CI): re-run the single-core recommendation
# benchmark and fail if ns/op regressed more than MAX_RATIO× against the
# committed BENCH_parallel.json baseline. The comparison is deliberately
# loose (default 2×) because CI machines are noisy and -benchtime small;
# it exists to catch algorithmic regressions (a kernel falling back to
# per-candidate forwards, an arena leak re-introducing per-op allocation),
# not single-digit-percent drift. See BENCHMARKS.md for methodology.
#
# Also gates BenchmarkRetrievalLookup with an *absolute* bound
# (MAX_LOOKUP_NS, default 1ms/op): the retrieval cold-start tier promises
# sub-millisecond lookups on a ~10k-entry store, so an absolute budget is
# the contract rather than a ratio against a committed baseline.
#
# And gates work, not time: BenchmarkAMU and BenchmarkFit (the training
# step) and BenchmarkHandlerHit and BenchmarkRecommendHit (one cache hit
# through the handler, and through pkg/client over loopback) allocs/op,
# run at GOMAXPROCS=1 like the committed baseline, may exceed
# BENCH_parallel.json's allocs_per_op by at most 2%. Allocation counts do
# not spread with the machine, so the bound can be that tight; it catches
# a per-node or per-step buffer creeping back into training, and
# reflection or a formatted string creeping back into the hit path.
#
# Usage:
#   ./scripts/bench_regression.sh                # default -benchtime 5x, ratio 2.0
#   BENCHTIME=3x MAX_RATIO=3.0 MAX_LOOKUP_NS=2000000 ./scripts/bench_regression.sh
#
# Writes bench_regression.txt (uploaded as a CI artifact) with the
# baseline, the measured values, and the verdicts.
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-5x}"
MAX_RATIO="${MAX_RATIO:-2.0}"
BASELINE_FILE="${BASELINE_FILE:-BENCH_parallel.json}"
REPORT="${REPORT:-bench_regression.txt}"
BENCH="BenchmarkRecommend/workers=1"
LOOKUP_BENCH="BenchmarkRetrievalLookup"
MAX_LOOKUP_NS="${MAX_LOOKUP_NS:-1000000}"
ALLOC_BENCHES="BenchmarkAMU BenchmarkFit BenchmarkHandlerHit BenchmarkRecommendHit"
MAX_ALLOC_RATIO=1.02

baseline="$(awk -v key="\"$BENCH\"" '
    $0 ~ key { if (match($0, /"ns_per_op": *[0-9]+/))
        print substr($0, RSTART + 13, RLENGTH - 13) }
' "$BASELINE_FILE")"
if [[ -z "$baseline" || "$baseline" == "0" ]]; then
    echo "bench-regression: no $BENCH baseline in $BASELINE_FILE" >&2
    exit 2
fi

echo "bench-regression: running $BENCH (-benchtime $BENCHTIME)…" >&2
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go test -run '^$' -bench '^BenchmarkRecommend$/^workers=1$' -benchtime "$BENCHTIME" . | tee "$raw" >&2

measured="$(awk '/^BenchmarkRecommend\/workers=1/ {
    for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") { printf "%.0f", $i; exit }
}' "$raw")"
if [[ -z "$measured" ]]; then
    echo "bench-regression: benchmark produced no ns/op line" >&2
    exit 2
fi

verdict="$(awk -v m="$measured" -v b="$baseline" -v r="$MAX_RATIO" '
    BEGIN { print (m > b * r) ? "FAIL" : "ok" }')"
ratio="$(awk -v m="$measured" -v b="$baseline" 'BEGIN { printf "%.2f", m / b }')"

echo "bench-regression: running $LOOKUP_BENCH (-benchtime $BENCHTIME)…" >&2
lookup_raw="$(mktemp)"
trap 'rm -f "$raw" "$lookup_raw"' EXIT
go test -run '^$' -bench "^${LOOKUP_BENCH}\$" -benchtime "$BENCHTIME" . | tee "$lookup_raw" >&2

lookup_measured="$(awk '/^BenchmarkRetrievalLookup/ {
    for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") { printf "%.0f", $i; exit }
}' "$lookup_raw")"
if [[ -z "$lookup_measured" ]]; then
    echo "bench-regression: $LOOKUP_BENCH produced no ns/op line" >&2
    exit 2
fi
lookup_verdict="$(awk -v m="$lookup_measured" -v lim="$MAX_LOOKUP_NS" '
    BEGIN { print (m > lim) ? "FAIL" : "ok" }')"

echo "bench-regression: running ${ALLOC_BENCHES// / + } allocs/op (-benchtime $BENCHTIME -cpu 1)…" >&2
alloc_raw="$(mktemp)"
trap 'rm -f "$raw" "$lookup_raw" "$alloc_raw"' EXIT
go test -run '^$' -bench "^(${ALLOC_BENCHES// /|})\$" -benchtime "$BENCHTIME" -cpu 1 . | tee "$alloc_raw" >&2

alloc_report=""
alloc_failed=""
for name in $ALLOC_BENCHES; do
    base_allocs="$(awk -v key="\"$name\"" '
        $0 ~ key { if (match($0, /"allocs_per_op": *[0-9]+/))
            print substr($0, RSTART + 16, RLENGTH - 16) }
    ' "$BASELINE_FILE" | tr -d ' ')"
    got_allocs="$(awk -v name="$name" '$1 == name {
        for (i = 3; i < NF; i++) if ($(i + 1) == "allocs/op") { print $i; exit }
    }' "$alloc_raw")"
    if [[ -z "$base_allocs" || -z "$got_allocs" ]]; then
        echo "bench-regression: no $name allocs/op (baseline '${base_allocs}', measured '${got_allocs}')" >&2
        exit 2
    fi
    v="$(awk -v m="$got_allocs" -v b="$base_allocs" -v r="$MAX_ALLOC_RATIO" '
        BEGIN { print (m > b * r) ? "FAIL" : "ok" }')"
    alloc_report+="$(printf '%-21s %s allocs/op, baseline %s (limit %sx): %s' \
        "$name" "$got_allocs" "$base_allocs" "$MAX_ALLOC_RATIO" "$v")"$'\n'
    if [[ "$v" == "FAIL" ]]; then
        alloc_failed+=" $name"
    fi
done

{
    echo "benchmark:   $BENCH"
    echo "baseline:    $baseline ns/op ($BASELINE_FILE)"
    echo "measured:    $measured ns/op (-benchtime $BENCHTIME)"
    echo "ratio:       ${ratio}x (limit ${MAX_RATIO}x)"
    echo "verdict:     $verdict"
    echo
    echo "benchmark:   $LOOKUP_BENCH"
    echo "measured:    $lookup_measured ns/op (-benchtime $BENCHTIME)"
    echo "budget:      $MAX_LOOKUP_NS ns/op (absolute)"
    echo "verdict:     $lookup_verdict"
    echo
    printf '%s' "$alloc_report"
} | tee "$REPORT"

if [[ "$verdict" == "FAIL" ]]; then
    echo "bench-regression: $BENCH regressed ${ratio}x vs committed baseline (limit ${MAX_RATIO}x)" >&2
    exit 1
fi
if [[ "$lookup_verdict" == "FAIL" ]]; then
    echo "bench-regression: $LOOKUP_BENCH ${lookup_measured} ns/op exceeds ${MAX_LOOKUP_NS} ns/op budget" >&2
    exit 1
fi
if [[ -n "$alloc_failed" ]]; then
    echo "bench-regression:${alloc_failed} allocs/op exceeds the committed baseline by more than ${MAX_ALLOC_RATIO}x" >&2
    exit 1
fi
