#!/usr/bin/env bash
# Run the parallel-engine benchmarks (bench_parallel_test.go) and emit
# BENCH_parallel.json: machine shape, per-benchmark ns/op, and the
# serial-vs-parallel speedups for recommendation scoring and NECS training.
#
# Usage:
#   ./scripts/bench.sh              # default -benchtime 3x
#   BENCHTIME=1x ./scripts/bench.sh # CI smoke
#   OUT=/tmp/b.json ./scripts/bench.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
OUT="${OUT:-BENCH_parallel.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "bench: running BenchmarkRecommend + BenchmarkFit + BenchmarkAMU + BenchmarkTowerGEMM (-benchtime $BENCHTIME)…" >&2
go test -run '^$' -bench 'BenchmarkRecommend|BenchmarkFit|BenchmarkAMU|BenchmarkTowerGEMM' -benchtime "$BENCHTIME" . | tee "$raw" >&2

cores="$(go env GOMAXPROCS 2>/dev/null || true)"
if [[ -z "$cores" || "$cores" == "0" ]]; then
    cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
fi

awk -v cores="$cores" -v benchtime="$BENCHTIME" '
/^Benchmark(Recommend|RecommendColdReps|Fit|TowerGEMM)\/|^BenchmarkAMU/ {
    # BenchmarkRecommend/workers=4-8   12   345 ns/op ...
    name = $1; sub(/-[0-9]+$/, "", name)
    iters[name] = $2
    for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") nsop[name] = $i
    order[n++] = name
}
END {
    printf "{\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"gomaxprocs\": %d,\n", cores
    printf "  \"benchmarks\": {\n"
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %.0f, \"iterations\": %d}%s\n", \
            name, nsop[name], iters[name], (i < n - 1 ? "," : "")
    }
    printf "  },\n"
    rs = nsop["BenchmarkRecommend/workers=1"]
    best_r = ""; best_rv = 0
    fs = nsop["BenchmarkFit/replicas=0"]
    best_f = ""; best_fv = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        if (name ~ /^BenchmarkRecommend\// && name != "BenchmarkRecommend/workers=1" && nsop[name] > 0) {
            v = rs / nsop[name]
            if (v > best_rv) { best_rv = v; best_r = name }
        }
        if (name ~ /^BenchmarkFit\// && name != "BenchmarkFit/replicas=0" && nsop[name] > 0) {
            v = fs / nsop[name]
            if (v > best_fv) { best_fv = v; best_f = name }
        }
    }
    printf "  \"recommend_speedup\": {\"baseline\": \"BenchmarkRecommend/workers=1\", \"best\": \"%s\", \"x\": %.2f},\n", best_r, best_rv
    printf "  \"fit_speedup\": {\"baseline\": \"BenchmarkFit/replicas=0\", \"best\": \"%s\", \"x\": %.2f}\n", best_f, best_fv
    printf "}\n"
}' "$raw" > "$OUT"

echo "bench: wrote $OUT" >&2
cat "$OUT"
