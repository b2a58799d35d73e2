#!/usr/bin/env bash
# Run the parallel-engine, training-step, snapshot-write and serving-hit
# benchmarks (bench_parallel_test.go) and the phases of one serving retrain
# (BenchmarkRetrain, internal/serve) and emit BENCH_parallel.json:
# GOMAXPROCS as the test binary saw it (the -N suffix go test gives
# benchmark names), per-benchmark ns/op, allocs/op, bytes/op, stages/inst or
# stages/update and amu_ms, gate_ms and persist_ms where reported, and the
# serial-vs-pooled speedup for recommendation scoring.
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

echo "bench: running BenchmarkRecommend (incl. RecommendHit) + BenchmarkFit + BenchmarkAMU + BenchmarkTunerSave + BenchmarkTowerGEMM + BenchmarkHandlerHit + BenchmarkRetrain (-benchtime $BENCHTIME)…" >&2
go test -run '^$' -bench 'BenchmarkRecommend|BenchmarkFit|BenchmarkAMU|BenchmarkTunerSave|BenchmarkTowerGEMM|BenchmarkHandlerHit' -benchtime "$BENCHTIME" . | tee "$raw" >&2
go test -run '^$' -bench '^BenchmarkRetrain$' -benchtime "$BENCHTIME" ./internal/serve | tee -a "$raw" >&2

awk -v benchtime="$BENCHTIME" '
$1 ~ /^Benchmark(Recommend|RecommendColdReps|TowerGEMM)\// || $1 ~ /^Benchmark(Fit|AMU|TunerSave|HandlerHit|RecommendHit|Retrain)(-[0-9]+)?$/ {
    # BenchmarkRecommend/workers=4-8   12   345 ns/op ...: go test appends
    # -GOMAXPROCS to every name unless it is 1.
    name = $1
    if (cores == "") cores = match(name, /-[0-9]+$/) ? substr(name, RSTART + 1) : 1
    sub(/-[0-9]+$/, "", name)
    iters[name] = $2
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") nsop[name] = $i
        if ($(i + 1) == "allocs/op") allocs[name] = $i
        if ($(i + 1) == "B/op") bytes[name] = $i
        if ($(i + 1) == "stages/inst") stages[name] = $i
        if ($(i + 1) == "stages/update") updStages[name] = $i
        if ($(i + 1) == "amu_ms") amuMs[name] = $i
        if ($(i + 1) == "gate_ms") gateMs[name] = $i
        if ($(i + 1) == "persist_ms") persistMs[name] = $i
    }
    order[n++] = name
}
END {
    printf "{\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"gomaxprocs\": %d,\n", cores
    printf "  \"benchmarks\": {\n"
    for (i = 0; i < n; i++) {
        name = order[i]
        extra = ""
        if (name in allocs) extra = extra sprintf(", \"allocs_per_op\": %d", allocs[name])
        if (name in bytes) extra = extra sprintf(", \"bytes_per_op\": %d", bytes[name])
        if (name in stages) extra = extra sprintf(", \"stages_per_inst\": %s", stages[name])
        if (name in updStages) extra = extra sprintf(", \"stages_per_update\": %s", updStages[name])
        if (name in amuMs) extra = extra sprintf(", \"amu_ms\": %s, \"gate_ms\": %s, \"persist_ms\": %s", amuMs[name], gateMs[name], persistMs[name])
        printf "    \"%s\": {\"ns_per_op\": %.0f, \"iterations\": %d%s}%s\n", \
            name, nsop[name], iters[name], extra, (i < n - 1 ? "," : "")
    }
    printf "  },\n"
    rs = nsop["BenchmarkRecommend/workers=1"]
    best_r = ""; best_rv = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        if (name ~ /^BenchmarkRecommend\/workers=/ && name != "BenchmarkRecommend/workers=1" && nsop[name] > 0) {
            v = rs / nsop[name]
            if (v > best_rv) { best_rv = v; best_r = name }
        }
    }
    printf "  \"recommend_speedup\": {\"baseline\": \"BenchmarkRecommend/workers=1\", \"best\": \"%s\", \"x\": %.2f}\n", best_r, best_rv
    printf "}\n"
}' "$raw" > "$OUT"

echo "bench: wrote $OUT" >&2
cat "$OUT"
