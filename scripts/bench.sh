#!/usr/bin/env bash
# bench.sh — run the query-path benchmark suite plus a short end-to-end
# loadgen run, and emit BENCH_PR10.json:
#
#   {
#     "environment": { kernel, kernel_source, cpu_features },
#     "benchmarks":  { name -> {ns_per_op, allocs_per_op} },
#     "loadgen":     { qps, latency percentiles, success/shed/error tallies }
#   }
#
#   COUNT=5 scripts/bench.sh              # -count per benchmark (default 3)
#   OUT=out.json scripts/bench.sh         # output path (default BENCH_PR10.json)
#   LOADGEN_DURATION=5s scripts/bench.sh  # loadgen run length (default 2s)
#
# The benchmark half covers the Table 4 headline query benchmark, the
# distance-kernel microbenchmarks (including the quantized pre-filter
# variants), the sequential-vs-parallel sharded search matrix
# (BenchmarkSearchSharded's shards × {seq,par} grid), the traversal-only
# allocation benchmark, and the cursor-vs-rescan ladder head-to-head (the
# re-scan side is internal/core's test-only oracle), plus the R*-tree write
# path: STR bulk load of 100k points and the insert a served Add performs
# (into a bulk-loaded tree, so nearly every insert forces a reinsert). The
# loadgen half builds dblsh-server and dblsh-loadgen, starts a durable
# 8-shard server on a temp data dir, and drives it closed-loop — so the
# recorded numbers include HTTP, admission and WAL overhead, not just the
# in-process query path, and the summary carries the observed quant_pruned
# fraction plus the intra-query fan-out counters (parallel_rounds,
# straggler_ns). The environment block (dblsh-loadgen -cpuinfo) records the
# auto-selected distance kernel and detected CPU features, so per-kernel
# benchmark rows can be read against the hardware that produced them.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

COUNT="${COUNT:-3}"
OUT="${OUT:-BENCH_PR10.json}"
LOADGEN_DURATION="${LOADGEN_DURATION:-2s}"
TMP="$(mktemp)"
BENCH_JSON="$(mktemp)"
LOADGEN_JSON="$(mktemp)"
ENV_JSON="$(mktemp)"
BINDIR="$(mktemp -d)"
DATADIR="$(mktemp -d)"
SERVER_PID=""

# stop_server: TERM the server, give it up to 5s to exit, then KILL it.
# Every step tolerates an already-dead or never-started server — under
# `set -e` a bare failing && chain inside the EXIT trap would abort the
# handler before the temp dirs are removed.
stop_server() {
    [ -n "${SERVER_PID:-}" ] || return 0
    kill "$SERVER_PID" 2>/dev/null || true
    for _ in $(seq 1 50); do
        kill -0 "$SERVER_PID" 2>/dev/null || break
        sleep 0.1
    done
    kill -9 "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
}
cleanup() {
    stop_server
    rm -rf "$TMP" "$BENCH_JSON" "$LOADGEN_JSON" "$ENV_JSON" "$BINDIR" "$DATADIR" || true
}
trap cleanup EXIT

run() { go test -run '^$' -bench "$1" -benchmem -count "$COUNT" "$2" | tee -a "$TMP"; }

run 'BenchmarkTable4QueryDBLSH$|BenchmarkSearchSharded|BenchmarkLadderAllocs$' .
run 'BenchmarkDistKernels|BenchmarkQuantKernels' ./internal/vec
run 'BenchmarkLadderModes' ./internal/core
run 'BenchmarkInsertBulkLoaded$|BenchmarkBulkLoad100k$' ./internal/rstar

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)        # strip the GOMAXPROCS suffix
    ns[name] += $3; cnt[name]++
    for (i = 4; i < NF; i++) if ($(i+1) == "allocs/op") alloc[name] += $i
}
END {
    n = 0
    for (name in ns) keys[++n] = name
    for (i = 2; i <= n; i++) {       # insertion sort: portable across awks
        v = keys[i]
        for (j = i - 1; j >= 1 && keys[j] > v; j--) keys[j+1] = keys[j]
        keys[j+1] = v
    }
    printf "{\n"
    for (k = 1; k <= n; k++) {
        name = keys[k]
        printf "    \"%s\": {\"ns_per_op\": %.1f, \"allocs_per_op\": %.1f}%s\n", \
            name, ns[name]/cnt[name], alloc[name]/cnt[name], (k < n) ? "," : ""
    }
    printf "  }"
}' "$TMP" > "$BENCH_JSON"

# --- end-to-end loadgen run against a local durable server ---------------
echo "building server + loadgen..."
go build -o "$BINDIR/dblsh-server" ./cmd/dblsh-server
go build -o "$BINDIR/dblsh-loadgen" ./cmd/dblsh-loadgen

# Stamp the artifact with the kernel/CPU the benchmarks actually ran under.
"$BINDIR/dblsh-loadgen" -cpuinfo > "$ENV_JSON"

PORT="${PORT:-18080}"
# -parallelism 8 forces the per-round fan-out even where the auto policy
# would pick 1 (single-core CI runners), so the recorded parallel_rounds /
# straggler_ns counters always reflect the parallel path end to end.
"$BINDIR/dblsh-server" -addr "localhost:$PORT" -data-dir "$DATADIR" \
    -demo-n 5000 -demo-dim 32 -shards 8 -parallelism 8 \
    -max-inflight 16 -max-queue 64 &
SERVER_PID=$!

# dblsh-loadgen polls /stats itself until the server is ready.
"$BINDIR/dblsh-loadgen" -addr "http://localhost:$PORT" \
    -duration "$LOADGEN_DURATION" -concurrency 4 -write-fraction 0.1 -k 10 \
    > "$LOADGEN_JSON"

stop_server

{
    printf '{\n  "environment": '
    cat "$ENV_JSON"
    printf ',\n  "benchmarks": '
    cat "$BENCH_JSON"
    printf ',\n  "loadgen": '
    cat "$LOADGEN_JSON"
    printf '}\n'
} > "$OUT"

echo "wrote $OUT:"
cat "$OUT"
