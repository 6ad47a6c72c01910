#!/usr/bin/env bash
# Bench-regression gate: re-runs engine_bench, query_bench, and
# serve_bench in quick mode (BENCH_QUICK=1 — same workloads, fewer
# repetitions), and alloc_bench, in a scratch directory, then fails if
# the fresh numbers violate the workspace's perf contracts:
#
#   * lenient_overhead_pct  < 5     (lenient mode may not tax clean logs)
#   * dialect_overhead_pct  < 3     (the dialect front end may not tax
#                                    pure-ANSI input)
#   * incremental.speedup   >= 2    (cone re-ingest must beat a full
#                                    re-extraction)
#   * downstream_cone_qps   >= 70% of the committed BENCH_query.json
#   * upstream_closure_qps  >= 70% of the committed BENCH_query.json
#   * serve mixed_qps       >= 70% of the committed BENCH_serve.json
#   * serve refresh_p99_ratio <= 3  (read tail under churn vs idle)
#   * serve obs_overhead_pct  < 3   (metrics recording must stay
#                                    invisible at request granularity)
#
# 10k-view scale tier (engine_bench "scale" block; the *_10k/*_20k key names
# are unique on purpose so json_num's first-match grep stays correct):
#
#   * refresh_speedup_10k    >= 10 * floor   (dirty-cone refresh vs full
#                                    re-extraction — the sub-linear claim)
#   * cold_start_speedup_10k >= 6 * floor    (snapshot load + publish vs
#                                    re-parsing the SQL log)
#   * one_shot_scaling_20k   <= 2.6  (one-shot extraction + report build
#                                    at 20k views over 10k: 2 is linear,
#                                    4 quadratic; a time ratio, so the
#                                    floor does not scale it)
#   * write_over_refresh_10k <= 3    (a server-shaped write — ingest,
#                                    publish while the previous snapshot
#                                    is held, free it — over the bare
#                                    dirty-cone refresh: a write must cost
#                                    its cone, not the catalog; a
#                                    same-process time ratio, so the floor
#                                    does not scale it)
#
# Resident bytes per view (alloc_bench; BENCH_alloc.json): the live heap
# the Query Dictionary and the settled batch result hold, per view, on the
# 20k scaled log and the 5k rich log:
#
#   * dict_live_bytes_per_view  <= 1.02 * committed
#   * graph_live_bytes_per_view <= 1.02 * committed
#
# alloc_bench counts allocations and extracts on one job, so its numbers
# repeat exactly on every run; the floor does not scale them, and the 2%
# covers only standard-library layout changes between toolchains. A change
# that means to hold more per view regenerates BENCH_alloc.json.
#
# The cold-start bound is deliberately below the headline "50x" ambition:
# on the single-core reference machine the binary decode is string-alloc
# bound (~60 ms for 10k views vs ~450 ms for the SQL path, i.e. ~7x), and
# the SQL side itself got faster when publish went copy-on-write. 50x
# needs a zero-copy/mmap snapshot layout; the gate pins what the current
# format actually delivers so a regression (e.g. an accidental per-insert
# tree rebuild in decode) still fails loudly.
#
# The committed qps numbers are a *machine baseline*: they were measured
# on the machine that committed them, so the 70% floor assumes CI runs
# on comparable hardware. On a slower runner, scale the floor instead of
# deleting the gate, e.g. CHECK_BENCH_FLOOR=0.3 scripts/check_bench.sh.
# The machine-independent contract (indexed >= 5x the string walk) is
# asserted inside query_bench itself on every run, including this one.
#
# The committed BENCH_*.json files in the repo root are never touched:
# the quick run writes into a temp dir. Regenerate the committed numbers
# intentionally by running the binaries from the repo root:
#
#   cargo run --release -p lineagex-bench --bin engine_bench
#   cargo run --release -p lineagex-bench --bin query_bench
#   cargo run --release -p lineagex-bench --bin serve_bench
#   cargo run --release -p lineagex-bench --bin alloc_bench
set -euo pipefail

floor=${CHECK_BENCH_FLOOR:-0.7}
cd "$(dirname "$0")/.."
root=$(pwd)

echo "building bench binaries (release)"
cargo build --release -q -p lineagex-bench --bin engine_bench --bin query_bench --bin serve_bench \
    --bin alloc_bench

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "running engine_bench + query_bench + serve_bench (BENCH_QUICK=1) and alloc_bench in $tmp"
(cd "$tmp" && BENCH_QUICK=1 "$root/target/release/engine_bench" >engine_bench.log) || {
    echo "engine_bench failed:" >&2
    cat "$tmp/engine_bench.log" >&2
    exit 1
}
(cd "$tmp" && BENCH_QUICK=1 "$root/target/release/query_bench" >query_bench.log) || {
    echo "query_bench failed:" >&2
    cat "$tmp/query_bench.log" >&2
    exit 1
}
(cd "$tmp" && BENCH_QUICK=1 "$root/target/release/serve_bench" >serve_bench.log) || {
    echo "serve_bench failed:" >&2
    cat "$tmp/serve_bench.log" >&2
    exit 1
}
(cd "$tmp" && "$root/target/release/alloc_bench" >alloc_bench.log) || {
    echo "alloc_bench failed:" >&2
    cat "$tmp/alloc_bench.log" >&2
    exit 1
}

# Extract a numeric field from a flat pretty-printed JSON file. The
# nested incremental object is covered too: its keys ("speedup", ...)
# don't collide with any top-level key.
json_num() {
    local value
    value=$(grep -oE "\"$2\": *-?[0-9.eE+-]+" "$1" | head -1 | sed 's/.*: *//')
    if [ -z "$value" ]; then
        echo "missing key \"$2\" in $1" >&2
        exit 1
    fi
    printf '%s\n' "$value"
}

# The first numeric <key> after the line naming <section>, in a
# pretty-printed JSON file whose sections repeat the same keys.
json_section_num() {
    local value
    value=$(sed -n "/\"$2\"/,\$p" "$1" | grep -oE "\"$3\": *-?[0-9.eE+-]+" | head -1 |
        sed 's/.*: *//')
    if [ -z "$value" ]; then
        echo "missing key \"$3\" under \"$2\" in $1" >&2
        exit 1
    fi
    printf '%s\n' "$value"
}

failures=0
# check <label> <actual> <op> <bound>
check() {
    if awk -v a="$2" -v b="$4" "BEGIN { exit !(a $3 b) }"; then
        printf '  ok    %-42s %14s  (want %s %s)\n' "$1" "$2" "$3" "$4"
    else
        printf '  FAIL  %-42s %14s  (want %s %s)\n' "$1" "$2" "$3" "$4"
        failures=$((failures + 1))
    fi
}

fresh_engine="$tmp/BENCH_engine.json"
fresh_query="$tmp/BENCH_query.json"
fresh_serve="$tmp/BENCH_serve.json"
committed_query="$root/BENCH_query.json"
committed_serve="$root/BENCH_serve.json"

lenient=$(json_num "$fresh_engine" lenient_overhead_pct)
dialect=$(json_num "$fresh_engine" dialect_overhead_pct)
incremental=$(json_num "$fresh_engine" speedup)
refresh_10k=$(json_num "$fresh_engine" refresh_speedup_10k)
cold_10k=$(json_num "$fresh_engine" cold_start_speedup_10k)
one_shot_scaling=$(json_num "$fresh_engine" one_shot_scaling_20k)
write_ratio=$(json_num "$fresh_engine" write_over_refresh_10k)
down=$(json_num "$fresh_query" downstream_cone_qps)
up=$(json_num "$fresh_query" upstream_closure_qps)
mixed=$(json_num "$fresh_serve" mixed_qps)
ratio=$(json_num "$fresh_serve" refresh_p99_ratio)
obs_overhead=$(json_num "$fresh_serve" obs_overhead_pct)
down_committed=$(json_num "$committed_query" downstream_cone_qps)
up_committed=$(json_num "$committed_query" upstream_closure_qps)
mixed_committed=$(json_num "$committed_serve" mixed_qps)
down_floor=$(awk -v v="$down_committed" -v f="$floor" 'BEGIN { printf "%.4f", f * v }')
up_floor=$(awk -v v="$up_committed" -v f="$floor" 'BEGIN { printf "%.4f", f * v }')
mixed_floor=$(awk -v v="$mixed_committed" -v f="$floor" 'BEGIN { printf "%.4f", f * v }')

refresh_floor=$(awk -v f="$floor" 'BEGIN { printf "%.4f", f * 10 }')
cold_floor=$(awk -v f="$floor" 'BEGIN { printf "%.4f", f * 6 }')

echo "bench-regression gate (floor = committed * $floor):"
check "lenient_overhead_pct" "$lenient" "<" 5
check "dialect_overhead_pct" "$dialect" "<" 3
check "incremental.speedup" "$incremental" ">=" 2
check "refresh_speedup_10k" "$refresh_10k" ">=" "$refresh_floor"
check "cold_start_speedup_10k" "$cold_10k" ">=" "$cold_floor"
check "one_shot_scaling_20k" "$one_shot_scaling" "<=" 2.6
check "write_over_refresh_10k" "$write_ratio" "<=" 3
check "downstream_cone_qps vs committed floor" "$down" ">=" "$down_floor"
check "upstream_closure_qps vs committed floor" "$up" ">=" "$up_floor"
check "serve mixed_qps vs committed floor" "$mixed" ">=" "$mixed_floor"
check "serve refresh_p99_ratio" "$ratio" "<=" 3
check "serve obs_overhead_pct" "$obs_overhead" "<" 3
for log in scaled_20k rich_5k; do
    for key in dict_live_bytes_per_view graph_live_bytes_per_view; do
        fresh=$(json_section_num "$tmp/BENCH_alloc.json" "$log" "$key")
        committed=$(json_section_num "$root/BENCH_alloc.json" "$log" "$key")
        bound=$(awk -v v="$committed" 'BEGIN { printf "%.2f", 1.02 * v }')
        check "$log $key vs committed" "$fresh" "<=" "$bound"
    done
done

if [ "$failures" -ne 0 ]; then
    echo "bench-regression gate: $failures check(s) failed" >&2
    echo "quick-run artifacts:" >&2
    cat "$fresh_engine" "$fresh_query" "$fresh_serve" "$tmp/BENCH_alloc.json" >&2
    exit 1
fi
echo "bench-regression gate: all green"
