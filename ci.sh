#!/usr/bin/env bash
# CI gate for the LineageX workspace. Mirrors what a hosted pipeline
# would run — and is mirrored step-for-step by
# .github/workflows/ci.yml; keep all three in sync with
# docs/ARCHITECTURE.md's conventions.
#
#   ./ci.sh          # run everything (incl. the bench-regression gate)
#   ./ci.sh fast     # skip the release build and the bench gate
#                    # (dev-profile tests only)
#   ./ci.sh regen    # run every UPDATE_GOLDEN=1 refresh in one command:
#                    # tests/golden/messy_log_diagnostics.txt (resilience),
#                    # tests/golden/prelude_api.txt,
#                    # tests/golden/report_v2.json (api_surface), and
#                    # tests/golden/serve_proto.txt (serve_protocol) —
#                    # then exit. Review the diff before committing.
#
# Every step prints its wall-clock duration when it finishes, so slow
# steps are visible in CI logs.
set -euo pipefail
cd "$(dirname "$0")"

mode=${1:-}

step_name=""
step_ts=$SECONDS
step() {
    local now=$SECONDS
    if [ -n "$step_name" ]; then
        printf '    [%3ds] %s\n' "$((now - step_ts))" "$step_name"
    fi
    step_name="$*"
    step_ts=$now
    printf '\n==> %s\n' "$*"
}

if [ "$mode" = "regen" ]; then
    step "UPDATE_GOLDEN=1 cargo test -q --test resilience (messy-log diagnostics golden)"
    UPDATE_GOLDEN=1 cargo test -q --test resilience
    step "UPDATE_GOLDEN=1 cargo test -q --test api_surface (prelude + ReportV2 goldens)"
    UPDATE_GOLDEN=1 cargo test -q --test api_surface
    step "UPDATE_GOLDEN=1 cargo test -q --test serve_protocol (serve wire transcript golden)"
    UPDATE_GOLDEN=1 cargo test -q --test serve_protocol
    step "goldens regenerated"
    git --no-pager status --short tests/golden/ || true
    exit 0
fi

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [ "$mode" != "fast" ]; then
    step "cargo build --release (tier-1, part 1)"
    cargo build --release
fi

# Subsumes tier-1's `cargo test -q`: the workspace run includes the root
# façade package (its integration tests and doc-tests).
step "cargo test -q --workspace (tier-1, part 2 + all member crates)"
cargo test -q --workspace

# perfbench/ is a workspace of its own, so the run above never builds it.
# It drives the wire protocol (Request/Response lines, serde_json::Value)
# and pins the reply's field order, so test it against every change.
step "cargo test -q --offline --manifest-path perfbench/Cargo.toml (benchmark crate)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# The resilience corpus is part of the workspace run above, but gate it
# explicitly: lenient extraction over tests/corpus/messy_log.sql must
# keep extracting every well-formed statement and keep the golden
# diagnostics rendering stable (./ci.sh regen regenerates).
step "cargo test -q --test resilience (messy-log corpus + isolation property)"
cargo test -q --test resilience

# The dialect corpus runner: every dialect fixture under
# tests/corpus/dialects/ must go through the full pipeline under its own
# dialect with zero error-severity diagnostics (strict and lenient), and
# the engine session must settle to the batch graph on each.
step "cargo test -q --test dialect_corpus (per-dialect corpus runner)"
cargo test -q --test dialect_corpus

# Public-API snapshot guard: the lineagex::prelude export list and the
# Example 1 ReportV2 document are golden files (./ci.sh regen
# regenerates) — accidental API or wire-format breaks fail the build.
step "cargo test -q --test api_surface (prelude + ReportV2 golden guard)"
cargo test -q --test api_surface

# The serve battery, gated explicitly like the resilience corpus: the
# golden wire transcript (protocol drift fails the build; ./ci.sh regen
# regenerates) and the concurrency soak (every served revision must
# byte-match a batch replay of that statement prefix).
step "cargo test -q --test serve_protocol --test serve_concurrency (serve battery)"
cargo test -q --test serve_protocol
cargo test -q --test serve_concurrency

# Serve smoke: a real `lineagex serve --verbose` process on an
# OS-assigned port, a scripted `lineagex client` round-trip (ping,
# ingest, query), a metrics scrape that must show the traffic (non-zero
# request counters, a populated ingest histogram), and a clean wire
# shutdown that the server process must survive to exit 0.
step "serve smoke (lineagex serve + client round-trip + metrics scrape + wire shutdown)"
cargo build -q -p lineagex-cli
smoke_dir=$(mktemp -d)
target/debug/lineagex serve --addr 127.0.0.1:0 --verbose \
    >"$smoke_dir/serve.log" 2>"$smoke_dir/serve.events.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$smoke_dir/serve.log" | head -1 || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve smoke: server never printed its address" >&2
    cat "$smoke_dir/serve.log" >&2
    kill "$serve_pid" 2>/dev/null || true
    rm -rf "$smoke_dir"
    exit 1
fi
printf 'CREATE TABLE web (cid int, page text);\nCREATE VIEW v AS SELECT page FROM web;\n' \
    >"$smoke_dir/smoke.sql"
target/debug/lineagex client "$addr" ping
target/debug/lineagex client "$addr" ingest "$smoke_dir/smoke.sql"
target/debug/lineagex client "$addr" query web.page
# Scrape the observability registry: the scripted traffic above must be
# visible as non-zero serve counters and a populated ingest histogram.
target/debug/lineagex client "$addr" metrics >"$smoke_dir/metrics.json"
grep -qE '"serve\.requests":[1-9]' "$smoke_dir/metrics.json"
grep -qE '"engine\.ingest_us":\{"count":[1-9]' "$smoke_dir/metrics.json"
target/debug/lineagex client "$addr" shutdown
wait "$serve_pid"
grep -q "server stopped" "$smoke_dir/serve.log"
# --verbose wrote one structured event line per connection to stderr.
grep -q "event=conn_open" "$smoke_dir/serve.events.log"
grep -q "event=publish" "$smoke_dir/serve.events.log"
rm -rf "$smoke_dir"

# The workspace run above already builds and tests lineagex-engine; the
# runnable session walkthrough (which asserts cone-sized re-extraction)
# is the one engine surface it doesn't exercise.
step "cargo run --example incremental_session"
cargo run --quiet --example incremental_session

# The unified-surface walkthrough asserts (at runtime) that GraphQuery
# answers and ReportV2 bytes are identical across batch and session
# backends.
step "cargo run --example query_api"
cargo run --quiet --example query_api

step "cargo doc --no-deps --workspace (docs must keep compiling)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Perf contracts: quick re-runs of engine_bench/query_bench/serve_bench
# must keep lenient overhead < 5%, incremental speedup >= 2x, indexed
# query throughput within 30% of the committed BENCH_query.json, serve
# mixed throughput within 30% of the committed BENCH_serve.json, read
# p99 under churn within 3x of idle, and obs recording overhead under
# 3%. Needs the release profile, so `fast` skips it.
if [ "$mode" != "fast" ]; then
    step "scripts/check_bench.sh (bench-regression gate)"
    scripts/check_bench.sh
fi

step "all green"
