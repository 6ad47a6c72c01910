#!/usr/bin/env bash
# CI gate for the LineageX workspace. Mirrors what a hosted pipeline
# would run — and is mirrored step-for-step by
# .github/workflows/ci.yml (the first step, scripts/check_ci_mirror.sh,
# fails when the two step lists differ); keep all three in sync with
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

# The hosted pipeline must run these same steps, in order and under the
# same names: compare the two step lists before building anything.
step "scripts/check_ci_mirror.sh (ci.yml mirrors ci.sh)"
scripts/check_ci_mirror.sh

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

# --jobs parity, gated explicitly like the corpora above. One-shot
# extraction runs the deferral stack once per connected component on a
# pool, and merges the components by the log position of each stack's
# root: extract --json, --diagnostics-json, the processing order and
# deferral lines, query --format json and strict error text must be
# byte-identical at --jobs 1 (one stack), the default and --jobs 4, on
# every corpus under tests/corpus/, strict and lenient, a cycle log, the
# --no-auto-inference ablation, a view deferred behind an unknown
# external and an external scanned from two components; --save-snapshot
# writes its .lxsn from the same batch run and must change none of
# those outputs, --json-v1 and the summary included. The core proptest holds the
# whole LineageResult of InferenceEngine at jobs 2 and 4 to jobs 1 on
# generated logs, in and out of order, with cycles, shared externals and
# repeat writers, strict and lenient, with and without the stack and
# tracing.
step "cargo test -q -p lineagex-cli -p lineagex-core -- across_jobs one_shot_log_semantics (--jobs output parity)"
cargo test -q -p lineagex-cli -p lineagex-core -- across_jobs one_shot_log_semantics

# Connected mode's paper artefact: the explain_path bin must keep
# Example 1's create-first order and find no static/connected mismatch
# on Example 1 and MIMIC. Its tests run in the workspace test steps.
step "cargo run -q -p lineagex-bench --bin explain_path (connected mode)"
cargo run -q -p lineagex-bench --bin explain_path

# Public-API snapshot guard: the lineagex::prelude export list and the
# Example 1 ReportV2 document are golden files (./ci.sh regen
# regenerates) — accidental API or wire-format breaks fail the build.
step "cargo test -q --test api_surface (prelude + ReportV2 golden guard)"
cargo test -q --test api_surface

# The structurally shared graph containers: the core crate's proptests
# drive random edits against BTreeMap/Vec reference models (clones must
# never change), and a one-view write on a 10-component engine must
# publish a revision sharing every leaf outside the written component
# (a CREATE TABLE or a DROP VIEW: every node leaf outside its key).
step "cargo test -q -p lineagex-core shared --test shared_graph (structurally shared graph)"
cargo test -q -p lineagex-core shared
cargo test -q --test shared_graph

# The serve battery, gated explicitly like the resilience corpus: the
# golden wire transcript (protocol drift fails the build; ./ci.sh regen
# regenerates) and the concurrency soak (every served revision must
# byte-match a batch replay of that statement prefix).
step "cargo test -q --test serve_protocol --test serve_concurrency (serve battery)"
cargo test -q --test serve_protocol
cargo test -q --test serve_concurrency

# The served query path, gated explicitly: the reply `serve` writes from
# a traversal's id-level cone must have the owned QueryReport's bytes
# for every spec shape on every backend, strict and lenient; served
# query replies must match the in-process reference while a view turns
# partial and clean again; and a client that pipelines requests without
# reading the replies must not keep a shut-down server from stopping.
step "cargo test -q cone writer + write timeout (served query bytes, stuck client)"
cargo test -q -p lineagex-core indexed_execution_matches_the_string_walk
cargo test -q --test engine_equivalence indexed_traversal_matches_string_walk
cargo test -q --test serve_protocol -- lenient_query_replies a_client_that_stops_reading

# Serve smoke: a real `lineagex serve --verbose` process on an
# OS-assigned port, a scripted `lineagex client` round-trip (ping,
# ingest, query, two reports at one revision), a metrics scrape that
# must show the traffic (non-zero request counters, a populated ingest
# histogram, the second report served from the first one's body), and
# a clean wire shutdown that the server process must survive to exit 0.
# Then the README's snapshot flow: `extract --save-snapshot` writes the
# batch run as a session, and a second server restored from it
# (`serve --load-snapshot`) must answer a query with `v.page`.
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
target/debug/lineagex client "$addr" report >/dev/null
target/debug/lineagex client "$addr" report >/dev/null
# Scrape the observability registry: the scripted traffic above must be
# visible as non-zero serve counters and a populated ingest histogram.
target/debug/lineagex client "$addr" metrics >"$smoke_dir/metrics.json"
grep -qE '"serve\.requests":[1-9]' "$smoke_dir/metrics.json"
grep -qE '"engine\.ingest_us":\{"count":[1-9]' "$smoke_dir/metrics.json"
grep -qE '"serve\.report_cache\.hits":[1-9]' "$smoke_dir/metrics.json"
target/debug/lineagex client "$addr" shutdown
wait "$serve_pid"
grep -q "server stopped" "$smoke_dir/serve.log"
# --verbose wrote one structured event line per connection to stderr.
grep -q "event=conn_open" "$smoke_dir/serve.events.log"
grep -q "event=publish" "$smoke_dir/serve.events.log"
target/debug/lineagex extract "$smoke_dir/smoke.sql" --save-snapshot "$smoke_dir/smoke.lxsn"
target/debug/lineagex serve --addr 127.0.0.1:0 --load-snapshot "$smoke_dir/smoke.lxsn" \
    >"$smoke_dir/restored.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$smoke_dir/restored.log" | head -1 || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve smoke: the restored server never printed its address" >&2
    cat "$smoke_dir/restored.log" >&2
    kill "$serve_pid" 2>/dev/null || true
    rm -rf "$smoke_dir"
    exit 1
fi
target/debug/lineagex client "$addr" query web.page >"$smoke_dir/query.json"
grep -q '"ok":true' "$smoke_dir/query.json"
grep -q '"column":"v.page"' "$smoke_dir/query.json"
target/debug/lineagex client "$addr" shutdown
wait "$serve_pid"
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
# 3%; alloc_bench's live bytes per held view (dictionary and settled
# graph, 20k scaled and 5k rich logs) and its peak live heap per view
# while lexing and parsing and while rendering the report must stay
# within 2% of the committed BENCH_alloc.json (exact allocation counts,
# so CHECK_BENCH_FLOOR scales none of these). Needs the release profile,
# so `fast` skips it.
if [ "$mode" != "fast" ]; then
    step "scripts/check_bench.sh (bench-regression gate)"
    scripts/check_bench.sh
fi

step "all green"
