//! ALLOC — heap allocations per stage of a one-shot extraction, and the
//! bytes each held view keeps resident.
//!
//! A counting global allocator (this binary's only) records every
//! allocation while the binary makes the library calls of `lineagex
//! extract <log> --json <out>`:
//!
//! * `lex_parse` — parsing the whole log into statements (then dropped);
//! * `dictionary` — building the Query Dictionary (it parses again);
//! * `inference` — the batch run over that dictionary;
//! * `render` — writing the `ReportV2` JSON document.
//!
//! Each stage reports its allocation count, the bytes it asked for (a
//! reallocation counts once, at its new size) and the highest live heap
//! of the process while it ran. Two live-heap readings show what a held
//! view keeps: the bytes the dictionary holds, and the bytes the settled
//! batch result holds once the dictionary is gone, both also per view.
//! Two logs: the 20,000-view scaled log (100 components of 200 views) and
//! the 5,000-view rich log, the inputs of perfbench's `extract-20k` and
//! `extract-rich-5k` at seed 21.
//!
//! Extraction runs with one job, so the counts repeat exactly from run to
//! run: `scripts/check_bench.sh` re-runs this binary and holds the live
//! bytes per view to the committed `BENCH_alloc.json`. Regenerate it from
//! the repo root:
//!
//! ```sh
//! cargo run --release -p lineagex-bench --bin alloc_bench
//! ```

use lineagex_bench::{section, table2};
use lineagex_catalog::Catalog;
use lineagex_core::{DialectKind, ExtractOptions, InferenceEngine, QueryDict, ReportV2};
use lineagex_datasets::{generate_scaled, generator, GeneratorConfig, ScaleConfig};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator, counting calls, requested bytes, live bytes and
/// the highest live bytes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Count `size` more live bytes.
fn grow(size: usize) {
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        REQUESTED.fetch_add(new_size as u64, Relaxed);
        grow(new_size);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one stage allocated, and the highest live heap of the process
/// while it ran.
#[derive(Serialize, Clone, Copy)]
struct Stage {
    allocations: u64,
    bytes: u64,
    peak_live_bytes: u64,
}

/// Run `f`, returning its result and what it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Stage) {
    let (allocations, bytes) = (ALLOCATIONS.load(Relaxed), REQUESTED.load(Relaxed));
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let out = f();
    let stage = Stage {
        allocations: ALLOCATIONS.load(Relaxed) - allocations,
        bytes: REQUESTED.load(Relaxed) - bytes,
        peak_live_bytes: PEAK.load(Relaxed),
    };
    (out, stage)
}

#[derive(Serialize)]
struct LogReport {
    views: usize,
    lex_parse: Stage,
    dictionary: Stage,
    inference: Stage,
    render: Stage,
    /// Allocations of the three stages of `lineagex extract`, per view.
    allocations_per_view: f64,
    dict_live_bytes: u64,
    graph_live_bytes: u64,
    dict_live_bytes_per_view: f64,
    graph_live_bytes_per_view: f64,
}

#[derive(Serialize)]
struct Report {
    scaled_20k: LogReport,
    rich_5k: LogReport,
}

fn measure(sql: &str, views: usize) -> LogReport {
    let dialect = DialectKind::Ansi;
    let (statements, lex_parse) =
        counted(|| lineagex_sqlparse::parse_sql_spanned_with(sql, dialect).expect("log parses"));
    drop(statements);

    let before = LIVE.load(Relaxed);
    let (dict, dictionary) =
        counted(|| QueryDict::from_sql_dialect(sql, false, dialect).expect("log parses"));
    let dict_live_bytes = LIVE.load(Relaxed) - before;

    let catalog = Catalog::new();
    let options = ExtractOptions::default();
    let (result, inference) =
        counted(|| InferenceEngine::over(dict, &catalog, options).jobs(1).run().expect("runs"));
    let graph_live_bytes = LIVE.load(Relaxed) - before;

    let (json, render) =
        counted(|| ReportV2::from_graph(&result.graph, &result.diagnostics).to_json());
    assert_eq!(result.graph.queries.len(), views, "every view extracted");
    drop((json, result));

    let allocations = dictionary.allocations + inference.allocations + render.allocations;
    LogReport {
        views,
        lex_parse,
        dictionary,
        inference,
        render,
        allocations_per_view: allocations as f64 / views as f64,
        dict_live_bytes,
        graph_live_bytes,
        dict_live_bytes_per_view: dict_live_bytes as f64 / views as f64,
        graph_live_bytes_per_view: graph_live_bytes as f64 / views as f64,
    }
}

fn print(name: &str, r: &LogReport) {
    section(&format!("ALLOC — {name} ({} views)", r.views));
    let stage = |s: &Stage| {
        let (n, bytes, peak) = (s.allocations, s.bytes, s.peak_live_bytes);
        format!("{n:>10} allocations  {bytes:>12} bytes  peak live {peak:>11}")
    };
    table2(
        ("stage", "allocated"),
        &[
            ("lex + parse".into(), stage(&r.lex_parse)),
            ("dictionary".into(), stage(&r.dictionary)),
            ("inference".into(), stage(&r.inference)),
            ("render".into(), stage(&r.render)),
            ("allocations / view".into(), format!("{:.0}", r.allocations_per_view)),
            (
                "live: dictionary".into(),
                format!("{} bytes ({:.0} / view)", r.dict_live_bytes, r.dict_live_bytes_per_view),
            ),
            (
                "live: batch result".into(),
                format!("{} bytes ({:.0} / view)", r.graph_live_bytes, r.graph_live_bytes_per_view),
            ),
        ],
    );
}

fn main() {
    let config = ScaleConfig::new(21, 100, 50, 50);
    let scaled_20k = measure(&generate_scaled(&config).full_sql(), config.views());
    print("scaled log", &scaled_20k);

    let config =
        GeneratorConfig { views: 5_000, shuffle_statements: true, ..GeneratorConfig::seeded(21) };
    let rich_5k = measure(&generator::generate(&config).full_sql(), config.views);
    print("rich log", &rich_5k);

    let report = Report { scaled_20k, rich_5k };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_alloc.json", json + "\n").expect("can write BENCH_alloc.json");
    println!("\n  wrote BENCH_alloc.json");
}
