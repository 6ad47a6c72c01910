//! ENGINE — the session engine's perf story on the scaling workload:
//! one-shot batch vs engine cold batch vs parallel re-extraction vs
//! incremental re-ingest of a single redefined view.
//!
//! Writes `BENCH_engine.json` into the working directory so the numbers
//! land in the repo's perf trajectory. `scripts/check_bench.sh` re-runs
//! this binary (with `BENCH_QUICK=1` for fewer repetitions) to gate the
//! lenient overhead, the incremental speedup, the one-shot scaling
//! ratio, and the server-shaped write cost in CI.

use lineagex_bench::{section, table2};
use lineagex_core::{DialectKind, LineageView, LineageX, ReportV2};
use lineagex_datasets::{generate_scaled, generator, GeneratorConfig, ScaleConfig};
use lineagex_engine::{Engine, EngineOptions};
use lineagex_sqlparse::ast::{Expr, Literal, Statement};
use serde::Serialize;
use std::time::{Duration, Instant};

const VIEWS: usize = 200;
const SCALE_VIEWS: usize = 10_000;
const SCALE_JOBS: usize = 4;

/// Back-to-back runs timed as one sample by the lenient and dialect
/// overhead estimators: one 200-view run takes a few milliseconds, so a
/// single-run sample is at the mercy of one scheduler hiccup.
const RUNS_PER_SAMPLE: usize = 8;

/// The fewest sample pairs those estimators take, quick mode included:
/// each side's best sample must be a clean one for the difference of
/// the bests to read the true overhead.
const OVERHEAD_PAIRS: usize = 40;

/// Repetition counts: best-of-5 batch runs, 30 incremental re-ingests,
/// and best-of-3 scale-tier runs normally; 2, 10, and 1 under
/// `BENCH_QUICK=1` (the CI regression gate's quick mode — same
/// workloads, less smoothing).
fn rep_counts() -> (usize, usize, usize) {
    if std::env::var_os("BENCH_QUICK").is_some() {
        (2, 10, 1)
    } else {
        (5, 30, 3)
    }
}

#[derive(Serialize)]
struct Report {
    views: usize,
    statements: usize,
    jobs: usize,
    one_shot_qps: f64,
    one_shot_lenient_qps: f64,
    lenient_overhead_pct: f64,
    dialect_overhead_pct: f64,
    engine_cold_sequential_qps: f64,
    reextract_sequential_qps: f64,
    reextract_parallel_qps: f64,
    parallel_speedup: f64,
    incremental: IncrementalReport,
    scale: ScaleReport,
}

#[derive(Serialize)]
struct IncrementalReport {
    redefined_view: String,
    cone_size: usize,
    full_refresh_ms: f64,
    incremental_refresh_ms: f64,
    speedup: f64,
}

/// The large-catalog tier. Key names carry a `_10k`/`_20k` suffix so
/// `scripts/check_bench.sh`'s flat first-match JSON scraping can never
/// confuse them with the 200-view tier above.
#[derive(Serialize)]
struct ScaleReport {
    views_10k: usize,
    components_10k: usize,
    jobs_10k: usize,
    refresh_cone_10k: usize,
    refresh_ms_10k: f64,
    full_reextract_ms_10k: f64,
    refresh_speedup_10k: f64,
    snapshot_bytes_10k: u64,
    snapshot_save_ms_10k: f64,
    snapshot_load_ms_10k: f64,
    cold_start_ms_10k: f64,
    cold_start_speedup_10k: f64,
    peak_graph_bytes_10k: i64,
    one_shot_ms_10k: f64,
    one_shot_ms_20k: f64,
    one_shot_scaling_20k: f64,
    write_ms_10k: f64,
    write_over_refresh_10k: f64,
    report_ms_10k: f64,
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// Time `runs` back-to-back calls of `f` as one sample; returns the
/// time per call.
fn time_batch<R>(runs: usize, f: &mut impl FnMut() -> R) -> Duration {
    let start = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(f());
    }
    start.elapsed() / runs as u32
}

/// Measure two workloads as interleaved back-to-back pairs of samples,
/// each sample a batch of `runs` back-to-back calls, alternating the
/// in-pair order every repetition so neither side systematically
/// inherits a warm cache or a thermal penalty. Returns the best
/// per-call time of each side plus the difference of the bests (b − a,
/// seconds) as the estimator of b's true overhead over a: scheduler and
/// allocator noise on a shared host is strictly additive, so each
/// side's minimum is its cleanest observation, and interleaving keeps
/// slow machine-wide drift from favouring whichever side ran later (the
/// old two-block scheme showed that drift as a spurious negative
/// overhead; a small-sample median of in-pair differences proved
/// noisier still). Batching keeps one preempted millisecond from
/// deciding a sample.
fn paired<A, B>(
    pairs: usize,
    runs: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Duration, Duration, f64) {
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for i in 0..pairs {
        let (ta, tb) = if i % 2 == 0 {
            let ta = time_batch(runs, &mut a);
            let tb = time_batch(runs, &mut b);
            (ta, tb)
        } else {
            let tb = time_batch(runs, &mut b);
            let ta = time_batch(runs, &mut a);
            (ta, tb)
        };
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
    }
    (best_a, best_b, best_b.as_secs_f64() - best_a.as_secs_f64())
}

fn qps(views: usize, elapsed: Duration) -> f64 {
    views as f64 / elapsed.as_secs_f64()
}

fn ms(elapsed: Duration) -> f64 {
    1e3 * elapsed.as_secs_f64()
}

/// The redefinition text for a view: the same statement with a different
/// `LIMIT`, so the engine sees changed content but identical lineage.
fn redefinition(original: &str, limit: u64) -> String {
    let mut stmt = lineagex_sqlparse::parse_statement(original).expect("workload SQL parses");
    if let Statement::CreateView { ref mut query, .. } = stmt {
        query.limit = Some(Expr::Literal(Literal::Number(limit.to_string())));
    }
    stmt.to_string()
}

fn main() {
    let (batch_reps, incremental_reps, scale_reps) = rep_counts();
    let workload =
        generator::generate(&GeneratorConfig { views: VIEWS, ..GeneratorConfig::seeded(29) });
    let sql = workload.full_sql();
    let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    section("ENGINE — workload");
    println!(
        "  {} statements ({} views), scheduler jobs = {jobs}",
        workload.statement_count(),
        VIEWS
    );

    // 1. One-shot batch: the paper's pipeline over the whole log — and
    // the same run in lenient mode, which must stay within 5% on a clean
    // log (resilience may not tax the happy path). Strict and lenient
    // run as interleaved pairs of batched samples and the overhead is
    // the difference of the best samples, clamped at 0: lenient cannot
    // meaningfully be *faster* than strict, so a negative difference is
    // measurement noise. The pair count is floored at OVERHEAD_PAIRS
    // even in quick mode, and each sample batches RUNS_PER_SAMPLE runs:
    // a single run is a few milliseconds, noisy enough on a busy host to
    // trip the 5% assertion below spuriously.
    let (one_shot, one_shot_lenient, lenient_diff) = paired(
        (8 * batch_reps).max(OVERHEAD_PAIRS),
        RUNS_PER_SAMPLE,
        || LineageX::new().run(&sql).unwrap(),
        || LineageX::new().lenient().run(&sql).unwrap(),
    );
    let lenient_overhead_pct = (100.0 * lenient_diff / one_shot.as_secs_f64()).max(0.0);

    // 1b. The dialect front end on the same log: every dialect flows
    // through the shared lexer/parser with per-token feature checks, so
    // selecting a non-default dialect on pure-ANSI input measures the
    // dispatch cost of the whole subsystem. Snowflake is the busiest
    // front end (extra comment style + QUALIFY), so it bounds the rest.
    // Same paired estimator as lenient, gated < 3%.
    let (dialect_base, _dialect_run, dialect_diff) = paired(
        (8 * batch_reps).max(OVERHEAD_PAIRS),
        RUNS_PER_SAMPLE,
        || LineageX::new().run(&sql).unwrap(),
        || LineageX::new().dialect(std::hint::black_box(DialectKind::Snowflake)).run(&sql).unwrap(),
    );
    let dialect_overhead_pct = (100.0 * dialect_diff / dialect_base.as_secs_f64()).max(0.0);

    // 2. Engine cold batch, sequential: ingest (parse) + refresh (extract).
    let cold_seq = best_of(batch_reps, || {
        let mut engine = Engine::new();
        engine.ingest(&sql).unwrap();
        engine.refresh().unwrap()
    });

    // 3/4. Pure re-extraction (no parsing), sequential vs parallel: the
    // scheduler's own cost on an already-loaded session.
    let mut seq_engine = Engine::new();
    seq_engine.ingest(&sql).unwrap();
    seq_engine.refresh().unwrap();
    let reextract_seq = best_of(batch_reps, || {
        seq_engine.invalidate_all();
        seq_engine.refresh().unwrap()
    });
    let mut par_engine = Engine::with_options(EngineOptions { jobs, ..EngineOptions::default() });
    par_engine.ingest(&sql).unwrap();
    par_engine.refresh().unwrap();
    let reextract_par = best_of(batch_reps, || {
        par_engine.invalidate_all();
        par_engine.refresh().unwrap()
    });

    // 5. Incremental re-ingest: redefine a view with a representative
    // downstream cone (the largest at most a fifth of the log — a hub,
    // but not one that drags in everything), alternating two texts so
    // every ingest is a real redefinition, and refresh after each.
    let (target, cone_size) = workload
        .view_names
        .iter()
        .map(|name| (name.clone(), seq_engine.downstream_cone(name).len()))
        .filter(|(_, cone)| *cone <= VIEWS / 5)
        .max_by_key(|(_, cone)| *cone)
        .expect("some view has a small cone");
    let original = workload
        .view_statements
        .iter()
        .find(|s| s.contains(&format!("CREATE VIEW {target} ")))
        .expect("target is a workload view");
    let texts = [redefinition(original, 1_000_001), redefinition(original, 1_000_002)];
    let incremental_start = Instant::now();
    for i in 0..incremental_reps {
        seq_engine.ingest(&texts[i % 2]).unwrap();
        let extracted = seq_engine.refresh().unwrap();
        assert_eq!(extracted, cone_size, "cone invalidation must be exact");
    }
    let incremental = incremental_start.elapsed() / incremental_reps as u32;

    // 6. The large-catalog tier: 10k views as independent diamond-stack
    // components, churned (dirty-cone refresh vs full re-extraction) and
    // persisted (binary snapshot cold-start vs re-extracting from SQL).
    let scale = run_scale_tier(scale_reps);

    let report = Report {
        views: VIEWS,
        statements: workload.statement_count(),
        jobs,
        one_shot_qps: qps(VIEWS, one_shot),
        one_shot_lenient_qps: qps(VIEWS, one_shot_lenient),
        lenient_overhead_pct,
        dialect_overhead_pct,
        engine_cold_sequential_qps: qps(VIEWS, cold_seq),
        reextract_sequential_qps: qps(VIEWS, reextract_seq),
        reextract_parallel_qps: qps(VIEWS, reextract_par),
        parallel_speedup: reextract_seq.as_secs_f64() / reextract_par.as_secs_f64(),
        incremental: IncrementalReport {
            redefined_view: target.clone(),
            cone_size,
            full_refresh_ms: ms(reextract_seq),
            incremental_refresh_ms: ms(incremental),
            speedup: reextract_seq.as_secs_f64() / incremental.as_secs_f64(),
        },
        scale,
    };

    section("ENGINE — results (best-of runs)");
    table2(
        ("mode", "throughput"),
        &[
            (
                "one-shot batch (LineageX::run)".into(),
                format!("{:.0} views/s", report.one_shot_qps),
            ),
            (
                "one-shot batch, lenient".into(),
                format!(
                    "{:.0} views/s ({:+.1}% vs strict)",
                    report.one_shot_lenient_qps, report.lenient_overhead_pct
                ),
            ),
            (
                "one-shot batch, snowflake front end".into(),
                format!("{:+.1}% vs default dialect", report.dialect_overhead_pct),
            ),
            (
                "engine cold batch, jobs=1".into(),
                format!("{:.0} views/s", report.engine_cold_sequential_qps),
            ),
            (
                "re-extract all, jobs=1".into(),
                format!("{:.0} views/s", report.reextract_sequential_qps),
            ),
            (
                format!("re-extract all, jobs={jobs}"),
                format!(
                    "{:.0} views/s ({:.2}x vs sequential)",
                    report.reextract_parallel_qps, report.parallel_speedup
                ),
            ),
            (
                format!("re-ingest {target} (cone {cone_size})"),
                format!(
                    "{:.2} ms/refresh vs {:.2} ms full ({:.1}x)",
                    report.incremental.incremental_refresh_ms,
                    report.incremental.full_refresh_ms,
                    report.incremental.speedup
                ),
            ),
        ],
    );
    if jobs == 1 {
        println!("\n  note: this machine exposes 1 CPU; the parallel scheduler can only");
        println!("  win wall-clock with jobs > 1 on a multi-core host.");
    }
    assert!(
        report.incremental.speedup > 1.0,
        "incremental re-ingest must beat re-extracting the whole log"
    );
    assert!(
        report.lenient_overhead_pct < 5.0,
        "lenient mode must stay within 5% of strict on a clean log \
         (measured {:+.1}%)",
        report.lenient_overhead_pct
    );
    assert!(
        report.dialect_overhead_pct < 3.0,
        "the dialect front end must stay within 3% of the default path \
         on ANSI input (measured {:+.1}%)",
        report.dialect_overhead_pct
    );

    section("ENGINE — 10k-view scale tier");
    table2(
        ("phase", "result"),
        &[
            (
                format!("catalog ({} comps, jobs={})", report.scale.components_10k, SCALE_JOBS),
                format!("{} views", report.scale.views_10k),
            ),
            ("re-extract all".into(), format!("{:.0} ms", report.scale.full_reextract_ms_10k)),
            (
                format!("dirty-cone refresh (cone {})", report.scale.refresh_cone_10k),
                format!(
                    "{:.2} ms vs {:.0} ms full ({:.0}x)",
                    report.scale.refresh_ms_10k,
                    report.scale.full_reextract_ms_10k,
                    report.scale.refresh_speedup_10k
                ),
            ),
            (
                "snapshot save / load".into(),
                format!(
                    "{:.1} ms / {:.1} ms ({} bytes)",
                    report.scale.snapshot_save_ms_10k,
                    report.scale.snapshot_load_ms_10k,
                    report.scale.snapshot_bytes_10k
                ),
            ),
            (
                "cold start: snapshot vs SQL".into(),
                format!(
                    "{:.1} ms vs {:.0} ms ({:.0}x)",
                    report.scale.snapshot_load_ms_10k,
                    report.scale.cold_start_ms_10k,
                    report.scale.cold_start_speedup_10k
                ),
            ),
            ("peak graph + index bytes".into(), format!("{}", report.scale.peak_graph_bytes_10k)),
            (
                "one-shot extract + report: 10k / 20k".into(),
                format!(
                    "{:.0} ms / {:.0} ms ({:.2}x per doubling)",
                    report.scale.one_shot_ms_10k,
                    report.scale.one_shot_ms_20k,
                    report.scale.one_shot_scaling_20k
                ),
            ),
            (
                "server-shaped write (ingest + publish + free)".into(),
                format!(
                    "{:.2} ms ({:.2}x the dirty-cone refresh)",
                    report.scale.write_ms_10k, report.scale.write_over_refresh_10k
                ),
            ),
            (
                "report render (compact, index edges)".into(),
                format!("{:.1} ms", report.scale.report_ms_10k),
            ),
        ],
    );

    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_engine.json", json + "\n").expect("can write BENCH_engine.json");
    println!("\n  wrote BENCH_engine.json");
}

/// Measure the large-catalog tier and return its report block.
fn run_scale_tier(reps: usize) -> ScaleReport {
    let config = ScaleConfig::with_views(31, SCALE_VIEWS);
    let workload = generate_scaled(&config);
    let sql = workload.full_sql();
    let options = || EngineOptions { jobs: SCALE_JOBS, ..EngineOptions::default() };

    // One-shot scaling: `lineagex extract`'s library work (extraction +
    // the rendered report) at 10k and twice that, as interleaved pairs.
    // The report renders while it serialises, so the closure must
    // serialise it. The time ratio is machine-independent: 2 for a
    // linear pipeline, 4 for a quadratic one.
    let sql_20k = generate_scaled(&ScaleConfig::with_views(31, 2 * SCALE_VIEWS)).full_sql();
    let one_shot = |sql: &str| {
        let result = LineageX::new().run(sql).unwrap();
        ReportV2::from_graph(&result.graph, &result.diagnostics).to_json()
    };
    let (one_shot_10k, one_shot_20k, _) =
        paired(reps.max(2), 1, || one_shot(&sql), || one_shot(&sql_20k));
    drop(sql_20k);

    // Full re-extraction of the settled catalog: the baseline a
    // dirty-cone refresh is measured against.
    let mut engine = Engine::with_options(options());
    engine.ingest(&sql).unwrap();
    engine.refresh().unwrap();
    let full_extract = best_of(reps.max(2), || {
        engine.invalidate_all();
        engine.refresh().unwrap()
    });

    // What a served `report` encodes once per revision: the settled
    // graph's document, compact, with edges from the maintained index.
    let report_render =
        best_of(reps.max(2), || serde_json::to_string(&engine.report_v2().unwrap()).unwrap());

    // Dirty-cone refresh: redefine the deepest view (every churn step is
    // a real redefinition), so refresh re-extracts exactly its cone.
    let churn_reps = (10 * reps).max(10);
    let cone = workload.deep_cone.len();
    let churn_start = Instant::now();
    for i in 0..churn_reps {
        engine.ingest(&workload.churn_statement(i)).unwrap();
        let extracted = engine.refresh().unwrap();
        assert_eq!(extracted, cone, "churn must dirty exactly the deep cone");
    }
    let refresh = churn_start.elapsed() / churn_reps as u32;

    // Server-shaped writes: ingest, then publish while the previous
    // snapshot is still held (as a server's readers hold it), then free
    // the previous snapshot. Every other step redefines the deep view
    // with a fresh extra output column, so the index gains a column near
    // the front of its id order (and the next step retracts it): the
    // id-remap path is timed, not only same-shape redefinitions.
    let mut published = engine.publish().unwrap();
    let write_start = Instant::now();
    for i in 0..churn_reps {
        let statement = workload.churn_statement(i);
        let statement = if i % 2 == 1 { widened(&statement, i) } else { statement };
        engine.ingest(&statement).unwrap();
        let next = engine.publish().unwrap();
        assert_eq!(
            engine.stats().last_refresh_extractions,
            cone as u64,
            "each write must dirty exactly the deep cone"
        );
        drop(std::mem::replace(&mut published, next));
    }
    let write = write_start.elapsed() / churn_reps as u32;
    drop(published);

    // Snapshot persistence: save the settled session, then cold-start
    // from the file vs re-ingesting + re-extracting the SQL. Publishing
    // is part of both paths — a server is not up until it can answer.
    let snapshot_path = std::env::temp_dir().join("lineagex_engine_bench_10k.lxsn");
    let save = best_of(reps, || engine.save_snapshot(&snapshot_path).unwrap());
    let snapshot_bytes = std::fs::metadata(&snapshot_path).unwrap().len();
    engine.publish().unwrap();
    let cold_start = best_of(reps, || {
        let mut engine = Engine::with_options(options());
        engine.ingest(&sql).unwrap();
        engine.publish().unwrap()
    });
    let load = best_of(reps, || {
        let mut engine = Engine::load_snapshot(&snapshot_path, options()).unwrap();
        engine.publish().unwrap()
    });
    std::fs::remove_file(&snapshot_path).ok();

    let peak_graph_bytes = lineagex_obs::registry().gauge("engine.peak_graph_bytes").get();

    ScaleReport {
        views_10k: config.views(),
        components_10k: config.components,
        jobs_10k: SCALE_JOBS,
        refresh_cone_10k: cone,
        refresh_ms_10k: ms(refresh),
        full_reextract_ms_10k: ms(full_extract),
        refresh_speedup_10k: full_extract.as_secs_f64() / refresh.as_secs_f64(),
        snapshot_bytes_10k: snapshot_bytes,
        snapshot_save_ms_10k: ms(save),
        snapshot_load_ms_10k: ms(load),
        cold_start_ms_10k: ms(cold_start),
        cold_start_speedup_10k: cold_start.as_secs_f64() / load.as_secs_f64(),
        peak_graph_bytes_10k: peak_graph_bytes,
        one_shot_ms_10k: ms(one_shot_10k),
        one_shot_ms_20k: ms(one_shot_20k),
        one_shot_scaling_20k: one_shot_20k.as_secs_f64() / one_shot_10k.as_secs_f64(),
        write_ms_10k: ms(write),
        write_over_refresh_10k: write.as_secs_f64() / refresh.as_secs_f64(),
        report_ms_10k: ms(report_render),
    }
}

/// A churn statement with one more output column, named for step `i`:
/// `SELECT v0, v1, v2 FROM ..` becomes `SELECT v0, v1, v2, v0 AS
/// fresh_<i> FROM ..`. Downstream views select their columns by name,
/// so the dirty cone is unchanged.
fn widened(statement: &str, i: usize) -> String {
    statement.replacen(" FROM ", &format!(", v0 AS fresh_{i} FROM "), 1)
}
