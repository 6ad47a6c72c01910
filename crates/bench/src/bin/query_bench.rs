//! QUERY — the GraphQuery layer's traversal throughput on the 200-view
//! scaling workload: full cone queries (impact-style), upstream
//! closures, depth-limited cones, edge-kind-filtered cones, and
//! table-level explores, all over the interned `GraphIndex` (the path
//! every `LineageView` backend serves), plus an indexed-vs-string-walk
//! comparison against the `run_on_unindexed` test reference.
//!
//! Writes `BENCH_query.json` into the working directory so the query
//! layer joins the repo's perf trajectory alongside `BENCH_engine.json`.
//! `scripts/check_bench.sh` re-runs this binary (with `BENCH_QUICK=1`
//! for fewer repetitions) and fails CI when the indexed throughput
//! regresses more than 30% below the committed numbers.

use lineagex_bench::section;
use lineagex_core::{lineagex, EdgeKind, GraphIndex, LineageView, QuerySpec, SourceColumn};
use lineagex_datasets::{generator, GeneratorConfig};
use serde::Serialize;
use std::time::{Duration, Instant};

const VIEWS: usize = 200;

/// Best-of repetitions: 5 normally, 2 under `BENCH_QUICK=1` (the CI
/// regression gate's quick mode).
fn reps() -> usize {
    if std::env::var_os("BENCH_QUICK").is_some() {
        2
    } else {
        5
    }
}

#[derive(Serialize)]
struct Report {
    views: usize,
    origin_columns: usize,
    downstream_cone_qps: f64,
    upstream_closure_qps: f64,
    depth3_cone_qps: f64,
    contribute_only_qps: f64,
    table_explore_qps: f64,
    avg_cone_columns: f64,
    max_cone_columns: usize,
    index_build_ms: f64,
    index_columns: usize,
    index_edges: usize,
    string_walk_downstream_qps: f64,
    string_walk_upstream_qps: f64,
    index_speedup_downstream: f64,
    index_speedup_upstream: f64,
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

fn qps(queries: usize, elapsed: Duration) -> f64 {
    queries as f64 / elapsed.as_secs_f64()
}

fn main() {
    let reps = reps();
    let workload =
        generator::generate(&GeneratorConfig { views: VIEWS, ..GeneratorConfig::seeded(29) });
    let sql = workload.full_sql();
    let mut view = lineagex(&sql).expect("workload extracts");
    let graph = view.settled_graph().expect("batch settles").clone();

    let build_start = Instant::now();
    let index = GraphIndex::build(&graph);
    let index_build = build_start.elapsed();

    // Every column of every relation is an origin: the worst-case sweep
    // a lineage service answering per-column questions would face.
    let origins: Vec<SourceColumn> = graph
        .nodes
        .values()
        .flat_map(|n| n.columns.iter().map(|c| SourceColumn::new(&n.name, c)))
        .collect();
    let tables: Vec<String> = graph.nodes.keys().cloned().collect();

    section("QUERY — workload");
    println!(
        "  {} statements ({} views), {} origin columns, {} relations",
        workload.statement_count(),
        VIEWS,
        origins.len(),
        tables.len()
    );
    println!(
        "  index: {} columns, {} merged edges, built in {:.2} ms",
        index.column_count(),
        index.edge_count(),
        1e3 * index_build.as_secs_f64()
    );

    let sweep = |spec_for: &dyn Fn(&SourceColumn) -> QuerySpec| -> (Duration, usize, usize) {
        let mut total = 0usize;
        let mut max = 0usize;
        let elapsed = best_of(reps, || {
            total = 0;
            max = 0;
            for origin in &origins {
                let answer = spec_for(origin).run_with(&index);
                total += answer.columns.len();
                max = max.max(answer.columns.len());
            }
        });
        (elapsed, total, max)
    };
    // The legacy string-keyed walk over the same specs — the reference
    // implementation the indexed path is asserted byte-identical to.
    let string_sweep = |spec_for: &dyn Fn(&SourceColumn) -> QuerySpec| -> Duration {
        best_of(reps, || {
            for origin in &origins {
                std::hint::black_box(spec_for(origin).run_on_unindexed(&graph));
            }
        })
    };

    let downstream_spec =
        |o: &SourceColumn| QuerySpec::new().from_column(&o.table, &o.column).downstream();
    let upstream_spec =
        |o: &SourceColumn| QuerySpec::new().from_column(&o.table, &o.column).upstream();

    let (down, down_total, down_max) = sweep(&downstream_spec);
    let (up, _, _) = sweep(&upstream_spec);
    let (depth3, _, _) =
        sweep(&|o| QuerySpec::new().from_column(&o.table, &o.column).downstream().max_depth(3));
    let (contribute, _, _) = sweep(&|o| {
        QuerySpec::new()
            .from_column(&o.table, &o.column)
            .downstream()
            .edge_kind(EdgeKind::Contribute)
            .edge_kind(EdgeKind::Both)
    });
    let string_down = string_sweep(&downstream_spec);
    let string_up = string_sweep(&upstream_spec);

    let explore_elapsed = best_of(reps, || {
        for table in &tables {
            std::hint::black_box(
                QuerySpec::new().from_table(table).table_level().max_depth(1).run_with(&index),
            );
        }
    });

    let report = Report {
        views: VIEWS,
        origin_columns: origins.len(),
        downstream_cone_qps: qps(origins.len(), down),
        upstream_closure_qps: qps(origins.len(), up),
        depth3_cone_qps: qps(origins.len(), depth3),
        contribute_only_qps: qps(origins.len(), contribute),
        table_explore_qps: qps(tables.len(), explore_elapsed),
        avg_cone_columns: down_total as f64 / origins.len() as f64,
        max_cone_columns: down_max,
        index_build_ms: 1e3 * index_build.as_secs_f64(),
        index_columns: index.column_count(),
        index_edges: index.edge_count(),
        string_walk_downstream_qps: qps(origins.len(), string_down),
        string_walk_upstream_qps: qps(origins.len(), string_up),
        index_speedup_downstream: string_down.as_secs_f64() / down.as_secs_f64(),
        index_speedup_upstream: string_up.as_secs_f64() / up.as_secs_f64(),
    };

    section("QUERY — GraphQuery traversal throughput (indexed)");
    println!("  downstream cone      : {:>10.0} queries/s", report.downstream_cone_qps);
    println!("  upstream closure     : {:>10.0} queries/s", report.upstream_closure_qps);
    println!("  depth-3 cone         : {:>10.0} queries/s", report.depth3_cone_qps);
    println!("  contribute-only cone : {:>10.0} queries/s", report.contribute_only_qps);
    println!("  table-level explore  : {:>10.0} queries/s", report.table_explore_qps);
    println!(
        "  cone size            : avg {:.1} columns, max {}",
        report.avg_cone_columns, report.max_cone_columns
    );

    section("QUERY — indexed vs string walk");
    println!(
        "  downstream cone      : {:>10.0} vs {:>8.0} queries/s ({:.1}x)",
        report.downstream_cone_qps,
        report.string_walk_downstream_qps,
        report.index_speedup_downstream
    );
    println!(
        "  upstream closure     : {:>10.0} vs {:>8.0} queries/s ({:.1}x)",
        report.upstream_closure_qps, report.string_walk_upstream_qps, report.index_speedup_upstream
    );

    // Downstream is where the string walk's per-hop whole-dictionary
    // scan hurts (O(queries) per BFS pop): the index must win by 5x or
    // more. The string walk's upstream neighbours were already direct
    // map lookups, so there the index only has to never lose.
    assert!(
        report.index_speedup_downstream >= 5.0,
        "the interned index must be at least 5x the string walk downstream \
         (measured {:.1}x)",
        report.index_speedup_downstream
    );
    assert!(
        report.index_speedup_upstream >= 1.0,
        "the interned index must not regress the upstream closure \
         (measured {:.1}x)",
        report.index_speedup_upstream
    );

    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_query.json", json + "\n").expect("can write BENCH_query.json");
    println!("\n  wrote BENCH_query.json");
}
