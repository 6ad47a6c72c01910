//! PERF — end-to-end lineage extraction: LineageX static path, the
//! connected mode, and the SQLLineage-like baseline on the same
//! workloads, plus downstream artefact rendering.

use criterion::{criterion_group, criterion_main, Criterion};
use lineagex_baseline::SqlLineageLike;
use lineagex_catalog::Catalog;
use lineagex_core::{lineagex, ExplainPathExtractor, QueryDict};
use lineagex_datasets::{example1, mimic};
use lineagex_viz::{to_dot, to_html, to_output_json};

fn bench_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("extract");

    let ex1 = example1::full_log();
    group.bench_function("lineagex/example1", |b| {
        b.iter(|| lineagex(std::hint::black_box(&ex1)).unwrap())
    });
    group.bench_function("baseline/example1", |b| {
        b.iter(|| SqlLineageLike::new().extract(std::hint::black_box(&ex1)).unwrap())
    });

    let mimic_sql = mimic::workload().full_sql();
    group.sample_size(20);
    group.bench_function("lineagex/mimic_70_views", |b| {
        b.iter(|| lineagex(std::hint::black_box(&mimic_sql)).unwrap())
    });
    group.bench_function("baseline/mimic_70_views", |b| {
        b.iter(|| SqlLineageLike::new().extract(std::hint::black_box(&mimic_sql)).unwrap())
    });

    // Connected mode: the create-views-first stack over the DDL catalog.
    let workload = mimic::workload();
    let views_sql: String = workload.view_statements.iter().map(|s| format!("{s};")).collect();
    group.bench_function("explain_path/mimic_70_views", |b| {
        b.iter(|| {
            let qd = QueryDict::from_sql(std::hint::black_box(&views_sql)).unwrap();
            ExplainPathExtractor::new(qd, Catalog::from_ddl(&workload.ddl).unwrap()).run().unwrap()
        })
    });
    group.finish();

    // Rendering costs for the UI artefacts.
    let graph = lineagex(&mimic_sql).unwrap().graph;
    let mut render = c.benchmark_group("render");
    render
        .bench_function("json/mimic", |b| b.iter(|| to_output_json(std::hint::black_box(&graph))));
    render.bench_function("dot/mimic", |b| b.iter(|| to_dot(std::hint::black_box(&graph))));
    render.bench_function("html/mimic", |b| b.iter(|| to_html(std::hint::black_box(&graph))));
    render.finish();
}

criterion_group!(benches, bench_extract);
criterion_main!(benches);
