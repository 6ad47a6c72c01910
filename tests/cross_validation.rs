//! Cross-validation: connected mode resolves names with the static
//! extractor, inside its own closed-world check (an unknown relation is
//! an error), create-views-first deferrals and merge of the log's DDL
//! into the `--ddl` catalog. On catalog-complete workloads it must give
//! the static run's lineage, and both modes must match ground truth.

use lineagex::catalog::Catalog;
use lineagex::core::{ExplainPathExtractor, QueryDict};
use lineagex::datasets::{example1, generator, mimic, GeneratorConfig};
use lineagex::prelude::*;

fn explain_extract(ddl: &str, views_sql: &str) -> LineageResult {
    let qd = QueryDict::from_sql(views_sql).unwrap();
    ExplainPathExtractor::new(qd, Catalog::from_ddl(ddl).unwrap()).run().unwrap()
}

fn assert_paths_agree(static_result: &LineageResult, connected: &LineageResult) {
    assert_eq!(static_result.graph.queries.len(), connected.graph.queries.len());
    for (id, qs) in &static_result.graph.queries {
        let qc = &connected.graph.queries[id];
        assert_eq!(qs.outputs, qc.outputs, "{id}: outputs disagree");
        assert_eq!(qs.cref, qc.cref, "{id}: C_ref disagrees");
        assert_eq!(qs.tables, qc.tables, "{id}: table lineage disagrees");
    }
    assert_eq!(static_result.graph.nodes.len(), connected.graph.nodes.len());
    for (key, ns) in &static_result.graph.nodes {
        assert_eq!(Some(ns), connected.graph.nodes.get(key), "{key}: nodes disagree");
    }
}

#[test]
fn paths_agree_on_example1() {
    let static_result = lineagex(&example1::full_log()).unwrap();
    let connected = explain_extract(example1::DDL, example1::QUERIES);
    assert_paths_agree(&static_result, &connected);
}

#[test]
fn paths_agree_on_mimic() {
    let workload = mimic::workload();
    let static_result = lineagex(&workload.full_sql()).unwrap();
    let views: String = workload.view_statements.iter().map(|s| format!("{s};")).collect();
    let connected = explain_extract(&workload.ddl, &views);
    assert_paths_agree(&static_result, &connected);
}

#[test]
fn paths_agree_on_generated_workloads() {
    for seed in 0..10u64 {
        let workload = generator::generate(&GeneratorConfig::seeded(seed));
        let static_result =
            lineagex(&workload.full_sql()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let views: String = workload.view_statements.iter().map(|s| format!("{s};")).collect();
        let connected = explain_extract(&workload.ddl, &views);
        assert_paths_agree(&static_result, &connected);
    }
}

#[test]
fn both_paths_match_generated_ground_truth() {
    for seed in [100u64, 200, 300] {
        let workload = generator::generate(&GeneratorConfig::seeded(seed));
        let static_result = lineagex(&workload.full_sql()).unwrap();
        let failures = workload.ground_truth.diff(&static_result.graph);
        assert!(failures.is_empty(), "static seed {seed}:\n{}", failures.join("\n"));

        let views: String = workload.view_statements.iter().map(|s| format!("{s};")).collect();
        let connected = explain_extract(&workload.ddl, &views);
        let failures = workload.ground_truth.diff(&connected.graph);
        assert!(failures.is_empty(), "connected seed {seed}:\n{}", failures.join("\n"));
    }
}

#[test]
fn connected_mode_is_strict_about_metadata() {
    // Static mode infers unknown externals; connected mode errors like
    // Postgres — the documented semantic difference between the paths.
    let views = "CREATE VIEW v AS SELECT w.page FROM missing_table w;";
    let static_result = lineagex(views).unwrap();
    assert!(static_result.inferred.contains_key("missing_table"));

    let qd = QueryDict::from_sql(views).unwrap();
    let err = ExplainPathExtractor::new(qd, Catalog::new()).run().unwrap_err();
    assert!(matches!(err, LineageError::Database(_)));
}

#[test]
fn paths_agree_on_quoted_declared_and_insert_target_names() {
    // An INSERT without a column list takes its target's column names,
    // and a view its declared ones, as spelled: the parser already
    // folded the unquoted ones, so a quoted mixed-case name stays.
    let insert_ddl = r#"CREATE TABLE dst ("Page" int, cid int); CREATE TABLE src (x int, y int);"#;
    let insert = "INSERT INTO dst SELECT x, y FROM src;";
    let view_ddl = "CREATE TABLE t (x int, y int);";
    let views =
        r#"CREATE VIEW v("Page", y) AS SELECT x, y FROM t; CREATE VIEW w AS SELECT "Page" FROM v;"#;
    for (ddl, log, id, names) in
        [(insert_ddl, insert, "dst", ["Page", "cid"]), (view_ddl, views, "v", ["Page", "y"])]
    {
        let static_result = lineagex(&format!("{ddl}\n{log}")).unwrap();
        let connected = explain_extract(ddl, log);
        for result in [&static_result, &connected] {
            assert_eq!(result.graph.queries[id].output_names(), names, "{log}");
            assert_eq!(result.graph.nodes[id].columns, names, "{log}");
        }
        assert_paths_agree(&static_result, &connected);
    }
    let w = &lineagex(&format!("{view_ddl}\n{views}")).unwrap().graph.queries["w"];
    assert_eq!(w.outputs[0].ccon, [SourceColumn::new("v", "Page")].into());
    assert!(!w.partial);
}
