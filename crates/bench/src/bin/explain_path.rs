//! EXPL — "when the database connection is available" (§III): run the
//! connected mode, whose names resolve against full metadata like the
//! database's EXPLAIN, show the create-views-first stack firing on
//! missing dependencies and the traversal trace it explains Q3 with, and
//! verify the static and connected paths agree.

use lineagex_bench::section;
use lineagex_catalog::Catalog;
use lineagex_core::{lineagex, ExplainPathExtractor, QueryDict};
use lineagex_datasets::{example1, mimic};

fn main() {
    section("Connected mode on Example 1");
    let catalog = Catalog::from_ddl(example1::DDL).expect("DDL parses");
    let qd = QueryDict::from_sql(example1::QUERIES).expect("queries parse");
    let connected = ExplainPathExtractor::new(qd, catalog).run().expect("connected path succeeds");
    println!("create-first deferrals: {:?}", connected.deferrals);
    println!("processing order:       {:?}", connected.graph.order);
    assert_eq!(connected.graph.order, vec!["webinfo", "webact", "info"]);
    // Show how Q3 (webinfo) resolves its names.
    println!("\ntrace of webinfo (Q3):\n{}", connected.traces["webinfo"]);

    section("Static vs connected agreement (Example 1)");
    let static_result = lineagex(&example1::full_log()).expect("static path succeeds");
    compare(&static_result.graph, &connected.graph);

    section("Static vs connected agreement (MIMIC-like, 70 views)");
    let workload = mimic::workload();
    let static_mimic = lineagex(&workload.full_sql()).expect("static path succeeds");
    let qd = QueryDict::from_sql(
        &workload.view_statements.iter().map(|s| format!("{s};")).collect::<String>(),
    )
    .expect("views parse");
    let catalog = Catalog::from_ddl(&workload.ddl).unwrap();
    let connected_mimic = ExplainPathExtractor::new(qd, catalog).run().expect("connected path");
    compare(&static_mimic.graph, &connected_mimic.graph);

    println!("\n✔ the static and connected paths agree on catalog-complete workloads");
}

fn compare(a: &lineagex_core::LineageGraph, b: &lineagex_core::LineageGraph) {
    assert_eq!(a.queries.len(), b.queries.len(), "query counts differ");
    let mut mismatches = 0;
    for (id, qa) in &a.queries {
        let qb = &b.queries[id];
        if qa.outputs != qb.outputs || qa.cref != qb.cref || qa.tables != qb.tables {
            mismatches += 1;
            println!("  ✘ {id} differs");
            if qa.outputs != qb.outputs {
                println!("    static outputs:    {:?}", qa.output_names());
                println!("    connected outputs: {:?}", qb.output_names());
            }
            if qa.cref != qb.cref {
                println!("    static C_ref:    {:?}", qa.cref);
                println!("    connected C_ref: {:?}", qb.cref);
            }
        }
    }
    println!("  queries compared: {}, mismatches: {mismatches}", a.queries.len());
    assert_eq!(mismatches, 0, "static and connected paths must agree");
}
