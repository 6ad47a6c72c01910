//! FIG5 — regenerate Figure 5 / §IV steps 1–4: the full demonstration
//! walkthrough, producing the JSON and HTML artefacts the paper's API
//! returns and verifying the impact-analysis answer.

use lineagex_bench::{join, section};
use lineagex_core::{lineagex, LineageGraph, QuerySpec, SourceColumn};
use lineagex_datasets::example1;
use lineagex_viz::{to_dot, to_html, to_output_json};

fn main() {
    section("FIG 5 — Step 1: get started");
    let result = lineagex(&example1::full_log()).expect("extraction succeeds");
    std::fs::create_dir_all("target/fig5").unwrap();
    std::fs::write("target/fig5/output.json", to_output_json(&result.graph)).unwrap();
    std::fs::write("target/fig5/graph.html", to_html(&result.graph)).unwrap();
    std::fs::write("target/fig5/graph.dot", to_dot(&result.graph)).unwrap();
    println!("  lineagex(sql) -> target/fig5/output.json + graph.html (+ graph.dot)");

    section("FIG 5 — Step 2: locating the table");
    let web = &result.graph.nodes["web"];
    println!("  dropdown pick `web` -> columns [{}]", join(web.columns.iter()));

    section("FIG 5 — Step 3: navigating column dependency (explore clicks)");
    let hop1 = explore(&result.graph, "web");
    println!("  explore(web):      downstream {hop1:?}");
    assert_eq!(hop1, vec!["webact", "webinfo"]);
    let hop2 = explore(&result.graph, "webact");
    println!("  explore(webact):   downstream {hop2:?}");
    assert_eq!(hop2, vec!["info"]);
    let hop3 = explore(&result.graph, "info");
    println!("  explore(info):     downstream {hop3:?} (no more downstreams)");
    assert!(hop3.is_empty());

    println!("\n  hover web.page -> direct downstream highlights:");
    let hover = QuerySpec::new().from("web.page").max_depth(1).run_on(&result.graph);
    for hit in hover.columns {
        println!("    {} ({:?})", hit.column, hit.kind);
    }

    section("FIG 5 — Step 4: solving the case");
    let impact = result.impact_of("web", "page");
    for (table, cols) in impact.by_table() {
        let rendered: Vec<String> =
            cols.iter().map(|c| format!("{}({:?})", c.column.column, c.kind)).collect();
        println!("  {table}: {}", rendered.join(", "));
    }
    let expected: std::collections::BTreeSet<SourceColumn> = example1::expected_page_impact()
        .into_iter()
        .map(|(t, c)| SourceColumn::new(t, c))
        .collect();
    let actual: std::collections::BTreeSet<SourceColumn> =
        impact.impacted().iter().map(|c| c.column.clone()).collect();
    assert_eq!(actual, expected);
    println!(
        "\n✔ impact = webinfo.wpage + all columns of webact and info ({} columns), as in §IV",
        expected.len()
    );
}

/// One `explore` click: the tables one hop downstream of `table`.
fn explore(graph: &LineageGraph, table: &str) -> Vec<String> {
    let answer = QuerySpec::new().from_table(table).table_level().max_depth(1).run_on(graph);
    answer.relations.into_iter().filter(|r| r.distance == 1).map(|r| r.name).collect()
}
