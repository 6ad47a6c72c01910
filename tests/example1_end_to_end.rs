//! End-to-end integration tests over the paper's Example 1, spanning the
//! parser, extractor, auto-inference engine, impact analysis, baselines,
//! and visualisation crates.

use lineagex::baseline::llm_sim::llm_style_impact;
use lineagex::baseline::metrics::{graph_contribute_edges, score_edges};
use lineagex::baseline::SqlLineageLike;
use lineagex::datasets::example1;
use lineagex::prelude::*;
use std::collections::BTreeSet;

#[test]
fn example1_smoke_webinfo_wcid_edges() {
    // Smoke test for the paper's Example 1 flow: the full log (DDL + Q1–Q3
    // in paper order) must extract end-to-end, and `webinfo.wcid` must be
    // wired to `web.cid`. In this reproduction's Example 1, `webinfo`
    // computes `wcid` from `customers.cid` and joins on `web.cid`, so the
    // `webinfo.wcid ← web.cid` edge surfaces as a Reference edge alongside
    // the `customers.cid` edge (Both: it is projected *and* a join key).
    let result = lineagex(&example1::full_log()).unwrap();
    let wcid = SourceColumn::new("webinfo", "wcid");
    let edges = result.graph.all_edges();
    let kind_of = |from: &SourceColumn| {
        edges.iter().find(|e| e.from == *from && e.to == wcid).map(|e| e.kind)
    };
    assert_eq!(kind_of(&SourceColumn::new("web", "cid")), Some(EdgeKind::Reference));
    assert_eq!(kind_of(&SourceColumn::new("customers", "cid")), Some(EdgeKind::Both));
}

#[test]
fn lineagex_matches_fig2_ground_truth() {
    let result = lineagex(&example1::full_log()).unwrap();
    let failures = example1::ground_truth().diff(&result.graph);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn lineagex_scores_perfectly_where_baseline_fails() {
    let log = example1::full_log();
    let truth = example1::ground_truth().contribute_edges();

    let ours = lineagex(&log).unwrap();
    let our_score = score_edges(&graph_contribute_edges(&ours.graph), &truth);
    assert_eq!(our_score.f1(), 1.0);

    let baseline = SqlLineageLike::new().extract(&log).unwrap();
    let base_score = score_edges(&graph_contribute_edges(&baseline), &truth);
    assert!(base_score.f1() < 1.0, "baseline should exhibit the Fig. 2 failures");
    assert!(base_score.recall() < 1.0, "baseline misses the w.* expansion edges");
}

#[test]
fn baseline_reproduces_the_papers_red_boxes() {
    let baseline = SqlLineageLike::new().extract(&example1::full_log()).unwrap();
    // Red box 1: webact has four extra output columns from the second
    // INTERSECT branch.
    assert_eq!(baseline.queries["webact"].outputs.len(), 8);
    // Red box 2: info returns a webact.* -> info.* entry instead of the
    // four expanded columns.
    let info = &baseline.queries["info"];
    let star =
        info.outputs.iter().find(|o| o.name == "*").expect("baseline must emit a star entry");
    assert_eq!(star.ccon, BTreeSet::from([SourceColumn::new("webact", "*")]));
    // And it reports fewer real columns for info than exist (3 + star).
    assert!(info.outputs.len() < 7);
}

#[test]
fn impact_analysis_matches_section4() {
    let result = lineagex(&example1::full_log()).unwrap();
    let impact = result.impact_of("web", "page");
    let expected: BTreeSet<SourceColumn> = example1::expected_page_impact()
        .into_iter()
        .map(|(t, c)| SourceColumn::new(t, c))
        .collect();
    let actual: BTreeSet<SourceColumn> =
        impact.impacted().iter().map(|i| i.column.clone()).collect();
    assert_eq!(actual, expected);
}

#[test]
fn explore_walks_the_ui_steps() {
    let mut result = lineagex(&example1::full_log()).unwrap();
    // One explore click: the tables one hop away from `table`.
    let mut hop = |table: &str, upstream: bool| -> Vec<String> {
        let query = result.query().from_table(table).table_level().max_depth(1);
        let query = if upstream { query.upstream() } else { query.downstream() };
        let answer = query.run().unwrap();
        answer.relations.into_iter().filter(|r| r.distance == 1).map(|r| r.name).collect()
    };
    assert_eq!(hop("web", false), vec!["webact", "webinfo"]);
    assert!(hop("web", true).is_empty());
    assert_eq!(hop("webact", false), vec!["info"]);
    assert_eq!(hop("webact", true), vec!["web", "webinfo"]);
    assert!(hop("info", false).is_empty());
}

#[test]
fn llm_simulation_finds_contributing_misses_referenced() {
    let result = lineagex(&example1::full_log()).unwrap();
    let llm = llm_style_impact(&result.graph, &SourceColumn::new("web", "page"));
    // Finds the wpage chain everywhere.
    for (t, c) in [("webinfo", "wpage"), ("webact", "wpage"), ("info", "wpage")] {
        assert!(llm.contains(&SourceColumn::new(t, c)), "missing {t}.{c}");
    }
    // Misses every referenced-only column.
    for (t, c) in [("webact", "wcid"), ("info", "oid"), ("info", "name")] {
        assert!(!llm.contains(&SourceColumn::new(t, c)), "should miss {t}.{c}");
    }
    // The full impact strictly contains the LLM's answer.
    let full = result.impact_of("web", "page");
    assert!(full.impacted().len() > llm.len());
}

#[test]
fn artifacts_render_for_example1() {
    let result = lineagex(&example1::full_log()).unwrap();
    let json = to_output_json(&result.graph);
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value["queries"]["info"]["tables"][2], "webact");
    assert_eq!(value["processing_order"][0], "webinfo");

    let dot = to_dot(&result.graph);
    assert!(dot.contains("\"webact\""));
    assert!(dot.contains("color=orange"), "C_both edges must render orange");

    let html = to_html(&result.graph);
    assert!(html.contains("webact.wpage"));
}

#[test]
fn statement_order_does_not_matter() {
    // The paper's log (info first) and the topological log (webinfo first)
    // must produce identical lineage.
    let paper_order = lineagex(&example1::full_log()).unwrap();
    let reversed: String = {
        let stmts: Vec<&str> = example1::QUERIES.split(';').map(str::trim).collect();
        let mut forward: Vec<&str> =
            stmts.iter().rev().filter(|s| !s.is_empty()).copied().collect();
        let mut log = example1::DDL.to_string();
        for stmt in forward.drain(..) {
            log.push_str(stmt);
            log.push(';');
        }
        log
    };
    let topo_order = lineagex(&reversed).unwrap();
    assert_eq!(paper_order.graph.queries, topo_order.graph.queries);
    // The paper order needs deferrals; the topological order needs none.
    assert_eq!(paper_order.deferrals.len(), 2);
    assert!(topo_order.deferrals.is_empty());
}
