//! Lineage through DML mutations: `INSERT ... SELECT`, `UPDATE ... FROM`,
//! and `DELETE` handling across both extraction paths.

use lineagex::catalog::Catalog;
use lineagex::core::{ExplainPathExtractor, QueryDict, QueryKind};
use lineagex::prelude::*;
use std::collections::BTreeSet;

const DDL: &str = "
    CREATE TABLE web (cid int, page text, reg boolean);
    CREATE TABLE updates (cid int, new_page text);
    CREATE TABLE audit (cid int, page text);
";

#[test]
fn update_lineage_tracks_set_expressions() {
    let result = lineagex(&format!(
        "{DDL}
         UPDATE web AS w SET page = u.new_page FROM updates u WHERE w.cid = u.cid;"
    ))
    .unwrap();
    let q = &result.graph.queries["web"];
    assert!(matches!(q.kind, QueryKind::Update));
    // The SET expression's source contributes to the updated column.
    assert_eq!(q.output_names(), vec!["page"]);
    assert_eq!(q.outputs[0].ccon, BTreeSet::from([SourceColumn::new("updates", "new_page")]));
    // Join predicate columns are referenced; target + source are scanned.
    assert!(q.cref.contains(&SourceColumn::new("web", "cid")));
    assert!(q.cref.contains(&SourceColumn::new("updates", "cid")));
    assert_eq!(q.tables, BTreeSet::from(["web".to_string(), "updates".to_string()]));
}

#[test]
fn update_can_reference_its_own_columns() {
    let result = lineagex(&format!("{DDL} UPDATE web SET page = page || '!' WHERE reg;")).unwrap();
    let q = &result.graph.queries["web"];
    assert_eq!(q.outputs[0].ccon, BTreeSet::from([SourceColumn::new("web", "page")]));
    assert!(q.cref.contains(&SourceColumn::new("web", "reg")));
}

#[test]
fn update_node_keeps_full_target_schema() {
    let result = lineagex(&format!("{DDL} UPDATE web SET page = 'x';")).unwrap();
    // The node shows all of web's columns, not just the SET one.
    let node = &result.graph.nodes["web"];
    assert_eq!(node.columns, vec!["cid", "page", "reg"]);
}

#[test]
fn update_impact_flows_downstream() {
    let result = lineagex(&format!(
        "{DDL}
         UPDATE web SET page = u.new_page FROM updates u WHERE web.cid = u.cid;"
    ))
    .unwrap();
    let impact = result.impact_of("updates", "new_page");
    assert!(impact.contains(&SourceColumn::new("web", "page")));
}

#[test]
fn multiple_writers_get_distinct_ids() {
    let result = lineagex(&format!(
        "{DDL}
         INSERT INTO audit SELECT cid, page FROM web;
         UPDATE audit SET page = 'redacted' WHERE cid < 0;"
    ))
    .unwrap();
    assert!(result.graph.queries.contains_key("audit"));
    assert!(result.graph.queries.contains_key("audit#2"));
    assert!(matches!(result.graph.queries["audit"].kind, QueryKind::Insert));
    assert!(matches!(result.graph.queries["audit#2"].kind, QueryKind::Update));
}

#[test]
fn delete_is_skipped_with_warning() {
    let result = lineagex(&format!("{DDL} DELETE FROM web WHERE reg;")).unwrap();
    assert!(result.graph.queries.is_empty());
    assert!(result
        .diagnostics
        .iter()
        .any(|d| d.code == DiagnosticCode::SkippedStatement && d.message.contains("web")));
}

#[test]
fn explain_path_agrees_on_update() {
    let update = "UPDATE web AS w SET page = u.new_page FROM updates u WHERE w.cid = u.cid;";
    let static_result = lineagex(&format!("{DDL} {update}")).unwrap();

    let qd = QueryDict::from_sql(update).unwrap();
    let connected = ExplainPathExtractor::new(qd, Catalog::from_ddl(DDL).unwrap()).run().unwrap();

    let a = &static_result.graph.queries["web"];
    let b = &connected.graph.queries["web"];
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.cref, b.cref);
    assert_eq!(a.tables, b.tables);
    // Both paths keep the target's full schema on the UPDATE's node.
    assert_eq!(static_result.graph.nodes, connected.graph.nodes);
}
