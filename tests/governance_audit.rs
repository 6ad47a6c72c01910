//! A realistic end-to-end governance scenario combining most of the
//! public API: messy query log (DDL + views + DML + drops + unknown
//! externals), warnings triage, policy switches, impact analysis, path
//! explanations, statistics, and every report backend.

use lineagex::prelude::*;
use lineagex::viz::to_markdown;

const MESSY_LOG: &str = "
    -- Warehouse DDL.
    CREATE TABLE users (uid int, email text, region text, signup date);
    CREATE TABLE events (eid int, uid int, kind text, ts timestamp, payload text);

    -- A view over a table nobody declared (external feed).
    CREATE VIEW enriched AS
    SELECT u.uid AS uid, u.email AS email, f.score AS score
    FROM users u JOIN external_scores f ON u.uid = f.uid;

    -- Defined before its dependency appears later in the log.
    CREATE VIEW regional_activity AS
    SELECT region, n_events FROM activity WHERE n_events > 10;

    CREATE VIEW activity AS
    SELECT u.region AS region, count(*) AS n_events
    FROM users u JOIN events e ON u.uid = e.uid
    GROUP BY u.region;

    -- DML in the log.
    CREATE TABLE audit_log (uid int, email text);
    INSERT INTO audit_log SELECT uid, email FROM enriched;
    UPDATE audit_log SET email = 'redacted' WHERE uid < 0;

    -- Dropped objects are skipped.
    DROP VIEW IF EXISTS obsolete_view;
";

#[test]
fn messy_log_extracts_with_the_right_warnings() {
    let result = lineagex(MESSY_LOG).unwrap();

    // Five lineage-bearing entries: 3 views, 1 insert, 1 update.
    assert_eq!(result.graph.queries.len(), 5);
    assert_eq!(
        result.graph.order,
        vec!["enriched", "activity", "regional_activity", "audit_log", "audit_log#2"]
    );
    // The out-of-order view deferred exactly once.
    assert_eq!(result.deferrals, vec![("regional_activity".into(), "activity".into())]);

    // The external feed was inferred from usage.
    assert_eq!(
        result.inferred["external_scores"],
        ["uid", "score"].iter().map(|s| s.to_string()).collect()
    );
    let enriched = &result.graph.queries["enriched"];
    assert!(enriched.diagnostics.iter().any(|d| d.code == DiagnosticCode::UnknownRelation));

    // The DROP produced a skip diagnostic.
    assert!(
        result
            .diagnostics
            .iter()
            .any(|d| d.code == DiagnosticCode::SkippedStatement
                && d.message.contains("obsolete_view"))
    );
}

#[test]
fn pii_impact_travels_through_dml() {
    let mut result = lineagex(MESSY_LOG).unwrap();
    // GDPR question: where does users.email end up?
    let impact = result.impact_of("users", "email");
    assert!(impact.contains(&SourceColumn::new("enriched", "email")));
    assert!(impact.contains(&SourceColumn::new("audit_log", "email")));

    // Explain the flow into the audit log.
    let path =
        result.query().from("users.email").to("audit_log", "email").run().unwrap().path.unwrap();
    assert_eq!(path.len(), 2);
    assert_eq!(path[0].column, SourceColumn::new("enriched", "email"));
}

#[test]
fn statistics_reflect_the_pipeline() {
    let result = lineagex(MESSY_LOG).unwrap();
    let stats = result.graph.stats();
    assert_eq!(stats.queries, 5);
    assert!(stats.nodes_by_kind["External"] >= 1);
    assert!(stats.max_pipeline_depth >= 2, "users -> enriched -> audit_log");
    assert!(stats.reference_edges > 0);
}

#[test]
fn every_report_backend_renders_the_messy_graph() {
    let result = lineagex(MESSY_LOG).unwrap();
    let json = to_output_json(&result.graph);
    assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
    assert!(to_dot(&result.graph).contains("external_scores"));
    assert!(to_html(&result.graph).contains("audit_log"));
    assert!(to_mermaid(&result.graph).contains("n_external_scores"));
    let md = to_markdown(&result.graph);
    assert!(md.contains("## `enriched`"));
    assert!(md.contains("⚠"), "warnings must surface in the report");
}

#[test]
fn strict_mode_surfaces_the_ambiguity_risk() {
    // Both relations expose `uid`; under the strict policy the audit
    // query must be rejected rather than silently guessed.
    let ambiguous = "
        CREATE TABLE a (uid int);
        CREATE TABLE b (uid int);
        CREATE VIEW v AS SELECT uid FROM a, b;
    ";
    assert!(LineageX::new().ambiguity(AmbiguityPolicy::Error).run(ambiguous).is_err());
    // The default policy records what it attributed.
    let lenient = lineagex(ambiguous).unwrap();
    assert!(lenient.graph.queries["v"]
        .diagnostics
        .iter()
        .any(|d| d.code == DiagnosticCode::AmbiguityResolved));
}
