//! # lineagex-engine
//!
//! An **incremental, parallel lineage engine** for long-lived sessions —
//! the service core on top of the batch pipeline in `lineagex-core`.
//!
//! The paper's pipeline (Fig. 3) is one-shot: read a query log, build the
//! Query Dictionary, extract everything. A production lineage service
//! instead sees a *stream* of DDL/DML over time and must answer lineage
//! questions continuously. This crate adds exactly that:
//!
//! * [`Engine::ingest`] — streaming preprocessing: statements parse
//!   under the session's pinned dialect, update the catalog
//!   incrementally, and maintain a **view dependency DAG** (edges from
//!   [`lineagex_core::referenced_relations`]) with dirty tracking, so
//!   redefining or dropping one view invalidates only its downstream
//!   cone, and an unchanged re-ingest is a no-op;
//! * [`Engine::refresh`] — the **parallel extraction scheduler**: the
//!   core scheduler's partition ([`lineagex_core::schedule::components`],
//!   the rule the batch run uses) splits the dirty cone into components
//!   that share nothing, not even an unknown external's inferred schema,
//!   each extracts on the paper's deferral stack
//!   ([`lineagex_core::schedule::ComponentRun`], rooted in ingest order),
//!   and [`lineagex_core::schedule::run_tasks`] runs the components on a
//!   `std::thread::scope` work-queue pool (`jobs` option);
//! * [`Engine::graph`] / [`Engine::lineage_of`] / [`Engine::impact_of`] —
//!   lineage queries between ingests, over a lazily-settled graph;
//! * [`Engine::ingest_dict`] — a one-shot log's Query Dictionary in one
//!   bulk write, keeping the batch pipeline's one-shot rules (what
//!   `lineagex extract --save-snapshot` runs, to persist the session).
//!
//! Two invariants tie the engine back to the paper's semantics, asserted
//! by the workspace property tests over generator workloads:
//!
//! 1. **incremental ≡ batch** — statement-at-a-time ingestion settles to
//!    the same graph (nodes and per-query lineage) as a one-shot
//!    `LineageX::run` over the same log;
//! 2. **parallel ≡ sequential** — `jobs > 1` produces byte-identical
//!    results to `jobs = 1`, because components share nothing and merge
//!    in a fixed order.

#![deny(rustdoc::broken_intra_doc_links)]

mod engine;
mod stats;

pub use engine::{Engine, EngineOptions, EngineSnapshot};
pub use stats::{EngineStats, IngestAction, PublishSplit, StmtId};

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_core::{lineagex, LineageError, NodeKind, SourceColumn};
    use lineagex_datasets::{generator, GeneratorConfig};

    const PIPELINE: &str = "
        CREATE TABLE web (cid int, date date, page text, reg boolean);
        CREATE VIEW webinfo AS SELECT cid AS wcid, page AS wpage FROM web WHERE reg;
        CREATE VIEW info AS SELECT wpage FROM webinfo;
    ";

    #[test]
    fn streaming_ingest_matches_one_shot() {
        let mut engine = Engine::new();
        for stmt in PIPELINE.split(';').filter(|s| !s.trim().is_empty()) {
            engine.ingest(stmt).unwrap();
        }
        let one_shot = lineagex(PIPELINE).unwrap();
        let graph = engine.graph().unwrap();
        assert_eq!(graph.queries, one_shot.graph.queries);
        assert_eq!(graph.nodes, one_shot.graph.nodes);
    }

    #[test]
    fn out_of_order_ingest_settles_after_dependency_arrives() {
        let mut engine = Engine::new();
        // info scans webinfo before webinfo exists: extracted as external.
        engine.ingest("CREATE VIEW info AS SELECT wpage FROM webinfo").unwrap();
        assert_eq!(engine.graph().unwrap().nodes["webinfo"].kind, NodeKind::External);
        // The dependency arriving re-extracts info against the real view.
        engine
            .ingest(
                "CREATE TABLE web (cid int, page text, reg boolean);
                 CREATE VIEW webinfo AS SELECT cid AS wcid, page AS wpage FROM web WHERE reg",
            )
            .unwrap();
        let graph = engine.graph().unwrap();
        assert_eq!(graph.nodes["webinfo"].kind, NodeKind::View);
        assert_eq!(
            graph.queries["info"].outputs[0].ccon,
            std::collections::BTreeSet::from([SourceColumn::new("webinfo", "wpage")])
        );
    }

    #[test]
    fn redefinition_reextracts_only_the_downstream_cone() {
        let mut engine = Engine::new();
        engine
            .ingest(
                "CREATE TABLE a (x int); CREATE TABLE b (y int);
                 CREATE VIEW va AS SELECT x FROM a;
                 CREATE VIEW vb AS SELECT y FROM b;
                 CREATE VIEW downstream AS SELECT x FROM va;",
            )
            .unwrap();
        assert_eq!(engine.refresh().unwrap(), 3);
        // Redefining va must re-extract va + downstream, but not vb.
        engine.ingest("CREATE VIEW va AS SELECT x + x AS x FROM a").unwrap();
        assert_eq!(engine.downstream_cone("va"), ["downstream", "va"].map(String::from).into());
        assert_eq!(engine.refresh().unwrap(), 2);
        assert_eq!(engine.stats().last_refresh_extractions, 2);
        assert_eq!(engine.stats().redefinitions, 1);
    }

    #[test]
    fn dictionary_ingest_keeps_one_shot_rules_and_continues_the_session() {
        use lineagex_core::{lineagex_lenient, ExtractOptions, QueryDict};
        // Noise, a parse error, a redefinition and a DROP: the dictionary
        // applies the one-shot rules before the engine sees anything.
        let log = "BEGIN;\n\
                   CREATE TABLE web (cid int, page text, reg boolean);\n\
                   CREATE VIEW v AS SELECT page AS p FROM web WHERE reg;\n\
                   SELECT FROM oops;\n\
                   CREATE VIEW v AS SELECT cid AS p FROM web;\n\
                   SELECT p FROM v;\n\
                   DROP VIEW v;\n\
                   SELECT p FROM v;";
        let one_shot = lineagex_lenient(log).unwrap();
        let mut engine = Engine::with_options(EngineOptions {
            jobs: 1,
            extract: ExtractOptions::new().with_lenient(),
        });
        engine.ingest_dict(QueryDict::from_sql_with(log, true).unwrap());
        // Each entry counts as one statement and one definition; the
        // dictionary's parse error is a parse failure, and its four run
        // diagnostics are the session's. Nothing is extracted yet.
        let pending = EngineStats {
            statements: 3,
            defined: 3,
            parse_failures: 1,
            diagnostics: 4,
            ..EngineStats::default()
        };
        assert_eq!(engine.stats(), &pending);
        assert_eq!(engine.diagnostics(), one_shot.diagnostics.as_slice());
        assert!(engine.catalog().contains("web"));
        assert_eq!(engine.refresh().unwrap(), 3);
        assert_eq!(
            engine.stats(),
            &EngineStats {
                extractions: 3,
                last_refresh_extractions: 3,
                refreshes: 1,
                ..pending.clone()
            }
        );
        let graph = engine.graph().unwrap();
        assert_eq!(graph.queries, one_shot.graph.queries);
        assert_eq!(graph.nodes, one_shot.graph.nodes);
        // The session numbers on after the log: statements and bare
        // SELECTs alike.
        let receipts = engine.ingest("SELECT 1 AS one").unwrap();
        assert_eq!((receipts[0].seq, receipts[0].target.as_str()), (4, "query_3"));
    }

    #[test]
    fn unchanged_reingest_is_a_no_op() {
        let mut engine = Engine::new();
        let view = "CREATE VIEW v AS SELECT 1 AS one";
        engine.ingest(view).unwrap();
        engine.refresh().unwrap();
        let receipts = engine.ingest(view).unwrap();
        assert_eq!(receipts[0].action, IngestAction::Unchanged);
        assert_eq!(engine.refresh().unwrap(), 0);
    }

    #[test]
    fn drop_retracts_and_dirties_dependents() {
        let mut engine = Engine::new();
        engine
            .ingest(
                "CREATE TABLE t (x int);
                 CREATE VIEW v1 AS SELECT x FROM t;
                 CREATE VIEW v2 AS SELECT x FROM v1;",
            )
            .unwrap();
        engine.refresh().unwrap();
        let receipts = engine.ingest("DROP VIEW v1").unwrap();
        assert_eq!(receipts[0].action, IngestAction::Dropped);
        let graph = engine.graph().unwrap();
        // v1 degrades to an inferred external scanned by v2.
        assert!(!graph.queries.contains_key("v1"));
        assert_eq!(graph.nodes["v1"].kind, NodeKind::External);
        assert!(graph.queries["v2"].tables.contains("v1"));
        assert_eq!(engine.stats().drops, 1);
    }

    #[test]
    fn ddl_arriving_late_upgrades_dependents() {
        let mut engine = Engine::new();
        engine.ingest("CREATE VIEW v AS SELECT page FROM web").unwrap();
        assert!(engine.graph().unwrap().queries["v"]
            .diagnostics
            .iter()
            .any(|d| d.code == lineagex_core::DiagnosticCode::UnknownRelation));
        assert!(engine.stats().diagnostics > 0);
        engine.ingest("CREATE TABLE web (cid int, page text)").unwrap();
        let graph = engine.graph().unwrap();
        assert_eq!(graph.nodes["web"].kind, NodeKind::BaseTable);
        assert!(graph.queries["v"].diagnostics.is_empty());
    }

    #[test]
    fn insert_reextracts_when_target_schema_changes() {
        let mut engine = Engine::new();
        engine.ingest("CREATE TABLE t (a int, b int); INSERT INTO t SELECT 10, 20").unwrap();
        // Output names come from the target's catalog schema.
        assert_eq!(engine.graph().unwrap().queries["t"].output_names(), vec!["a", "b"]);
        // Redefining the target's schema must re-extract the INSERT: its
        // lineage record is derived from the catalog, not just its source
        // query.
        engine.ingest("CREATE TABLE t (x int, y int)").unwrap();
        let graph = engine.graph().unwrap();
        assert_eq!(graph.queries["t"].output_names(), vec!["x", "y"]);
        assert_eq!(graph.nodes["t"].columns, vec!["x", "y"]);
    }

    #[test]
    fn insert_targets_disambiguate_like_the_dictionary() {
        let mut engine = Engine::new();
        engine
            .ingest(
                "CREATE TABLE t (a int); CREATE TABLE s (b int);
                 INSERT INTO t SELECT b FROM s; INSERT INTO t SELECT b + 1 FROM s;",
            )
            .unwrap();
        let graph = engine.graph().unwrap();
        assert!(graph.queries.contains_key("t"));
        assert!(graph.queries.contains_key("t#2"));
    }

    #[test]
    fn cycles_are_reported() {
        let mut engine = Engine::new();
        engine
            .ingest("CREATE VIEW a AS SELECT * FROM b; CREATE VIEW b AS SELECT * FROM a")
            .unwrap();
        match engine.refresh().unwrap_err() {
            LineageError::DependencyCycle(path) => assert_eq!(path, vec!["a", "b", "a"]),
            other => panic!("expected cycle, got {other}"),
        }
        // A correcting redefinition recovers the session.
        engine.ingest("CREATE TABLE t (x int); CREATE VIEW b AS SELECT x FROM t").unwrap();
        let graph = engine.graph().unwrap();
        assert_eq!(graph.queries["a"].output_names(), vec!["x"]);
    }

    #[test]
    fn lineage_and_impact_answer_between_ingests() {
        let mut engine = Engine::new();
        engine.ingest(PIPELINE).unwrap();
        let lineage = engine.lineage_of("webinfo", "wpage").unwrap().unwrap();
        assert!(lineage.contains(&SourceColumn::new("web", "page")));
        let impact = engine.impact_of("web", "page").unwrap();
        assert!(impact.contains(&SourceColumn::new("info", "wpage")));
        assert!(engine.lineage_of("webinfo", "ghost").unwrap().is_none());
    }

    #[test]
    fn parallel_batch_equals_sequential_on_generated_workload() {
        let workload =
            generator::generate(&GeneratorConfig { views: 40, ..GeneratorConfig::seeded(11) });
        let sql = workload.full_sql();
        let mut sequential = Engine::new();
        sequential.ingest(&sql).unwrap();
        sequential.refresh().unwrap();
        let mut parallel =
            Engine::with_options(EngineOptions { jobs: 4, ..EngineOptions::default() });
        parallel.ingest(&sql).unwrap();
        parallel.refresh().unwrap();
        assert_eq!(sequential.graph().unwrap(), parallel.graph().unwrap());
        // And both match the one-shot pipeline and the ground truth.
        let one_shot = lineagex(&sql).unwrap();
        assert_eq!(parallel.graph().unwrap().queries, one_shot.graph.queries);
        assert!(workload.ground_truth.diff(parallel.graph().unwrap()).is_empty());
    }

    #[test]
    fn failed_refresh_keeps_failing_entries_dirty() {
        let mut engine = Engine::new();
        engine.ingest("CREATE TABLE t (a int)").unwrap();
        // b references a column a's schema lacks after the redefinition.
        engine.ingest("CREATE VIEW v AS SELECT t.ghost FROM t").unwrap();
        assert!(engine.refresh().is_err());
        assert!(engine.has_pending_work());
        // Fixing the view clears the backlog.
        engine.ingest("CREATE VIEW v AS SELECT t.a FROM t").unwrap();
        assert_eq!(engine.refresh().unwrap(), 1);
        assert!(!engine.has_pending_work());
    }

    fn lenient_engine() -> Engine {
        Engine::with_options(EngineOptions {
            extract: lineagex_core::ExtractOptions::new().with_lenient(),
            ..EngineOptions::default()
        })
    }

    #[test]
    fn lenient_ingest_skips_unparsable_regions() {
        use lineagex_core::DiagnosticCode;
        let mut engine = lenient_engine();
        let receipts = engine
            .ingest("CREATE TABLE t (a int);\nSELECT FROM oops;\nCREATE VIEW v AS SELECT a FROM t;")
            .unwrap();
        assert_eq!(receipts.len(), 3);
        assert_eq!(receipts[1].action, IngestAction::Failed);
        assert_eq!(receipts[1].diagnostics[0].code, DiagnosticCode::ParseError);
        assert_eq!(receipts[1].diagnostics[0].span.unwrap().line, 2);
        // The healthy statements around the corrupt one still landed.
        let graph = engine.graph().unwrap();
        assert_eq!(graph.queries["v"].output_names(), vec!["a"]);
        assert_eq!(engine.stats().parse_failures, 1);
        assert!(engine.stats().diagnostics >= 1);
        // Strict mode fails the same ingest outright.
        let mut strict = Engine::new();
        assert!(strict.ingest("SELECT FROM oops").is_err());
    }

    #[test]
    fn lenient_redefinition_receipt_carries_diagnostic() {
        use lineagex_core::DiagnosticCode;
        let mut engine = lenient_engine();
        engine.ingest("CREATE VIEW v AS SELECT 1 AS a").unwrap();
        let receipts = engine.ingest("CREATE VIEW v AS SELECT 2 AS a").unwrap();
        assert_eq!(receipts[0].action, IngestAction::Redefined);
        assert_eq!(receipts[0].diagnostics[0].code, DiagnosticCode::DuplicateQueryId);
    }

    #[test]
    fn lenient_cycle_breaks_with_partial_stub() {
        use lineagex_core::DiagnosticCode;
        let log = "CREATE VIEW a AS SELECT * FROM b; CREATE VIEW b AS SELECT * FROM a";
        let mut engine = lenient_engine();
        engine.ingest(log).unwrap();
        let graph = engine.graph().unwrap();
        // The member that closes the cycle is stubbed (partial with the
        // cycle diagnostic); the other extracted against the stub — the
        // same choice the batch deferral stack makes.
        let stub = &graph.queries["b"];
        assert!(stub.partial);
        assert_eq!(stub.diagnostics[0].code, DiagnosticCode::DependencyCycle);
        assert!(!graph.queries["a"].partial);
        let batch = lineagex_core::LineageX::new().lenient().run(log).unwrap();
        assert_eq!(&graph.queries, &batch.graph.queries);
        // A correcting redefinition heals the session.
        engine.ingest("CREATE TABLE t (x int); CREATE VIEW b AS SELECT x FROM t").unwrap();
        let graph = engine.graph().unwrap();
        assert_eq!(graph.queries["a"].output_names(), vec!["x"]);
        assert!(!graph.queries["a"].partial);
    }

    /// Per-query lineage with diagnostic spans cleared: a statement
    /// ingested on its own is located within its own script, not the log.
    fn unspanned(graph: &lineagex_core::LineageGraph) -> Vec<lineagex_core::QueryLineage> {
        let mut queries: Vec<lineagex_core::QueryLineage> =
            graph.queries.values().map(|q| (**q).clone()).collect();
        for diagnostic in queries.iter_mut().flat_map(|q| q.diagnostics.iter_mut()) {
            diagnostic.span = None;
        }
        queries
    }

    /// A cycle entered at `c`, not at its alphabetically first member.
    const CYCLE_LOG: &str = "CREATE TABLE t (x int); CREATE VIEW c AS SELECT x FROM a; \
                             CREATE VIEW b AS SELECT x FROM c; CREATE VIEW a AS SELECT x FROM b; \
                             CREATE VIEW z AS SELECT x FROM a;";

    #[test]
    fn statement_at_a_time_cycle_stubs_the_member_the_batch_run_stubs() {
        let batch = lineagex_core::LineageX::new().lenient().run(CYCLE_LOG).unwrap();
        let mut engine = lenient_engine();
        for stmt in CYCLE_LOG.split(';').filter(|s| !s.trim().is_empty()) {
            engine.ingest(stmt).unwrap();
            engine.refresh().unwrap();
        }
        let graph = engine.graph().unwrap();
        // `b` closes c -> a -> b -> c on the stack rooted at `c`.
        assert!(graph.queries["b"].partial);
        assert!(!graph.queries["c"].partial);
        assert_eq!(unspanned(graph), unspanned(&batch.graph));
        assert_eq!(graph.nodes, batch.graph.nodes);
    }

    #[test]
    fn a_restored_session_roots_the_stack_in_ingest_order() {
        use lineagex_core::{ExtractOptions, LineageX};
        let mut engine = lenient_engine();
        engine.ingest(CYCLE_LOG).unwrap();
        let path = std::env::temp_dir()
            .join(format!("lineagex_engine_ingest_order_{}.lxsn", std::process::id()));
        engine.save_snapshot(&path).unwrap();
        let options = EngineOptions { jobs: 1, extract: ExtractOptions::new().with_lenient() };
        let mut restored = Engine::load_snapshot(&path, options).unwrap();
        std::fs::remove_file(&path).unwrap();
        // Redefining `a` dirties the whole cycle again: rooted in ingest
        // order (c, b, a, z), not id order, the stack still stubs `b`.
        let a = "CREATE VIEW a AS SELECT x FROM b WHERE x > 0";
        restored.ingest(a).unwrap();
        let edited = CYCLE_LOG.replace("CREATE VIEW a AS SELECT x FROM b", a);
        let batch = LineageX::new().lenient().run(&edited).unwrap();
        let graph = restored.graph().unwrap();
        assert!(graph.queries["b"].partial);
        assert_eq!(unspanned(graph), unspanned(&batch.graph));
    }

    #[test]
    fn the_ablation_never_lets_a_view_see_a_later_one() {
        use lineagex_core::{ExtractOptions, LineageX};
        let log = "CREATE TABLE t (x int, y int); CREATE VIEW top AS SELECT x FROM mid; \
                   CREATE VIEW mid AS SELECT x, y FROM t WHERE y > 0;";
        let mut engine = Engine::with_options(EngineOptions {
            jobs: 1,
            extract: ExtractOptions::new().without_auto_inference(),
        });
        for stmt in log.split(';').filter(|s| !s.trim().is_empty()) {
            engine.ingest(stmt).unwrap();
            engine.refresh().unwrap();
        }
        let batch = LineageX::new().without_auto_inference().run(log).unwrap();
        assert!(batch.graph.queries["top"].tables.contains("mid"));
        assert_eq!(unspanned(engine.graph().unwrap()), unspanned(&batch.graph));
        // Redefining `top` alone keeps its log slot, ahead of `mid`.
        let top = "CREATE VIEW top AS SELECT x FROM mid WHERE x > 0";
        engine.ingest(top).unwrap();
        let edited = log.replace("CREATE VIEW top AS SELECT x FROM mid", top);
        let batch = LineageX::new().without_auto_inference().run(&edited).unwrap();
        let graph = engine.graph().unwrap();
        assert_eq!(unspanned(graph), unspanned(&batch.graph));
        assert_eq!(graph.nodes, batch.graph.nodes);
    }

    #[test]
    fn diagnostics_are_retracted_with_their_query() {
        let mut engine = Engine::new();
        engine.ingest("CREATE VIEW v AS SELECT page FROM web").unwrap();
        engine.refresh().unwrap();
        // UnknownRelation + InferredColumn diagnostics live on v.
        let before = engine.stats().diagnostics;
        assert!(before >= 2, "expected live diagnostics, got {before}");
        // Redefining v over a known table retracts its diagnostics.
        engine.ingest("CREATE TABLE t (a int); CREATE VIEW v AS SELECT a FROM t").unwrap();
        engine.refresh().unwrap();
        assert_eq!(engine.stats().diagnostics, 0);
        // And dropping a diagnostic-carrying query removes them too.
        engine.ingest("CREATE VIEW w AS SELECT page FROM web").unwrap();
        engine.refresh().unwrap();
        assert!(engine.stats().diagnostics > 0);
        engine.ingest("DROP VIEW w").unwrap();
        engine.refresh().unwrap();
        assert_eq!(engine.stats().diagnostics, 0);
    }

    #[test]
    fn noise_statements_are_skipped_with_receipts() {
        use lineagex_core::DiagnosticCode;
        let mut engine = Engine::new();
        let receipts = engine.ingest("BEGIN; CREATE TABLE t (a int); SET x = 1; COMMIT").unwrap();
        let actions: Vec<IngestAction> = receipts.iter().map(|r| r.action).collect();
        assert_eq!(
            actions,
            vec![
                IngestAction::Skipped,
                IngestAction::Schema,
                IngestAction::Skipped,
                IngestAction::Skipped,
            ]
        );
        assert!(receipts[0].diagnostics.iter().all(|d| d.code == DiagnosticCode::NoiseStatement));
        assert_eq!(engine.diagnostics().len(), 3);
    }

    #[test]
    fn lineage_view_unifies_batch_and_session() {
        use lineagex_core::LineageView;
        let mut engine = Engine::new();
        engine.ingest(PIPELINE).unwrap();
        let mut batch = lineagex(PIPELINE).unwrap();
        // Identical code runs over either backend through the trait…
        let session_answer =
            engine.query().from("web.page").downstream().max_depth(3).run().unwrap();
        let batch_answer = batch.query().from("web.page").downstream().max_depth(3).run().unwrap();
        assert_eq!(session_answer, batch_answer);
        assert_eq!(session_answer.columns.len(), 2);
        // …and the versioned wire document is byte-identical.
        assert_eq!(engine.report_v2().unwrap().to_json(), batch.report_v2().unwrap().to_json());
        assert_eq!(engine.backend_name(), "session");
        assert_eq!(batch.backend_name(), "batch");
        assert_eq!(
            engine.column_lineage("webinfo", "wpage").unwrap(),
            batch.column_lineage("webinfo", "wpage").unwrap()
        );
        assert_eq!(engine.graph_stats().unwrap(), batch.graph_stats().unwrap());
    }

    #[test]
    fn result_packages_session_state() {
        let mut engine = Engine::new();
        engine.ingest(PIPELINE).unwrap();
        engine.ingest("DELETE FROM web").unwrap();
        let result = engine.result().unwrap();
        assert_eq!(result.graph.queries.len(), 2);
        assert!(result.deferrals.is_empty());
        assert_eq!(result.diagnostics.len(), 1);
    }

    #[test]
    fn graph_index_is_cached_between_queries() {
        let mut engine = Engine::new();
        engine.ingest(PIPELINE).unwrap();
        let first = engine.graph_index().unwrap();
        let second = engine.graph_index().unwrap();
        assert!(std::sync::Arc::ptr_eq(&first, &second), "settled session must reuse the index");
        // A no-op refresh (nothing dirty) keeps the cache too.
        assert_eq!(engine.refresh().unwrap(), 0);
        assert!(std::sync::Arc::ptr_eq(&first, &engine.graph_index().unwrap()));
    }

    #[test]
    fn graph_index_invalidates_on_redefinition() {
        let mut engine = Engine::new();
        engine.ingest(PIPELINE).unwrap();
        let before = engine.graph_index().unwrap();
        assert!(before.lookup_column("webinfo", "wpage").is_some());
        // Redefine the hub view (same outputs, no WHERE): the next
        // settled index must reflect the new lineage — the `web.reg`
        // reference edges are gone — not the previous revision.
        engine
            .ingest("CREATE VIEW webinfo AS SELECT cid AS wcid, page AS wpage FROM web;")
            .unwrap();
        let after = engine.graph_index().unwrap();
        assert!(!std::sync::Arc::ptr_eq(&before, &after), "redefinition must update the index");
        assert!(after.edge_count() < before.edge_count(), "reference edges must be gone");
        // Answers through the view surface see the new shape: web.reg no
        // longer impacts anything.
        use lineagex_core::LineageView;
        let answer = engine.query().from("web.reg").downstream().run().unwrap();
        assert!(answer.columns.is_empty());
    }

    #[test]
    fn graph_index_invalidates_on_drop() {
        let mut engine = Engine::new();
        engine.ingest(PIPELINE).unwrap();
        let before = engine.graph_index().unwrap();
        // DROP retracts from the settled graph without needing a refresh:
        // the previous revision's index must not survive it.
        engine.ingest("DROP VIEW info;").unwrap();
        let after = engine.graph_index().unwrap();
        assert!(!std::sync::Arc::ptr_eq(&before, &after), "drop must update the index");
        assert!(before.lookup_relation("info").is_some());
        assert!(after.lookup_relation("info").is_none());
    }

    #[test]
    fn publish_shares_the_settled_graph_until_a_mutation() {
        let mut engine = Engine::new();
        engine.ingest(PIPELINE).unwrap();
        let first = engine.publish().unwrap();
        let again = engine.publish().unwrap();
        assert!(std::sync::Arc::ptr_eq(&first.graph, &again.graph), "no mutation, same graph");
        assert!(std::sync::Arc::ptr_eq(&first.index, &again.index));
        assert_eq!(first.revision, again.revision);
        engine.ingest("CREATE VIEW info AS SELECT wcid FROM webinfo").unwrap();
        let redefined = engine.publish().unwrap();
        assert!(!std::sync::Arc::ptr_eq(&first.graph, &redefined.graph));
        assert!(redefined.revision > first.revision);
        // The earlier snapshot still shows its own revision's lineage.
        assert_eq!(first.graph.queries["info"].output_names(), vec!["wpage"]);
        assert_eq!(redefined.graph.queries["info"].output_names(), vec!["wcid"]);
    }

    #[test]
    fn engine_impact_runs_on_the_cached_index() {
        let mut engine = Engine::new();
        engine.ingest(PIPELINE).unwrap();
        let report = engine.impact_of("web", "page").unwrap();
        let batch = lineagex(PIPELINE).unwrap().impact_of("web", "page");
        assert_eq!(report.impacted(), batch.impacted());
        assert!(report.contains(&SourceColumn::new("info", "wpage")));
    }
}
