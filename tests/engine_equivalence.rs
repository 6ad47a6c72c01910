//! The session engine's contract with the batch pipeline, asserted over
//! generated workloads:
//!
//! 1. **incremental ≡ batch** — statement-at-a-time `Engine::ingest`
//!    settles to the same lineage (nodes + per-query records — including
//!    each record's diagnostics and partial flag — hence all edges) as
//!    one-shot `LineageX::run` over the same log;
//! 2. **parallel ≡ sequential** — `jobs > 1` is byte-identical to
//!    `jobs = 1`, including the serialized graph;
//! 3. **cone-sized invalidation** — redefining one view on a 200-view log
//!    re-extracts exactly its downstream cone (extraction counters);
//! 4. **indexed ≡ string walk** — traversals over the interned
//!    `GraphIndex` (`QuerySpec::run_with`, the path every backend
//!    serves) answer byte-identically to the string-keyed test
//!    reference (`QuerySpec::run_on_unindexed`), for every direction,
//!    granularity, and filter shape, strict and lenient, on the batch
//!    backend and on engines fed by `Engine::ingest` and by
//!    `Engine::ingest_dict`, at `jobs ∈ {1, 4}`; the reply `serve`
//!    writes from the traversal's cone (`ConeReport`) has the bytes of
//!    `QueryReport::from_answer(..).with_context(..)` on each; and the
//!    `ReportV2` wire bytes stay identical everywhere;
//! 5. **maintained ≡ fresh** — the traversal index each `publish`
//!    derives from the previous revision's equals, array for array, a
//!    fresh `GraphIndex::build` of the published graph, whatever write
//!    history led there, so `.lxsn` bytes never depend on it.

use lineagex::core::{ConeReport, ExtractOptions, NodeKind, QueryDict};
use lineagex::datasets::{generator, GeneratorConfig};
use lineagex::engine::{Engine, EngineOptions};
use lineagex::prelude::*;
use lineagex::sqlparse::ast::{Expr, Literal, Statement};
use proptest::prelude::*;

/// Feed a workload to an engine one statement at a time.
fn ingest_statementwise(engine: &mut Engine, workload: &generator::PipelineWorkload) {
    for ddl in workload.ddl.split(';').filter(|s| !s.trim().is_empty()) {
        engine.ingest(ddl).unwrap();
    }
    for view in &workload.view_statements {
        engine.ingest(view).unwrap();
    }
}

/// One write of the maintained-index property: views `v0`..`v5` over
/// the base table, an external relation, or each other (so lenient
/// cycles and dangling references happen), redefined in every shape a
/// session sees, dropped, and the base table's schema replaced.
fn session_write(op: u8, view: usize, source: usize, n: u32) -> String {
    let from = match source % 8 {
        0 => "base".to_string(),
        1 => format!("ext{}", n % 2),
        other => format!("v{}", other % 6),
    };
    match op % 8 {
        // A new view, or a same-shape redefinition of an existing one.
        0 | 1 => format!("CREATE VIEW v{view} AS SELECT a, b FROM {from} WHERE c > {n}"),
        2 => format!("CREATE VIEW v{view} AS SELECT a, b, c AS x{n} FROM {from}"),
        3 => format!("CREATE VIEW v{view} AS SELECT a FROM {from}"),
        4 => format!("CREATE VIEW v{view} AS SELECT a AS r{n}, b FROM {from}"),
        5 => format!("DROP VIEW v{view}"),
        6 => format!("CREATE TABLE base (a int, b int, c int, d{n} int)"),
        _ => format!("CREATE VIEW v{view} AS SELECT a, b, c FROM {from} JOIN base USING (a)"),
    }
}

/// The statement re-rendered with a different LIMIT: changed content,
/// identical lineage.
fn with_limit(statement: &str, limit: u64) -> String {
    let mut stmt = lineagex::sqlparse::parse_statement(statement).unwrap();
    if let Statement::CreateView { ref mut query, .. } = stmt {
        query.limit = Some(Expr::Literal(Literal::Number(limit.to_string())));
    }
    stmt.to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Incremental ingestion (forward or dependency-reversed statement
    /// order) settles to the one-shot pipeline's graph for any seed and
    /// feature mix.
    #[test]
    fn incremental_ingest_matches_one_shot(
        seed in 0u64..10_000,
        star in 0.0f64..0.9,
        setop in 0.0f64..0.9,
        cte in 0.0f64..0.9,
        reversed in proptest::prelude::any::<bool>(),
    ) {
        let workload = generator::generate(&GeneratorConfig {
            views: 8,
            star_probability: star,
            setop_probability: setop,
            cte_probability: cte,
            shuffle_statements: reversed,
            ..GeneratorConfig::seeded(seed)
        });
        let one_shot = lineagex(&workload.full_sql())
            .map_err(|e| TestCaseError::fail(format!("{e}\n{}", workload.full_sql())))?;
        let mut engine = Engine::new();
        ingest_statementwise(&mut engine, &workload);
        let graph = engine.graph().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&graph.queries, &one_shot.graph.queries);
        prop_assert_eq!(&graph.nodes, &one_shot.graph.nodes);
        prop_assert_eq!(graph.all_edges(), one_shot.graph.all_edges());
    }

    /// Parallel extraction is byte-identical to sequential: same graph
    /// value, same serialized JSON.
    #[test]
    fn parallel_extraction_is_byte_identical(seed in 0u64..10_000) {
        let workload =
            generator::generate(&GeneratorConfig { views: 12, ..GeneratorConfig::seeded(seed) });
        let sql = workload.full_sql();
        let mut sequential =
            Engine::with_options(EngineOptions { jobs: 1, ..EngineOptions::default() });
        sequential.ingest(&sql).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut parallel =
            Engine::with_options(EngineOptions { jobs: 4, ..EngineOptions::default() });
        parallel.ingest(&sql).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let a = sequential.snapshot().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let b = parallel.snapshot().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    /// The interned-index traversals are byte-identical to the reference
    /// string walk, on generated logs (strict, or lenient with a partial
    /// view and run diagnostics), over both backends and
    /// `jobs ∈ {1, 4}`: same `QueryAnswer` (value and serialized bytes)
    /// for every spec shape, the same reply bytes from the cone writer as
    /// from the owned `QueryReport` under each backend's context, and the
    /// same `ReportV2` bytes from every backend.
    #[test]
    fn indexed_traversal_matches_string_walk(
        seed in 0u64..10_000,
        star in 0.0f64..0.9,
        setop in 0.0f64..0.9,
        pick in proptest::prelude::any::<usize>(),
        lenient in proptest::prelude::any::<bool>(),
    ) {
        let workload = generator::generate(&GeneratorConfig {
            views: 8,
            star_probability: star,
            setop_probability: setop,
            ..GeneratorConfig::seeded(seed)
        });
        let mut sql = workload.full_sql();
        if lenient {
            // A view with an unresolvable column (a partial record), one
            // reading it, a noise statement and a parse error (run
            // diagnostics).
            sql.push_str(
                "\nCREATE TABLE ext_base (a int, b int);\
                 \nCREATE VIEW partial_v AS SELECT a, ghost FROM ext_base WHERE b > 0;\
                 \nCREATE VIEW over_partial AS SELECT a FROM partial_v;\
                 \nSET search_path = lineage;\
                 \nCREATE VIEW broken AS SELEC;",
            );
        }
        let extract = if lenient { lineagex_lenient } else { lineagex };
        let mut batch = extract(&sql).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let graph = batch.graph.clone();
        let columns: Vec<SourceColumn> = graph
            .nodes
            .values()
            .flat_map(|n| n.columns.iter().map(|c| SourceColumn::new(&n.name, c)))
            .collect();
        prop_assert!(!columns.is_empty());
        let origin = columns[pick % columns.len()].clone();
        let target = columns[pick / 7 % columns.len()].clone();

        let specs = [
            QuerySpec::new().from_column(&origin.table, &origin.column).downstream(),
            QuerySpec::new().from_column(&origin.table, &origin.column).upstream(),
            QuerySpec::new().from_column(&origin.table, &origin.column).max_depth(2),
            QuerySpec::new()
                .from_column(&origin.table, &origin.column)
                .edge_kind(EdgeKind::Contribute)
                .edge_kind(EdgeKind::Both),
            QuerySpec::new().from_table(&origin.table),
            QuerySpec::new()
                .from_column(&origin.table, &origin.column)
                .to(&target.table, &target.column),
            QuerySpec::new().from_table(&origin.table).table_level(),
            QuerySpec::new().from_table(&origin.table).table_level().upstream().max_depth(1),
            QuerySpec::new().from("ghost_table.ghost"),
            QuerySpec::new()
                .from_column(&origin.table, &origin.column)
                .from_column(&target.table, &target.column),
            QuerySpec::new().from_table(&origin.table).node_kind(NodeKind::View),
            QuerySpec::new()
                .from_column(&origin.table, &origin.column)
                .max_depth(0)
                .to(&target.table, &target.column),
            QuerySpec::new().from("ext_base.a").to("over_partial", "a"),
            QuerySpec::new().from_table("partial_v").upstream(),
        ];

        // The session backends, fed statement by statement and as one
        // Query Dictionary, settle once; their cached indexes answer
        // every spec below.
        let mut engines: Vec<(String, Engine)> = Vec::new();
        for jobs in [1usize, 4] {
            let extract = ExtractOptions { lenient, ..ExtractOptions::default() };
            let options = EngineOptions { jobs, extract };
            let mut streamed = Engine::with_options(options.clone());
            streamed.ingest(&sql).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let dict = QueryDict::from_sql_with(&sql, lenient)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let mut bulk = Engine::with_options(options);
            bulk.ingest_dict(dict);
            engines.push((format!("ingest, jobs={jobs}"), streamed));
            engines.push((format!("ingest_dict, jobs={jobs}"), bulk));
        }

        for (i, spec) in specs.iter().enumerate() {
            let legacy = spec.run_on_unindexed(&graph);
            let indexed = spec.run_on(&graph);
            prop_assert_eq!(&indexed, &legacy, "spec #{} diverged from the string walk", i);
            prop_assert_eq!(
                serde_json::to_string(&indexed).unwrap(),
                serde_json::to_string(&legacy).unwrap(),
                "spec #{} serialisation diverged", i
            );
            // Batch backend (cached index) and every session engine, the
            // engines through the snapshot a server publishes. The cone
            // writer's reply is the owned envelope's bytes under the same
            // context.
            let reply = |graph: &LineageGraph,
                         partial: usize,
                         diagnostics: &[Diagnostic],
                         index: &GraphIndex| {
                let cone = ConeReport::new(spec, index).with_context(graph, partial, diagnostics);
                let owned = QueryReport::from_answer(&legacy).with_context(graph, diagnostics);
                (serde_json::to_string(&cone).unwrap(), serde_json::to_string(&owned).unwrap())
            };
            let batch_index =
                batch.settled_index().map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&spec.run_with(&batch_index), &legacy);
            let partial = graph.queries.values().filter(|q| q.partial).count();
            let (cone, owned) = reply(&graph, partial, &batch.diagnostics, &batch_index);
            prop_assert_eq!(cone, owned, "batch reply diverged on spec #{}", i);
            for (backend, engine) in &mut engines {
                let snapshot = engine.publish().map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(
                    &spec.run_with(&snapshot.index),
                    &legacy,
                    "{} diverged on spec #{}", backend, i
                );
                let (cone, owned) = reply(
                    &snapshot.graph,
                    snapshot.partial_queries,
                    &snapshot.diagnostics,
                    &snapshot.index,
                );
                prop_assert_eq!(cone, owned, "{} reply diverged on spec #{}", backend, i);
            }
        }
        if lenient {
            prop_assert!(graph.queries["partial_v"].partial, "the lenient extras yield a partial view");
            prop_assert!(!batch.diagnostics.is_empty(), "the lenient extras yield run diagnostics");
        }

        // The wire document is untouched by the index and byte-identical
        // across every backend. Strict logs only: a session lists a
        // lenient log's run diagnostics in another order than the batch
        // run, and without the noise statement's excerpt.
        if !lenient {
            let batch_report =
                batch.report_v2().map_err(|e| TestCaseError::fail(e.to_string()))?;
            for (backend, engine) in &mut engines {
                let report =
                    engine.report_v2().map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(report.to_json(), batch_report.to_json(), "{}", backend);
            }
        }
    }

    /// Redefining a view mid-session converges to the one-shot result of
    /// the edited log.
    #[test]
    fn redefinition_converges_to_edited_log(seed in 0u64..10_000, pick in 0usize..8) {
        let workload =
            generator::generate(&GeneratorConfig { views: 8, ..GeneratorConfig::seeded(seed) });
        let mut engine = Engine::new();
        engine.ingest(&workload.full_sql()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        engine.refresh().map_err(|e| TestCaseError::fail(e.to_string()))?;
        // Edit one view (content change, same lineage shape).
        let edited = with_limit(&workload.view_statements[pick], 777);
        engine.ingest(&edited).map_err(|e| TestCaseError::fail(e.to_string()))?;
        // One-shot over the edited log.
        let mut statements: Vec<String> = workload.view_statements.clone();
        statements[pick] = edited;
        let full = format!("{}\n{};", workload.ddl, statements.join(";\n"));
        let one_shot = lineagex(&full).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let graph = engine.graph().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&graph.queries, &one_shot.graph.queries);
        prop_assert_eq!(&graph.nodes, &one_shot.graph.nodes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every publish of a random write sequence — new views,
    /// same-shape redefinitions, redefinitions that add, drop or rename
    /// output columns, `DROP`, base-table DDL that changes the catalog
    /// schema, externals, and lenient cycles — the index the engine
    /// maintains equals a fresh build of the published graph, and its
    /// traversals match the string walk.
    #[test]
    fn maintained_index_equals_a_fresh_build(
        writes in proptest::collection::vec((0u8..8, 0usize..6, 0usize..8, 0u32..4), 1..24),
        pick in proptest::prelude::any::<usize>(),
    ) {
        for jobs in [1usize, 4] {
            let mut options = EngineOptions { jobs, ..EngineOptions::default() };
            options.extract.lenient = true;
            let mut engine = Engine::with_options(options);
            engine
                .ingest("CREATE TABLE base (a int, b int, c int);")
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            for &(op, view, source, n) in &writes {
                engine
                    .ingest(&session_write(op, view, source, n))
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                let snapshot = engine.publish().map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(
                    snapshot.index.to_raw(),
                    GraphIndex::build(&snapshot.graph).to_raw(),
                    "jobs={} after `{}`", jobs, session_write(op, view, source, n)
                );
                let columns: Vec<SourceColumn> = snapshot
                    .graph
                    .nodes
                    .values()
                    .flat_map(|n| n.columns.iter().map(|c| SourceColumn::new(&n.name, c)))
                    .collect();
                if let Some(origin) = columns.get(pick % columns.len().max(1)) {
                    for spec in [
                        QuerySpec::new().from_column(&origin.table, &origin.column).downstream(),
                        QuerySpec::new().from_column(&origin.table, &origin.column).upstream(),
                        QuerySpec::new().from_table(&origin.table).table_level(),
                    ] {
                        prop_assert_eq!(
                            spec.run_with(&snapshot.index),
                            spec.run_on_unindexed(&snapshot.graph)
                        );
                    }
                }
            }
        }
    }
}

/// The acceptance scenario: on a 200-view log, redefining one view
/// re-extracts exactly its downstream cone — measured, not assumed, via
/// the engine's extraction counters.
#[test]
fn redefining_one_view_on_a_200_view_log_reextracts_only_its_cone() {
    let workload =
        generator::generate(&GeneratorConfig { views: 200, ..GeneratorConfig::seeded(29) });
    let mut engine = Engine::new();
    engine.ingest(&workload.full_sql()).unwrap();
    assert_eq!(engine.refresh().unwrap(), 200);

    // Pick a hub: a view with real dependents but a proper sub-log cone.
    let (target, cone) = workload
        .view_names
        .iter()
        .map(|name| (name.clone(), engine.downstream_cone(name)))
        .filter(|(_, cone)| cone.len() > 1 && cone.len() < 100)
        .max_by_key(|(_, cone)| cone.len())
        .expect("the 200-view workload has a mid-sized hub");
    let original = workload
        .view_statements
        .iter()
        .find(|s| s.contains(&format!("CREATE VIEW {target} ")))
        .unwrap();

    engine.ingest(&with_limit(original, 424_242)).unwrap();
    let reextracted = engine.refresh().unwrap();
    assert_eq!(reextracted, cone.len(), "must re-extract exactly the downstream cone");
    assert_eq!(engine.stats().last_refresh_extractions as usize, cone.len());
    assert!(cone.len() < 100, "cone must stay a fraction of the 200-view log");
    // Untouched views kept their lineage; total work stayed cone-sized.
    assert_eq!(engine.stats().extractions as usize, 200 + cone.len());
    assert!(workload.ground_truth.diff(engine.graph().unwrap()).is_empty());
}
