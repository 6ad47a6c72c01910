//! The per-dialect fixture corpus (`tests/corpus/dialects/<name>.sql`).
//!
//! Each fixture is written in its dialect's native surface — quoting
//! style, comment syntax, and dialect statement forms (`QUALIFY`,
//! `TOP n`, `MERGE`) — and must go through the full pipeline under its
//! own dialect with **zero error-severity diagnostics**, in strict and
//! lenient mode alike. Recognized-but-unmodelled forms (`MERGE`) may
//! surface as `dialect-fallback` *warnings*; anything harder fails the
//! gate. This is the CI corpus-runner step (`./ci.sh` runs this test).

use lineagex::core::{DiagnosticCode, ExtractOptions, LineageX, Severity};
use lineagex::prelude::*;
use lineagex::sqlparse::parse_sql_with;
use std::collections::BTreeSet;

fn fixture(kind: DialectKind) -> String {
    let path = format!("tests/corpus/dialects/{}.sql", kind.name());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Every diagnostic of a run: run-level first, then per-query.
fn all_diagnostics(result: &LineageResult) -> Vec<Diagnostic> {
    let mut out = result.diagnostics.clone();
    for id in &result.graph.order {
        out.extend(result.graph.queries[id].diagnostics.iter().cloned());
    }
    out
}

fn run(kind: DialectKind, lenient: bool) -> LineageResult {
    let mut builder = LineageX::new().dialect(kind);
    if lenient {
        builder = builder.lenient();
    }
    builder
        .run(&fixture(kind))
        .unwrap_or_else(|e| panic!("{} corpus failed ({lenient}-lenient): {e}", kind.name()))
}

#[test]
fn every_dialect_parses_its_own_corpus_strictly() {
    for kind in DialectKind::ALL {
        let statements = parse_sql_with(&fixture(kind), kind)
            .unwrap_or_else(|e| panic!("{} corpus does not parse: {e}", kind.name()));
        assert!(statements.len() >= 7, "{} corpus is too thin", kind.name());
    }
}

#[test]
fn every_dialect_extracts_its_own_corpus_without_errors() {
    for kind in DialectKind::ALL {
        for lenient in [false, true] {
            let result = run(kind, lenient);
            assert!(!result.graph.queries.is_empty(), "{} corpus produced no lineage", kind.name());
            let errors: Vec<Diagnostic> = all_diagnostics(&result)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "{} corpus produced error diagnostics (lenient={lenient}): {errors:?}",
                kind.name()
            );
        }
    }
}

#[test]
fn merge_surfaces_as_a_span_tagged_dialect_fallback_warning() {
    // Every MERGE-capable dialect's fixture carries one MERGE statement;
    // it must degrade to exactly one dialect-fallback warning with a
    // span resolving into the fixture.
    for kind in
        [DialectKind::Postgres, DialectKind::Snowflake, DialectKind::BigQuery, DialectKind::TSql]
    {
        let sql = fixture(kind);
        let result = run(kind, false);
        let fallbacks: Vec<Diagnostic> = all_diagnostics(&result)
            .into_iter()
            .filter(|d| d.code == DiagnosticCode::DialectFallback)
            .collect();
        assert_eq!(fallbacks.len(), 1, "{}: {fallbacks:?}", kind.name());
        let diagnostic = &fallbacks[0];
        assert_eq!(diagnostic.severity, Severity::Warning);
        let span = diagnostic.span.expect("dialect-fallback carries a span");
        assert_eq!(&sql[span.start..span.start + 5], "MERGE", "{}", kind.name());
    }
    // The ANSI corpus has no dialect statement forms at all.
    let codes: BTreeSet<DiagnosticCode> =
        all_diagnostics(&run(DialectKind::Ansi, false)).iter().map(|d| d.code).collect();
    assert!(!codes.contains(&DiagnosticCode::DialectFallback), "{codes:?}");
}

#[test]
fn dialect_features_reach_the_lineage_graph() {
    // Snowflake QUALIFY contributes column references.
    let result = run(DialectKind::Snowflake, false);
    let first_hits = &result.graph.queries["first_hits"];
    assert!(first_hits.cref.contains(&SourceColumn::new("webinfo", "wdate")), "{first_hits:?}");
    // T-SQL TOP leaves projection lineage untouched.
    let result = run(DialectKind::TSql, false);
    let recent = &result.graph.queries["recent_hits"];
    assert_eq!(recent.output_names(), vec!["wcid", "wpage", "wdate"]);
    assert_eq!(recent.outputs[1].ccon, BTreeSet::from([SourceColumn::new("webinfo", "wpage")]));
    // BigQuery backticks resolve spaced identifiers end to end.
    let result = run(DialectKind::BigQuery, false);
    let webinfo = &result.graph.queries["webinfo"];
    assert_eq!(webinfo.outputs[2].ccon, BTreeSet::from([SourceColumn::new("raw web", "page")]));
}

#[test]
fn parallel_extraction_is_byte_identical_under_a_dialect() {
    // parallel ≡ sequential must survive dialect selection: the snowflake
    // corpus (QUALIFY + MERGE fallback) through jobs 1 vs 4, compared as
    // serialized ReportV2 bytes.
    let sql = fixture(DialectKind::Snowflake);
    let mut reports = Vec::new();
    for jobs in [1usize, 4] {
        let mut engine = Engine::with_options(EngineOptions {
            jobs,
            extract: ExtractOptions::new().with_lenient().with_dialect(DialectKind::Snowflake),
        });
        engine.ingest(&sql).unwrap();
        engine.refresh().unwrap();
        let report = engine.report_v2().unwrap();
        reports.push(serde_json::to_string(&report).unwrap());
    }
    assert_eq!(reports[0], reports[1], "jobs=4 drifted from jobs=1 under snowflake");
}

#[test]
fn serve_byte_identity_holds_under_a_dialect() {
    // The serve layer's byte-identity contract, extended to a non-ANSI
    // session: a server pinned to snowflake serves the same ReportV2
    // bytes a local engine under the same dialect serialises.
    let sql = fixture(DialectKind::Snowflake);
    let extract = ExtractOptions::new().with_lenient().with_dialect(DialectKind::Snowflake);
    let server = Server::start(
        "127.0.0.1:0",
        ServeOptions {
            engine: EngineOptions { extract, ..EngineOptions::default() },
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("client connects");
    assert_eq!(client.server_dialect().unwrap(), "snowflake");
    let reply = client.ingest(&sql).expect("ingest succeeds");
    assert!(reply.ok(), "ingest failed: {}", reply.line);
    let reply = client.report().expect("report succeeds");
    assert!(reply.ok(), "report failed: {}", reply.line);
    let marker = ",\"result\":";
    let at = reply.line.find(marker).expect("reply has a result field");
    let served = &reply.line[at + marker.len()..reply.line.len() - 1];

    let mut engine = Engine::with_options(EngineOptions { extract, ..EngineOptions::default() });
    engine.ingest(&sql).unwrap();
    engine.refresh().unwrap();
    let expected = serde_json::to_string(&engine.report_v2().unwrap()).unwrap();
    assert_eq!(served, expected, "served snowflake ReportV2 drifted from the engine serialisation");
    server.shutdown();
}

#[test]
fn engine_session_matches_batch_on_every_corpus() {
    // The incremental engine under the same dialect settles to the same
    // graph as the one-shot batch run — the equivalence invariant,
    // extended across the dialect matrix.
    for kind in DialectKind::ALL {
        let sql = fixture(kind);
        let batch = LineageX::new().dialect(kind).lenient().run(&sql).unwrap();
        let mut engine = Engine::with_options(EngineOptions {
            extract: lineagex::core::ExtractOptions::new().with_lenient().with_dialect(kind),
            ..EngineOptions::default()
        });
        engine.ingest(&sql).unwrap();
        let graph = engine.graph().unwrap();
        assert_eq!(&graph.queries, &batch.graph.queries, "{}", kind.name());
        assert_eq!(&graph.nodes, &batch.graph.nodes, "{}", kind.name());
    }
}
