//! The binary snapshot's contract with the live engine:
//!
//! 1. **round-trip ≡ identity** — `Engine::save_snapshot` followed by
//!    `Engine::load_snapshot` yields an engine whose `ReportV2` wire
//!    bytes, interned-index query answers, revision, and session stats
//!    are identical to the engine that wrote the file, for
//!    `jobs ∈ {1, 4}`;
//! 2. **cold entries hydrate correctly** — a redefinition ingested into
//!    a snapshot-loaded engine (whose statement dictionary is entirely
//!    `Cold`) settles to the same graph as a fresh engine fed the edited
//!    log, and only the dirty cone is re-extracted;
//! 3. **parallel shards ≡ sequential** — on a fully-defined
//!    multi-component workload, extracting components in parallel
//!    (`jobs = 4`) and one after another (`jobs = 1`) settles to
//!    byte-identical reports;
//! 4. **corruption is typed** — truncation, bit flips, foreign magic,
//!    and future versions all surface as `LineageError::Snapshot`,
//!    never a panic or a half-loaded engine;
//! 5. **retired counters still load** — a file written by an engine that
//!    kept counters this one no longer has loads and answers unchanged.

use lineagex::datasets::{generate_scaled, generator, GeneratorConfig, ScaleConfig};
use lineagex::engine::{Engine, EngineOptions};
use lineagex::prelude::*;
use lineagex::sqlparse::ast::{Expr, Literal, Statement};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lineagex_test_{tag}_{}.lxsn", std::process::id()))
}

/// A settled engine over the seeded 60-view generator workload.
fn settled_engine(jobs: usize) -> Engine {
    let workload = generator::generate(&GeneratorConfig {
        views: 60,
        star_probability: 0.3,
        ..GeneratorConfig::seeded(11)
    });
    let mut engine = Engine::with_options(EngineOptions { jobs, ..EngineOptions::default() });
    engine.ingest(&workload.full_sql()).unwrap();
    engine.refresh().unwrap();
    engine
}

/// Every (table, column) pair in the settled graph, for query sweeps.
fn all_columns(engine: &mut Engine) -> Vec<(String, String)> {
    let graph = engine.graph().unwrap();
    let mut columns = Vec::new();
    for node in graph.nodes.values() {
        for column in &node.columns {
            columns.push((node.name.clone(), column.clone()));
        }
    }
    columns
}

#[test]
fn roundtrip_is_identity_for_report_index_and_stats() {
    for jobs in [1, 4] {
        let path = temp_path(&format!("roundtrip_j{jobs}"));
        let options = EngineOptions { jobs, ..EngineOptions::default() };
        let mut original = settled_engine(jobs);
        original.save_snapshot(&path).unwrap();
        let mut loaded = Engine::load_snapshot(&path, options).unwrap();
        std::fs::remove_file(&path).ok();

        // Wire document: byte-identical.
        let want = original.report_v2().unwrap().to_json();
        assert_eq!(loaded.report_v2().unwrap().to_json(), want, "jobs={jobs}");

        // Interned index: the persisted CSR answers every traversal
        // exactly like the index the writer built from the live graph.
        let original_index = original.graph_index().unwrap();
        let loaded_index = loaded.graph_index().unwrap();
        for (table, column) in all_columns(&mut original) {
            for spec in [
                QuerySpec::new().from_column(table.as_str(), column.as_str()).downstream(),
                QuerySpec::new().from_column(table.as_str(), column.as_str()).upstream(),
                QuerySpec::new().from_table(table.as_str()).table_level().downstream(),
            ] {
                assert_eq!(
                    spec.run_with(&loaded_index),
                    spec.run_with(&original_index),
                    "jobs={jobs} {table}.{column}"
                );
            }
        }

        // Session bookkeeping survives: revision, counters, entry count.
        assert_eq!(loaded.revision(), original.revision());
        assert_eq!(loaded.stats(), original.stats());
        assert_eq!(loaded.entry_count(), original.entry_count());
        assert!(!loaded.has_pending_work());
    }
}

#[test]
fn loaded_engine_hydrates_cold_entries_and_converges_on_redefinition() {
    let workload =
        generator::generate(&GeneratorConfig { views: 40, ..GeneratorConfig::seeded(23) });
    let path = temp_path("hydrate");
    let options = EngineOptions::default;

    let mut writer = Engine::with_options(options());
    writer.ingest(&workload.full_sql()).unwrap();
    writer.refresh().unwrap();
    writer.save_snapshot(&path).unwrap();

    // Redefine one mid-graph view — same shape, different LIMIT, so the
    // content changes but the lineage stays derivable. The loaded engine
    // hydrates only the dirty cone; every other entry stays cold.
    let target = "view_8";
    let original_statement = workload
        .view_statements
        .iter()
        .find(|s| s.contains(&format!("CREATE VIEW {target} ")))
        .expect("workload defines view_8");
    let mut parsed = lineagex::sqlparse::parse_statement(original_statement).unwrap();
    if let Statement::CreateView { ref mut query, .. } = parsed {
        query.limit = Some(Box::new(Expr::Literal(Literal::Number("777".to_string()))));
    }
    let redefinition = parsed.to_string();
    let cone = {
        let loaded = Engine::load_snapshot(&path, options()).unwrap();
        loaded.downstream_cone(target).len()
    };

    let mut loaded = Engine::load_snapshot(&path, options()).unwrap();
    std::fs::remove_file(&path).ok();
    loaded.ingest(&redefinition).unwrap();
    let extracted = loaded.refresh().unwrap();
    assert_eq!(extracted, cone, "refresh must re-extract exactly the dirty cone");

    // Fresh engine over the edited log — the convergence oracle.
    let mut fresh = Engine::with_options(options());
    fresh.ingest(&workload.full_sql()).unwrap();
    fresh.ingest(&redefinition).unwrap();
    assert_eq!(
        loaded.report_v2().unwrap().to_json(),
        fresh.report_v2().unwrap().to_json(),
        "snapshot-loaded session must converge to the edited log"
    );
}

#[test]
fn sharded_scheduling_settles_identically_across_jobs() {
    // Fully-defined multi-component workload: 4 diamond components.
    let workload = generate_scaled(&ScaleConfig::new(7, 4, 6, 5));
    let sql = workload.full_sql();
    let mut reports = Vec::new();
    for jobs in [1, 4] {
        let mut engine = Engine::with_options(EngineOptions { jobs, ..EngineOptions::default() });
        engine.ingest(&sql).unwrap();
        engine.refresh().unwrap();
        reports.push(engine.report_v2().unwrap().to_json());
    }
    assert_eq!(reports[0], reports[1], "parallel vs sequential component shards");
}

#[test]
fn corrupted_snapshots_fail_closed_with_typed_errors() {
    let path = temp_path("corrupt");
    let mut writer = settled_engine(1);
    writer.save_snapshot(&path).unwrap();
    let valid = std::fs::read(&path).unwrap();

    let expect_snapshot_error = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        match Engine::load_snapshot(&path, EngineOptions::default()) {
            Err(LineageError::Snapshot(_)) => {}
            other => panic!("{what}: expected LineageError::Snapshot, got {other:?}"),
        }
    };

    // Truncation at every region boundary: header, mid-payload, checksum.
    expect_snapshot_error(&valid[..3], "3-byte file");
    expect_snapshot_error(&valid[..valid.len() / 2], "half the payload");
    expect_snapshot_error(&valid[..valid.len() - 4], "clipped checksum");

    // A flipped payload byte is caught by the checksum before decoding.
    let mut flipped = valid.clone();
    flipped[valid.len() / 2] ^= 0x40;
    expect_snapshot_error(&flipped, "bit flip");

    // Foreign magic and future versions are rejected up front.
    let mut magic = valid.clone();
    magic[0] = b'X';
    expect_snapshot_error(&magic, "bad magic");
    let mut version = valid;
    version[4] = 0xfe;
    expect_snapshot_error(&version, "future version");

    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshots_carrying_retired_counters_still_load() {
    // Engines that cached parsed scripts wrote two more counters into
    // every `.lxsn`; such files must keep loading under the same format
    // version, with the unknown names ignored.
    let path = temp_path("retired_counters");
    let mut writer = settled_engine(1);
    writer.save_snapshot(&path).unwrap();
    let mut snapshot = lineagex::core::read_snapshot_file(&path).unwrap();
    snapshot.counters.push(("stats.parse_cache_hits".into(), 3));
    snapshot.counters.push(("stats.parse_cache_misses".into(), 125));
    lineagex::core::write_snapshot_file(&path, &snapshot).unwrap();
    let mut loaded = Engine::load_snapshot(&path, EngineOptions::default()).unwrap();
    std::fs::remove_file(&path).ok();

    let (loaded_index, writer_index) =
        (loaded.graph_index().unwrap(), writer.graph_index().unwrap());
    let mut answered = 0;
    for (table, column) in all_columns(&mut writer) {
        let spec = QuerySpec::new().from_column(table.as_str(), column.as_str()).downstream();
        let want = QueryReport::from_answer(&spec.run_with(&writer_index)).to_json();
        assert_eq!(QueryReport::from_answer(&spec.run_with(&loaded_index)).to_json(), want);
        answered += usize::from(want.contains("\"column\":"));
    }
    assert!(answered > 0, "the sweep must include non-empty answers");
    assert_eq!(loaded.report_v2().unwrap().to_json(), writer.report_v2().unwrap().to_json());
    assert_eq!(loaded.stats(), writer.stats());
}
