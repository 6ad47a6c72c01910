//! # LineageX (Rust)
//!
//! A from-scratch Rust reproduction of **"LineageX: A Column Lineage
//! Extraction System for SQL"** (ICDE 2025): static column-level lineage
//! extraction from SQL query logs, with table/view auto-inference,
//! `SELECT *` and ambiguity handling, an optional connected mode that
//! resolves names like a database's `EXPLAIN`, impact analysis, and
//! JSON/DOT/HTML visualisation.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`sqlparse`] | `lineagex-sqlparse` | SQL lexer, parser, AST |
//! | [`catalog`] | `lineagex-catalog` | schema catalog: base tables and views from DDL |
//! | [`core`] | `lineagex-core` | the lineage extraction engine |
//! | [`engine`] | `lineagex-engine` | incremental session engine, parallel scheduler |
//! | [`serve`] | `lineagex-serve` | concurrent JSON-lines lineage service over TCP |
//! | [`obs`] | `lineagex-obs` | lock-free metrics registry: counters, histograms, span timers |
//! | [`baseline`] | `lineagex-baseline` | SQLLineage-like & LLM-style baselines |
//! | [`viz`] | `lineagex-viz` | JSON / DOT / interactive HTML output |
//! | [`datasets`] | `lineagex-datasets` | Example 1, MIMIC-like, generators |
//!
//! ## Quick start
//!
//! ```
//! use lineagex::prelude::*;
//!
//! let result = lineagex(
//!     "CREATE TABLE web (cid int, date date, page text, reg boolean);
//!      CREATE VIEW webinfo AS
//!        SELECT cid AS wcid, page AS wpage FROM web
//!        WHERE EXTRACT(YEAR FROM date) = 2022;",
//! ).unwrap();
//!
//! // Who is affected if web.page changes?
//! let impact = result.impact_of("web", "page");
//! assert!(impact.contains(&SourceColumn::new("webinfo", "wpage")));
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

#[cfg(feature = "baseline")]
pub use lineagex_baseline as baseline;
pub use lineagex_catalog as catalog;
pub use lineagex_core as core;
#[cfg(feature = "datasets")]
pub use lineagex_datasets as datasets;
pub use lineagex_engine as engine;
pub use lineagex_obs as obs;
pub use lineagex_serve as serve;
pub use lineagex_sqlparse as sqlparse;
#[cfg(feature = "viz")]
pub use lineagex_viz as viz;

/// The most commonly used items in one import.
///
/// The query surface convention: application code talks to a backend —
/// batch [`LineageResult`](lineagex_core::LineageResult) or session
/// [`Engine`](lineagex_engine::Engine) — through the
/// [`LineageView`](lineagex_core::LineageView) trait, composes questions
/// with [`GraphQuery`](lineagex_core::GraphQuery), and serialises through
/// the versioned [`ReportV2`](lineagex_core::ReportV2) document. Impact,
/// upstream, path, and explore questions are all
/// [`QuerySpec`](lineagex_core::QuerySpec) shapes run on the backend's
/// cached [`GraphIndex`](lineagex_core::GraphIndex).
pub mod prelude {
    pub use lineagex_catalog::Catalog;
    pub use lineagex_core::{
        lineagex, lineagex_lenient, AmbiguityPolicy, ColumnMatch, Diagnostic, DiagnosticCode,
        DialectKind, Direction, EdgeKind, GraphIndex, GraphIndexCache, GraphQuery, GraphStats,
        Interner, LineageError, LineageGraph, LineageResult, LineageView, LineageX, QueryAnswer,
        QueryLineage, QueryReport, QuerySpec, RelationMatch, ReportV2, Severity, SortedSet,
        SourceColumn, Subgraph, Symbol, SCHEMA_VERSION,
    };
    pub use lineagex_engine::{
        Engine, EngineOptions, EngineSnapshot, EngineStats, IngestAction, StmtId,
    };
    pub use lineagex_obs::{
        registry, Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry, SpanTimer,
    };
    pub use lineagex_serve::{ServeClient, ServeOptions, Server};
    #[cfg(feature = "viz")]
    pub use lineagex_viz::{
        subgraph_to_dot, subgraph_to_mermaid, to_dot, to_html, to_mermaid, to_output_json,
        to_report_v2_json,
    };
}
