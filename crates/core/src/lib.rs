//! # lineagex-core
//!
//! The LineageX column-lineage extraction engine — a Rust reproduction of
//! the system demonstrated in *"LineageX: A Column Lineage Extraction
//! System for SQL"* (ICDE 2025).
//!
//! Given a set of SQL statements (a query log, view definitions, or
//! dbt-style named models), LineageX infers, **without executing
//! anything**:
//!
//! * table-level lineage `T` — which relations each query reads;
//! * column-level lineage — for each output column, the contributing
//!   inputs `C_con`, plus the query-level referenced set `C_ref`
//!   (predicates, grouping, ordering, set-operation branches) and their
//!   intersection `C_both`;
//! * a combined [`model::LineageGraph`] over base tables, views, and
//!   query results, ready for impact analysis and visualisation.
//!
//! The pipeline follows the paper's architecture (Fig. 3):
//!
//! 1. [`preprocess`] — the SQL Preprocessing Module builds the **Query
//!    Dictionary** mapping identifiers to query bodies;
//! 2. `lineagex-sqlparse` — the Transformation Module produces ASTs;
//! 3. `extract` (internal) — the Lineage Information Extraction Module traverses
//!    each AST post-order, applying the keyword rules of Table I;
//! 4. [`infer`] — **Table/View Auto-Inference** reorders processing with a
//!    LIFO deferral stack so `SELECT *` and prefix-less columns resolve
//!    even when definitions arrive out of order;
//! 5. [`explain_path`] — the optional connected mode: the same extractor
//!    under PostgreSQL's name-resolution rules, with the catalog as full
//!    metadata (the paper's `EXPLAIN` oracle).
//!
//! ## Quick start
//!
//! ```
//! let result = lineagex_core::lineagex(
//!     "CREATE TABLE web (cid int, date date, page text, reg boolean);
//!      CREATE VIEW webinfo AS
//!        SELECT cid AS wcid, page AS wpage FROM web WHERE reg;",
//! ).unwrap();
//!
//! let webinfo = &result.graph.queries["webinfo"];
//! assert_eq!(webinfo.output_names(), vec!["wcid", "wpage"]);
//! // web.reg is referenced (C_ref) but contributes to no output.
//! assert!(webinfo.cref.iter().any(|c| c.column == "reg"));
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod api;
pub mod deps;
pub mod diagnostics;
pub mod error;
pub mod explain_path;
pub(crate) mod extract;
pub mod graph;
pub mod impact;
pub mod infer;
pub mod model;
pub mod options;
pub mod preprocess;
pub mod query;
pub mod report;
pub mod schedule;
pub mod shared;
pub mod snapshot;
pub mod trace;
pub mod view;

pub use api::{lineagex, lineagex_lenient, LineageX};
pub use deps::referenced_relations;
pub use diagnostics::{Diagnostic, DiagnosticCode, DiagnosticSpan, Severity};
pub use error::LineageError;
pub use explain_path::ExplainPathExtractor;
pub use graph::{ColumnId, GraphIndex, GraphIndexCache, Interner, RelationId, Symbol};
pub use impact::ImpactReport;
pub use infer::{
    assemble_graph, assemble_nodes, cycle_stub, extract_entry, run_deferral_stack, InferenceEngine,
    InferredSchemas, LineageResult, StackExtraction,
};
pub use lineagex_sqlparse::DialectKind;
pub use model::{
    Edge, EdgeKind, GraphStats, LineageGraph, Node, NodeKind, OutputColumn, QueryKind,
    QueryLineage, SourceColumn,
};
pub use options::{AmbiguityPolicy, ExtractOptions};
pub use preprocess::{
    preprocess_script, preprocess_statement, PreprocessedStatement, QueryDict, QueryEntry,
    ScriptItem, ScriptRules,
};
pub use query::{
    ColumnMatch, Direction, GraphQuery, PathStep, QueryAnswer, QuerySpec, RelationMatch, Subgraph,
};
pub use report::{ConeReport, JsonReport, QueryReport, ReportV2, SCHEMA_VERSION};
pub use shared::{SharedMap, SharedVec, SortedSet};
pub use snapshot::{
    read_snapshot, read_snapshot_file, write_snapshot, write_snapshot_file, GraphSnapshot,
    SnapshotEntry, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use trace::{Rule, TraceLog, TraceStep};
pub use view::LineageView;
