//! # lineagex-catalog
//!
//! Schema metadata for LineageX: the relations a log scans but does not
//! define.
//!
//! * [`schema`] — column/table schema model;
//! * [`Catalog`] — an in-memory namespace of base tables and views,
//!   loadable from `CREATE TABLE` DDL and updated with the schemas the
//!   Query Dictionary's classification finds (`lineagex_core`).
//!
//! Every lineage path reads the catalog; none resolves names here. The
//! paper's connected mode, which uses a live database's `EXPLAIN` as a
//! metadata oracle, resolves names through the static extractor with the
//! catalog as its full metadata (`lineagex_core::ExplainPathExtractor`).

#![deny(rustdoc::broken_intra_doc_links)]

pub mod catalog;
pub mod error;
pub mod schema;

pub use catalog::Catalog;
pub use error::DbError;
pub use schema::{Column, RelationKind, TableSchema};
