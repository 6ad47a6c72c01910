//! Binary snapshot persistence for a settled lineage session.
//!
//! A 100k-view catalog takes seconds to re-extract but only tens of
//! milliseconds to deserialise, so a long-lived service should cold-start
//! from disk, not from SQL. This module defines the on-disk format:
//! a compact, versioned, little-endian encoding of everything a settled
//! session needs to answer queries immediately —
//!
//! * the [`Catalog`] (base tables and view schemas),
//! * the settled [`LineageGraph`] (nodes, per-query lineage records with
//!   their diagnostics, processing order),
//! * the interned CSR [`GraphIndex`], serialised as its dense arrays so
//!   loading skips the `O(V + E)` rebuild entirely,
//! * session diagnostics, per-query inferred-schema records, and the
//!   engine's entry table (id, SQL text, dependency sets) so later
//!   ingests can re-extract incrementally,
//! * the settled graph revision and the engine's counters.
//!
//! ## Layout
//!
//! ```text
//! [0..4)  magic  "LXSN"
//! [4]     format version (SNAPSHOT_VERSION)
//! [5..]   sections, in order: catalog, graph, index, session
//!         diagnostics, inferred schemas, entries, revision, counters,
//!         dialect (version 2+: the session's SQL dialect name)
//! [-8..]  FNV-1a 64 checksum of every preceding byte, little-endian
//! ```
//!
//! All integers are little-endian; strings are `u32` length-prefixed
//! UTF-8; collections are `u32` count-prefixed and written in a
//! deterministic order (sorted, except the entry table, which the
//! engine writes in ingest order), so the same session always produces
//! byte-identical snapshots.
//!
//! ## Invalidation
//!
//! A snapshot is a *settled* state: writers must refresh before saving.
//! Readers validate magic, version, and checksum before decoding, and
//! every decode error is a typed [`SnapshotError`] carrying
//! [`DiagnosticCode::SnapshotCorrupt`] — never a panic. The checksum
//! catches random damage, not a file written with wrong ids, so the
//! index section's ids and offsets are also bounds-checked on load. A
//! version bump invalidates all older files (there is no migration path;
//! re-extract from the SQL log instead), which is why the version byte
//! sits ahead of everything except the magic.

use crate::diagnostics::{Diagnostic, DiagnosticCode, DiagnosticSpan, Severity};
use crate::error::LineageError;
use crate::graph::GraphIndex;
use crate::model::{
    EdgeKind, LineageGraph, Node, NodeKind, OutputColumn, QueryKind, QueryLineage, SourceColumn,
};
use crate::shared::SortedSet;
use lineagex_catalog::{Catalog, Column, RelationKind, TableSchema};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// The four magic bytes every snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"LXSN";

/// The current format version. Bumping it invalidates every older file.
/// History: 1 = initial format; 2 = trailing dialect section (the SQL
/// dialect the session was built under, so a service restart cannot
/// silently re-parse the log under different grammar rules).
pub const SNAPSHOT_VERSION: u8 = 2;

/// A snapshot load/store failure, classified under the typed
/// [`DiagnosticCode::SnapshotCorrupt`] diagnostic code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// Always [`DiagnosticCode::SnapshotCorrupt`] today; carried
    /// explicitly so callers surface a typed code, not a string.
    pub code: DiagnosticCode,
    /// What went wrong (bad magic, truncation offset, checksum, I/O).
    pub message: String,
}

impl SnapshotError {
    fn corrupt(message: impl Into<String>) -> SnapshotError {
        SnapshotError { code: DiagnosticCode::SnapshotCorrupt, message: message.into() }
    }

    /// Render as a session diagnostic.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::new(self.code, self.message.clone())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for LineageError {
    fn from(e: SnapshotError) -> Self {
        LineageError::Snapshot(e.message)
    }
}

/// One persisted engine entry: enough to re-extract the query later
/// (the SQL text re-parses on demand) and to re-link the dependency
/// index without parsing anything at load time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The entry's query id (including `#n` duplicate suffixes).
    pub id: String,
    /// The statement's rendered SQL text.
    pub sql: String,
    /// Relations the statement scans, as written.
    pub deps: Vec<String>,
    /// The same set, name-normalised.
    pub deps_norm: Vec<String>,
}

/// Everything a settled session persists. The engine crate assembles
/// and consumes this; the codec lives here because every serialised
/// type is core- or catalog-owned.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    /// Base-table and view schemas.
    pub catalog: Catalog,
    /// The settled lineage graph.
    pub graph: LineageGraph,
    /// The interned CSR index over `graph`, persisted so cold-start
    /// skips the rebuild.
    pub index: GraphIndex,
    /// Session-level diagnostics (parse failures, skipped statements).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-query inferred external schemas (`query id → table → columns`).
    pub inferred: BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
    /// The engine's entry table, in ingest order (a load numbers the
    /// entries by position).
    pub entries: Vec<SnapshotEntry>,
    /// The settled graph revision at save time.
    pub revision: u64,
    /// Named engine counters (stats, id-allocation state).
    pub counters: Vec<(String, u64)>,
    /// The SQL dialect name the session lexed and parsed under
    /// ([`lineagex_sqlparse::DialectKind::name`]). Loaders must refuse a
    /// conflicting explicit dialect rather than mix grammars.
    pub dialect: String,
}

/// Serialise a snapshot to its byte representation.
pub fn write_snapshot(snapshot: &GraphSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&SNAPSHOT_MAGIC);
    w.u8(SNAPSHOT_VERSION);
    write_catalog(&mut w, &snapshot.catalog);
    write_graph(&mut w, &snapshot.graph);
    write_index(&mut w, &snapshot.index);
    w.u32(snapshot.diagnostics.len());
    for d in &snapshot.diagnostics {
        write_diagnostic(&mut w, d);
    }
    w.u32(snapshot.inferred.len());
    for (id, tables) in &snapshot.inferred {
        w.str(id);
        w.u32(tables.len());
        for (table, cols) in tables {
            w.str(table);
            w.u32(cols.len());
            for col in cols {
                w.str(col);
            }
        }
    }
    w.u32(snapshot.entries.len());
    for entry in &snapshot.entries {
        w.str(&entry.id);
        w.str(&entry.sql);
        w.u32(entry.deps.len());
        for d in &entry.deps {
            w.str(d);
        }
        w.u32(entry.deps_norm.len());
        for d in &entry.deps_norm {
            w.str(d);
        }
    }
    w.u64(snapshot.revision);
    w.u32(snapshot.counters.len());
    for (name, value) in &snapshot.counters {
        w.str(name);
        w.u64(*value);
    }
    w.str(&snapshot.dialect);
    let checksum = fnv1a(&w.buf);
    w.u64(checksum);
    w.buf
}

/// Decode a snapshot from bytes, validating magic, version, and
/// checksum before touching any section.
pub fn read_snapshot(bytes: &[u8]) -> Result<GraphSnapshot, SnapshotError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 1 + 8 {
        return Err(SnapshotError::corrupt(format!(
            "file too short to be a snapshot ({} bytes)",
            bytes.len()
        )));
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::corrupt("bad magic (not a lineagex snapshot)"));
    }
    let version = bytes[4];
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::corrupt(format!(
            "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
        )));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("tail is 8 bytes"));
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(SnapshotError::corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    let mut r = Reader { buf: payload, pos: 5 };
    let catalog = read_catalog(&mut r)?;
    let graph = read_graph(&mut r)?;
    let index = read_index(&mut r)?;
    let diag_count = r.count()?;
    let mut diagnostics = Vec::with_capacity(diag_count);
    for _ in 0..diag_count {
        diagnostics.push(read_diagnostic(&mut r)?);
    }
    let mut inferred = BTreeMap::new();
    for _ in 0..r.count()? {
        let id = r.str()?;
        let mut tables = BTreeMap::new();
        for _ in 0..r.count()? {
            let table = r.str()?;
            let mut cols = BTreeSet::new();
            for _ in 0..r.count()? {
                cols.insert(r.str()?);
            }
            tables.insert(table, cols);
        }
        inferred.insert(id, tables);
    }
    let entry_count = r.count()?;
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let id = r.str()?;
        let sql = r.str()?;
        let mut deps = Vec::new();
        for _ in 0..r.count()? {
            deps.push(r.str()?);
        }
        let mut deps_norm = Vec::new();
        for _ in 0..r.count()? {
            deps_norm.push(r.str()?);
        }
        entries.push(SnapshotEntry { id, sql, deps, deps_norm });
    }
    let revision = r.u64()?;
    let mut counters = Vec::new();
    for _ in 0..r.count()? {
        let name = r.str()?;
        let value = r.u64()?;
        counters.push((name, value));
    }
    let dialect = r.str()?;
    if r.pos != payload.len() {
        return Err(SnapshotError::corrupt(format!(
            "{} trailing byte(s) after the last section",
            payload.len() - r.pos
        )));
    }
    Ok(GraphSnapshot {
        catalog,
        graph,
        index,
        diagnostics,
        inferred,
        entries,
        revision,
        counters,
        dialect,
    })
}

/// Serialise a snapshot straight to a file.
pub fn write_snapshot_file(path: &Path, snapshot: &GraphSnapshot) -> Result<(), SnapshotError> {
    std::fs::write(path, write_snapshot(snapshot))
        .map_err(|e| SnapshotError::corrupt(format!("cannot write {}: {e}", path.display())))
}

/// Load and decode a snapshot file.
pub fn read_snapshot_file(path: &Path) -> Result<GraphSnapshot, SnapshotError> {
    let bytes = std::fs::read(path)
        .map_err(|e| SnapshotError::corrupt(format!("cannot read {}: {e}", path.display())))?;
    read_snapshot(&bytes)
}

// --- section codecs -----------------------------------------------------

fn write_catalog(w: &mut Writer, catalog: &Catalog) {
    w.u32(catalog.len());
    for schema in catalog.relations() {
        w.str(&schema.name);
        w.u32(schema.columns.len());
        for col in &schema.columns {
            w.str(&col.name);
            w.str(&col.data_type);
        }
        match &schema.kind {
            RelationKind::BaseTable => w.u8(0),
            RelationKind::View { definition, materialized } => {
                w.u8(1);
                w.str(definition);
                w.bool(*materialized);
            }
        }
    }
}

fn read_catalog(r: &mut Reader) -> Result<Catalog, SnapshotError> {
    let mut catalog = Catalog::new();
    for _ in 0..r.count()? {
        let name = r.str()?;
        let mut columns = Vec::new();
        for _ in 0..r.count()? {
            let col_name = r.str()?;
            let data_type = r.str()?;
            columns.push(Column::new(col_name, data_type));
        }
        let kind = match r.u8()? {
            0 => RelationKind::BaseTable,
            1 => {
                let definition = r.str()?;
                let materialized = r.bool()?;
                RelationKind::View { definition, materialized }
            }
            other => return Err(SnapshotError::corrupt(format!("bad relation kind {other}"))),
        };
        catalog.add_or_replace(TableSchema { name, columns, kind });
    }
    Ok(catalog)
}

fn write_graph(w: &mut Writer, graph: &LineageGraph) {
    w.u32(graph.nodes.len());
    for (key, node) in &graph.nodes {
        w.str(key);
        w.str(&node.name);
        w.u8(node_kind_tag(node.kind));
        w.u32(node.columns.len());
        for col in &node.columns {
            w.str(col);
        }
    }
    w.u32(graph.queries.len());
    for (key, query) in &graph.queries {
        w.str(key);
        write_query(w, query);
    }
    w.u32(graph.order.len());
    for id in &graph.order {
        w.str(id);
    }
}

fn read_graph(r: &mut Reader) -> Result<LineageGraph, SnapshotError> {
    // The maps were serialised in key order, so the stream is already
    // sorted: collecting pairs and cutting them into leaves is markedly
    // faster at 10k+ queries than one insert each.
    let node_count = r.count()?;
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let key = r.str()?;
        let name = r.str()?;
        let kind = node_kind_from(r.u8()?)?;
        let col_count = r.count()?;
        let mut columns = Vec::with_capacity(col_count);
        for _ in 0..col_count {
            columns.push(r.str()?);
        }
        nodes.push((key, Arc::new(Node { name, kind, columns })));
    }
    let query_count = r.count()?;
    let mut queries = Vec::with_capacity(query_count);
    for _ in 0..query_count {
        let key = r.str()?;
        let query = read_query(r)?;
        queries.push((key, Arc::new(query)));
    }
    let order_count = r.count()?;
    let mut order = Vec::with_capacity(order_count);
    for _ in 0..order_count {
        order.push(r.str()?);
    }
    Ok(LineageGraph {
        nodes: nodes.into_iter().collect(),
        queries: queries.into_iter().collect(),
        order: order.into(),
    })
}

fn write_query(w: &mut Writer, query: &QueryLineage) {
    w.str(&query.id);
    match query.kind {
        QueryKind::View { materialized } => {
            w.u8(0);
            w.bool(materialized);
        }
        QueryKind::TableAs => w.u8(1),
        QueryKind::Insert => w.u8(2),
        QueryKind::Update => w.u8(3),
        QueryKind::Select => w.u8(4),
    }
    w.u32(query.outputs.len());
    for out in &query.outputs {
        w.str(&out.name);
        w.u32(out.ccon.len());
        for sc in &out.ccon {
            write_source(w, sc);
        }
    }
    w.u32(query.cref.len());
    for sc in &query.cref {
        write_source(w, sc);
    }
    w.u32(query.tables.len());
    for t in &query.tables {
        w.str(t);
    }
    w.u32(query.diagnostics.len());
    for d in &query.diagnostics {
        write_diagnostic(w, d);
    }
    w.bool(query.partial);
}

fn read_query(r: &mut Reader) -> Result<QueryLineage, SnapshotError> {
    let id = r.str()?;
    let kind = match r.u8()? {
        0 => QueryKind::View { materialized: r.bool()? },
        1 => QueryKind::TableAs,
        2 => QueryKind::Insert,
        3 => QueryKind::Update,
        4 => QueryKind::Select,
        other => return Err(SnapshotError::corrupt(format!("bad query kind {other}"))),
    };
    let output_count = r.count()?;
    let mut outputs = Vec::with_capacity(output_count);
    for _ in 0..output_count {
        let name = r.str()?;
        let ccon_count = r.count()?;
        let mut ccon = Vec::with_capacity(ccon_count);
        for _ in 0..ccon_count {
            ccon.push(read_source(r)?);
        }
        outputs.push(OutputColumn { name, ccon: ccon.into_iter().collect() });
    }
    let cref_count = r.count()?;
    let mut cref = Vec::with_capacity(cref_count);
    for _ in 0..cref_count {
        cref.push(read_source(r)?);
    }
    let cref: SortedSet<SourceColumn> = cref.into_iter().collect();
    let table_count = r.count()?;
    let mut tables = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        tables.push(r.str()?);
    }
    let tables: SortedSet<String> = tables.into_iter().collect();
    let diag_count = r.count()?;
    let mut diagnostics = Vec::with_capacity(diag_count);
    for _ in 0..diag_count {
        diagnostics.push(read_diagnostic(r)?);
    }
    let partial = r.bool()?;
    Ok(QueryLineage { id, kind, outputs, cref, tables, diagnostics, partial })
}

fn write_source(w: &mut Writer, sc: &SourceColumn) {
    w.str(&sc.table);
    w.str(&sc.column);
}

fn read_source(r: &mut Reader) -> Result<SourceColumn, SnapshotError> {
    let table = r.str()?;
    let column = r.str()?;
    Ok(SourceColumn { table, column })
}

fn write_diagnostic(w: &mut Writer, d: &Diagnostic) {
    w.str(d.code.as_str());
    w.u8(severity_tag(d.severity));
    w.str(&d.message);
    w.opt_str(d.statement.as_deref());
    match &d.span {
        None => w.u8(0),
        Some(span) => {
            w.u8(1);
            w.u64(span.start as u64);
            w.u64(span.end as u64);
            w.u32(span.line as usize);
            w.u32(span.column as usize);
        }
    }
    w.opt_str(d.excerpt.as_deref());
}

fn read_diagnostic(r: &mut Reader) -> Result<Diagnostic, SnapshotError> {
    let code = diagnostic_code_from(&r.str()?)?;
    let severity = severity_from(r.u8()?)?;
    let message = r.str()?;
    let statement = r.opt_str()?;
    let span = match r.u8()? {
        0 => None,
        1 => {
            let start = r.u64()? as usize;
            let end = r.u64()? as usize;
            let line = r.u32()?;
            let column = r.u32()?;
            Some(DiagnosticSpan { start, end, line, column })
        }
        other => return Err(SnapshotError::corrupt(format!("bad span tag {other}"))),
    };
    let excerpt = r.opt_str()?;
    Ok(Diagnostic { code, severity, message, statement, span, excerpt })
}

fn write_index(w: &mut Writer, index: &GraphIndex) {
    let raw = index.to_raw();
    w.u32(raw.names.len());
    for name in &raw.names {
        w.str(name);
    }
    w.u32(raw.relations.len());
    for rel in &raw.relations {
        match rel.kind {
            None => w.u8(0),
            Some(kind) => w.u8(1 + node_kind_tag(kind)),
        }
        w.u32(rel.declared.len());
        for &c in &rel.declared {
            w.u32(c as usize);
        }
        w.u32(rel.col_start as usize);
        w.u32(rel.col_end as usize);
    }
    w.u32(raw.columns.len());
    for &(rel, sym) in &raw.columns {
        w.u32(rel as usize);
        w.u32(sym as usize);
    }
    for (offsets, edges) in [&raw.fwd, &raw.rev, &raw.tbl_fwd, &raw.tbl_rev] {
        w.u32(offsets.len());
        for &o in offsets {
            w.u32(o as usize);
        }
        w.u32(edges.len());
        for &(to, kind) in edges {
            w.u32(to as usize);
            w.u8(edge_kind_tag(kind));
        }
    }
}

fn read_index(r: &mut Reader) -> Result<GraphIndex, SnapshotError> {
    use crate::graph::{RawGraphIndex, RawRelation};
    let name_count = r.count()?;
    let mut names = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        names.push(r.str()?);
    }
    let rel_count = r.count()?;
    let mut relations = Vec::with_capacity(rel_count);
    for _ in 0..rel_count {
        let kind = match r.u8()? {
            0 => None,
            tag => Some(node_kind_from(tag - 1)?),
        };
        let declared_count = r.count()?;
        let mut declared = Vec::with_capacity(declared_count);
        for _ in 0..declared_count {
            declared.push(r.u32()?);
        }
        let col_start = r.u32()?;
        let col_end = r.u32()?;
        relations.push(RawRelation { kind, declared, col_start, col_end });
    }
    let col_count = r.count()?;
    let mut columns = Vec::with_capacity(col_count);
    for _ in 0..col_count {
        let rel = r.u32()?;
        let sym = r.u32()?;
        columns.push((rel, sym));
    }
    let mut csrs = Vec::with_capacity(4);
    for _ in 0..4 {
        let offset_count = r.count()?;
        let mut offsets = Vec::with_capacity(offset_count);
        for _ in 0..offset_count {
            offsets.push(r.u32()?);
        }
        let edge_count = r.count()?;
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            let to = r.u32()?;
            let kind = edge_kind_from(r.u8()?)?;
            edges.push((to, kind));
        }
        csrs.push((offsets, edges));
    }
    let tbl_rev = csrs.pop().expect("four CSRs were read");
    let tbl_fwd = csrs.pop().expect("four CSRs were read");
    let rev = csrs.pop().expect("four CSRs were read");
    let fwd = csrs.pop().expect("four CSRs were read");
    let raw = RawGraphIndex { names, relations, columns, fwd, rev, tbl_fwd, tbl_rev };
    raw.validate().map_err(|e| SnapshotError::corrupt(format!("bad index: {e}")))?;
    Ok(GraphIndex::from_raw(raw))
}

// --- enum tags ----------------------------------------------------------

fn node_kind_tag(kind: NodeKind) -> u8 {
    match kind {
        NodeKind::BaseTable => 0,
        NodeKind::View => 1,
        NodeKind::Table => 2,
        NodeKind::QueryResult => 3,
        NodeKind::External => 4,
    }
}

fn node_kind_from(tag: u8) -> Result<NodeKind, SnapshotError> {
    Ok(match tag {
        0 => NodeKind::BaseTable,
        1 => NodeKind::View,
        2 => NodeKind::Table,
        3 => NodeKind::QueryResult,
        4 => NodeKind::External,
        other => return Err(SnapshotError::corrupt(format!("bad node kind {other}"))),
    })
}

fn edge_kind_tag(kind: EdgeKind) -> u8 {
    match kind {
        EdgeKind::Contribute => 0,
        EdgeKind::Reference => 1,
        EdgeKind::Both => 2,
    }
}

fn edge_kind_from(tag: u8) -> Result<EdgeKind, SnapshotError> {
    Ok(match tag {
        0 => EdgeKind::Contribute,
        1 => EdgeKind::Reference,
        2 => EdgeKind::Both,
        other => return Err(SnapshotError::corrupt(format!("bad edge kind {other}"))),
    })
}

fn severity_tag(severity: Severity) -> u8 {
    match severity {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    }
}

fn severity_from(tag: u8) -> Result<Severity, SnapshotError> {
    Ok(match tag {
        0 => Severity::Info,
        1 => Severity::Warning,
        2 => Severity::Error,
        other => return Err(SnapshotError::corrupt(format!("bad severity {other}"))),
    })
}

fn diagnostic_code_from(s: &str) -> Result<DiagnosticCode, SnapshotError> {
    Ok(match s {
        "parse-error" => DiagnosticCode::ParseError,
        "duplicate-query-id" => DiagnosticCode::DuplicateQueryId,
        "unknown-relation" => DiagnosticCode::UnknownRelation,
        "unresolved-column" => DiagnosticCode::UnresolvedColumn,
        "unresolved-wildcard" => DiagnosticCode::UnresolvedWildcard,
        "ambiguity-resolved" => DiagnosticCode::AmbiguityResolved,
        "inferred-column" => DiagnosticCode::InferredColumn,
        "skipped-statement" => DiagnosticCode::SkippedStatement,
        "noise-statement" => DiagnosticCode::NoiseStatement,
        "dialect-fallback" => DiagnosticCode::DialectFallback,
        "dependency-cycle" => DiagnosticCode::DependencyCycle,
        "extraction-failed" => DiagnosticCode::ExtractionFailed,
        "invalid-request" => DiagnosticCode::InvalidRequest,
        "unsupported-schema-version" => DiagnosticCode::UnsupportedSchemaVersion,
        "snapshot-corrupt" => DiagnosticCode::SnapshotCorrupt,
        other => return Err(SnapshotError::corrupt(format!("unknown diagnostic code {other:?}"))),
    })
}

// --- byte plumbing ------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::with_capacity(4096) }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn u32(&mut self, v: usize) {
        let v = u32::try_from(v).expect("snapshot section holds < 2^32 items");
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::corrupt(format!(
                "truncated snapshot: need {n} byte(s) at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::corrupt(format!("bad bool byte {other}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take returned 4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take returned 8 bytes")))
    }

    /// A `u32` collection count, bounded by the remaining payload so a
    /// corrupt length can never trigger a huge allocation.
    fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(SnapshotError::corrupt(format!(
                "implausible count {n} at offset {} ({} byte(s) remain)",
                self.pos - 4,
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.count()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::corrupt("string is not valid UTF-8"))
    }

    fn opt_str(&mut self) -> Result<Option<String>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            other => Err(SnapshotError::corrupt(format!("bad option tag {other}"))),
        }
    }
}

/// FNV-1a 64-bit: tiny, dependency-free, and plenty to catch the random
/// corruption and truncation this format defends against (it is an
/// integrity check, not an authenticity one).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::lineagex;
    use crate::graph::RawGraphIndex;

    fn sample() -> GraphSnapshot {
        let result = lineagex(
            "CREATE TABLE base (a int, k int);
             CREATE VIEW mid AS SELECT a AS b FROM base WHERE k > 0;
             CREATE VIEW top AS SELECT b AS c FROM mid;",
        )
        .unwrap();
        let index = GraphIndex::build(&result.graph);
        let mut catalog = Catalog::new();
        catalog.add_or_replace(TableSchema::base_table(
            "base",
            vec![Column::new("a", "int"), Column::new("k", "int")],
        ));
        let mut inferred = BTreeMap::new();
        let mut tables = BTreeMap::new();
        tables.insert("ext".to_string(), BTreeSet::from(["x".to_string()]));
        tables.insert("empty".to_string(), BTreeSet::new());
        inferred.insert("mid".to_string(), tables);
        GraphSnapshot {
            catalog,
            graph: result.graph,
            index,
            diagnostics: vec![{
                let mut d = Diagnostic::new(DiagnosticCode::ParseError, "boom");
                d.span = Some(DiagnosticSpan { start: 3, end: 9, line: 1, column: 4 });
                d
            }],
            inferred,
            entries: vec![SnapshotEntry {
                id: "mid".into(),
                sql: "CREATE VIEW mid AS SELECT a AS b FROM base WHERE k > 0".into(),
                deps: vec!["base".into()],
                deps_norm: vec!["base".into()],
            }],
            revision: 7,
            counters: vec![("engine.statements".into(), 3)],
            dialect: "snowflake".into(),
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let snapshot = sample();
        let bytes = write_snapshot(&snapshot);
        let loaded = read_snapshot(&bytes).unwrap();
        assert_eq!(loaded.catalog, snapshot.catalog);
        assert_eq!(loaded.graph, snapshot.graph);
        assert_eq!(loaded.diagnostics, snapshot.diagnostics);
        assert_eq!(loaded.inferred, snapshot.inferred);
        assert_eq!(loaded.entries, snapshot.entries);
        assert_eq!(loaded.revision, 7);
        assert_eq!(loaded.counters, snapshot.counters);
        assert_eq!(loaded.dialect, "snowflake");
        assert_eq!(loaded.index.column_count(), snapshot.index.column_count());
        assert_eq!(loaded.index.edge_count(), snapshot.index.edge_count());
        // Re-serialising the loaded snapshot is byte-identical.
        assert_eq!(write_snapshot(&loaded), bytes);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = write_snapshot(&sample());
        for len in 0..bytes.len() {
            let err = read_snapshot(&bytes[..len]).expect_err("truncated file must not decode");
            assert_eq!(err.code, DiagnosticCode::SnapshotCorrupt, "at length {len}");
        }
    }

    #[test]
    fn corruption_is_caught_by_the_checksum() {
        let bytes = write_snapshot(&sample());
        for pos in [5, bytes.len() / 2, bytes.len() - 9] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            let err = read_snapshot(&corrupt).expect_err("corrupt file must not decode");
            assert_eq!(err.code, DiagnosticCode::SnapshotCorrupt, "flip at {pos}");
        }
    }

    /// Write `sample()` with its index arrays bent by `bend`: the file
    /// carries a valid checksum, so only the index validation can refuse
    /// it. Asserts the typed error and returns its message.
    fn rejected_index(bend: impl FnOnce(&mut RawGraphIndex)) -> String {
        let mut snapshot = sample();
        let mut raw = snapshot.index.to_raw();
        bend(&mut raw);
        snapshot.index = GraphIndex::from_raw(raw);
        let err = read_snapshot(&write_snapshot(&snapshot)).expect_err("bad index must not load");
        assert_eq!(err.code, DiagnosticCode::SnapshotCorrupt);
        assert!(matches!(LineageError::from(err.clone()), LineageError::Snapshot(_)));
        err.message
    }

    #[test]
    fn more_relations_than_names_are_rejected() {
        let message = rejected_index(|raw| raw.names.truncate(raw.relations.len() - 1));
        assert!(message.contains("relations but only"), "{message}");
    }

    #[test]
    fn column_ids_out_of_range_are_rejected() {
        let message = rejected_index(|raw| raw.columns[0].0 = raw.relations.len() as u32);
        assert!(message.contains("column 0 names relation"), "{message}");
        let message = rejected_index(|raw| raw.columns[1].1 = raw.names.len() as u32);
        assert!(message.contains("column 1 names relation"), "{message}");
    }

    #[test]
    fn bad_column_ranges_are_rejected() {
        let message =
            rejected_index(|raw| raw.relations[0].col_start = raw.relations[0].col_end + 1);
        assert!(message.contains("column range"), "{message}");
        let message = rejected_index(|raw| raw.relations[0].col_end = raw.columns.len() as u32 + 1);
        assert!(message.contains("column range"), "{message}");
    }

    #[test]
    fn declared_columns_out_of_range_are_rejected() {
        let message =
            rejected_index(|raw| raw.relations[0].declared.push(raw.columns.len() as u32));
        assert!(message.contains("declares column"), "{message}");
    }

    #[test]
    fn bad_adjacency_offsets_are_rejected() {
        // Column and relation CSRs each need one offset per node plus one.
        let message = rejected_index(|raw| {
            raw.fwd.0.pop();
        });
        assert!(message.contains("column forward adjacency has"), "{message}");
        let message = rejected_index(|raw| raw.tbl_rev.0.push(0));
        assert!(message.contains("relation reverse adjacency has"), "{message}");
        // Offsets start at 0, never decrease, and end at the edge count.
        let message = rejected_index(|raw| raw.rev.0[0] = 1);
        assert!(message.contains("column reverse adjacency offsets"), "{message}");
        let message = rejected_index(|raw| {
            let last = raw.tbl_fwd.0.len() - 1;
            raw.tbl_fwd.0[last - 1] = raw.tbl_fwd.0[last] + 1;
        });
        assert!(message.contains("relation forward adjacency offsets"), "{message}");
        let message = rejected_index(|raw| {
            raw.fwd.1.pop();
        });
        assert!(message.contains("column forward adjacency offsets"), "{message}");
    }

    #[test]
    fn edge_targets_out_of_range_are_rejected() {
        // Every forward edge retargeted far past the last column: the
        // shape that, unchecked, loads and then panics in the first query.
        let message = rejected_index(|raw| raw.fwd.1.iter_mut().for_each(|e| e.0 = 999_999));
        assert!(message.contains("column forward adjacency has an edge to node 999999"));
        let message = rejected_index(|raw| raw.tbl_rev.1[0].0 = raw.relations.len() as u32);
        assert!(message.contains("relation reverse adjacency has an edge"), "{message}");
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bytes = write_snapshot(&sample());
        let err = read_snapshot(b"not a snapshot file").unwrap_err();
        assert!(err.message.contains("magic"), "{err}");
        bytes[4] = SNAPSHOT_VERSION + 1;
        let err = read_snapshot(&bytes).unwrap_err();
        assert!(err.message.contains("version"), "{err}");
        assert_eq!(LineageError::from(err.clone()), LineageError::Snapshot(err.message));
    }
}
