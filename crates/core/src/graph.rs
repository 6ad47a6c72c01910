//! The interned, index-backed representation of a settled lineage graph.
//!
//! Every traversal the query layer runs used to re-walk
//! `BTreeMap<String, …>` structures keyed by owned strings: each BFS hop
//! scanned every query's lineage record and compared full `table.column`
//! strings. That is the exact anti-pattern SMOKE ("Fine-grained Lineage
//! at Interactive Speed") warns about — lineage answers should be index
//! lookups, not repeated string-keyed scans.
//!
//! This module provides the index:
//!
//! * [`Interner`] — maps every relation and column *name* to a dense
//!   `u32` [`Symbol`], so identity checks are integer compares and every
//!   string is stored once;
//! * [`GraphIndex`] — a frozen snapshot of a [`LineageGraph`]'s topology:
//!   all columns as dense [`ColumnId`]s sorted by `(table, column)`, all
//!   relations as dense [`RelationId`]s sorted by name, and CSR-style
//!   (compressed sparse row) forward *and* reverse adjacency for both
//!   the merged column-level edge set and the relation-level edge set;
//! * [`GraphIndexCache`] — the build-once/reuse wrapper both backends
//!   hang on to ([`crate::infer::LineageResult`] behind a cheap
//!   fingerprint, the session engine invalidating explicitly alongside
//!   its dirty-cone state).
//!
//! Identity is a [`Symbol`] *inside* the index; the wire formats and
//! every public answer keep speaking strings. [`GraphIndex`] translates
//! at the boundary ([`GraphIndex::source_column`]), which is why
//! `ReportV2` and `QueryAnswer` documents are byte-identical to the
//! string-walk reference (`QuerySpec::run_on_unindexed`, asserted by the
//! workspace's equivalence property tests).
//!
//! The index is *derived* state: build it with [`GraphIndex::build`]
//! after the graph settles, drop it when the graph changes. The CSR edge
//! lists are sorted by neighbour id, and because ids are assigned in
//! lexicographic name order, iterating an adjacency row visits
//! neighbours in exactly the order the reference string walk does — BFS tie
//! breaks, and therefore shortest-path answers, are preserved bit for
//! bit.

use crate::model::{EdgeKind, LineageGraph, NodeKind, SourceColumn};
use lineagex_obs::Histogram;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

/// Wall time per [`GraphIndex::build`], in µs (its `count` is the number
/// of index builds this process has run).
fn index_build_us() -> &'static Histogram {
    static METRIC: OnceLock<Histogram> = OnceLock::new();
    METRIC.get_or_init(|| lineagex_obs::registry().histogram("query.index_build_us"))
}

/// Idempotently register this module's metric names; see
/// [`crate::query::register_metrics`].
pub(crate) fn register_metrics() {
    let _ = index_build_us();
}

/// A dense interned-string id. Two names are equal iff their symbols are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The symbol's dense index (usable as a `Vec` slot).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense id for one column of the indexed graph. Ids are assigned in
/// `(table, column)` lexicographic order, so `ColumnId` order *is*
/// [`SourceColumn`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnId(u32);

impl ColumnId {
    /// The column's dense index (usable as a `Vec` slot).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The column id at a dense index (the inverse of
    /// [`ColumnId::index`]; out-of-range ids fail on first use).
    pub fn from_index(index: usize) -> ColumnId {
        ColumnId(index as u32)
    }
}

/// A dense id for one relation of the indexed graph. Ids are assigned in
/// name order, so `RelationId` order *is* relation-name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationId(u32);

impl RelationId {
    /// The relation's dense index (usable as a `Vec` slot).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The relation id at a dense index (the inverse of
    /// [`RelationId::index`]; out-of-range ids fail on first use).
    pub fn from_index(index: usize) -> RelationId {
        RelationId(index as u32)
    }
}

/// A string interner: each distinct name is stored once and addressed by
/// a dense [`Symbol`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    lookup: HashMap<String, u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `name`, returning its (new or existing) symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&id) = self.lookup.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(self.names.len()).expect("interner holds < 2^32 names");
        self.names.push(name.to_string());
        self.lookup.insert(name.to_string(), id);
        Symbol(id)
    }

    /// The symbol of an already-interned name, if any.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.lookup.get(name).copied().map(Symbol)
    }

    /// The name behind a symbol.
    pub fn resolve(&self, symbol: Symbol) -> &str {
        &self.names[symbol.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Rebuild an interner from its dense name table (symbol `i` is
    /// `names[i]`): the decode half of the snapshot codec.
    pub(crate) fn from_names(names: Vec<String>) -> Interner {
        let lookup = names.iter().enumerate().map(|(i, name)| (name.clone(), i as u32)).collect();
        Interner { names, lookup }
    }

    /// The dense name table (symbol `i` is `names[i]`): the encode half
    /// of the snapshot codec.
    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }
}

/// Per-relation index record.
#[derive(Debug, Clone)]
struct RelationInfo {
    /// The relation's interned name.
    name: Symbol,
    /// The graph node's kind, or `None` when the relation only appears
    /// inside lineage records (no node — treated like the reference walk
    /// treats a missing `nodes` entry).
    kind: Option<NodeKind>,
    /// The node's columns in *declared* order (empty without a node).
    declared: Vec<ColumnId>,
    /// The relation's contiguous column range `[start, end)` in the
    /// sorted column table.
    col_start: u32,
    col_end: u32,
}

/// One CSR adjacency: `offsets[i]..offsets[i + 1]` indexes the edge rows
/// of node `i`, each row carrying the neighbour id and the merged edge
/// kind. Rows are sorted by neighbour id.
#[derive(Debug, Clone, Default)]
struct Csr {
    offsets: Vec<u32>,
    edges: Vec<(u32, EdgeKind)>,
}

impl Csr {
    /// Build from `(node, neighbour, kind)` triples sorted by
    /// `(node, neighbour)`.
    fn from_sorted(nodes: usize, triples: &[(u32, u32, EdgeKind)]) -> Csr {
        let mut offsets = vec![0u32; nodes + 1];
        for &(node, _, _) in triples {
            offsets[node as usize + 1] += 1;
        }
        for i in 0..nodes {
            offsets[i + 1] += offsets[i];
        }
        let edges = triples.iter().map(|&(_, neighbour, kind)| (neighbour, kind)).collect();
        Csr { offsets, edges }
    }

    fn row(&self, node: u32) -> &[(u32, EdgeKind)] {
        &self.edges[self.offsets[node as usize] as usize..self.offsets[node as usize + 1] as usize]
    }
}

/// The interned, CSR-backed index over one settled [`LineageGraph`].
///
/// Self-contained: building it snapshots everything the traversal layer
/// needs (names, node kinds, declared column orders, both edge sets), so
/// [`crate::QuerySpec::run_with`] runs without touching the source graph
/// at all.
#[derive(Debug, Clone)]
pub struct GraphIndex {
    interner: Interner,
    relations: Vec<RelationInfo>,
    columns: Vec<(RelationId, Symbol)>,
    /// Merged column-level edges (`C_con`/`C_ref` with `Both` upgrades,
    /// exactly [`LineageGraph::all_edges`] semantics), forward = source
    /// column → derived column.
    fwd: Csr,
    rev: Csr,
    /// Relation-level edges (deduplicated `table_edges`), forward =
    /// scanned relation → derived relation.
    tbl_fwd: Csr,
    tbl_rev: Csr,
}

impl GraphIndex {
    /// Build the index from a settled graph. Cost is `O(V + E)` with the
    /// sorting's log factor; run it once per settled revision and reuse
    /// (see [`GraphIndexCache`]).
    pub fn build(graph: &LineageGraph) -> GraphIndex {
        let _timer = index_build_us().time();
        // 1. Collect every relation and its column-name set, borrowed
        //    from the graph: node schemas, query outputs, every C_con /
        //    C_ref endpoint, and scanned relations (for the table level).
        let mut columns_by_rel: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for node in graph.nodes.values() {
            let set = columns_by_rel.entry(node.name.as_str()).or_default();
            set.extend(node.columns.iter().map(String::as_str));
        }
        for query in graph.queries.values() {
            {
                let set = columns_by_rel.entry(query.id.as_str()).or_default();
                set.extend(query.outputs.iter().map(|o| o.name.as_str()));
            }
            for source in query.outputs.iter().flat_map(|o| o.ccon.iter()).chain(&query.cref) {
                columns_by_rel
                    .entry(source.table.as_str())
                    .or_default()
                    .insert(source.column.as_str());
            }
            for table in &query.tables {
                columns_by_rel.entry(table.as_str()).or_default();
            }
        }

        // 2. Intern relation names first, in sorted order: a relation's
        //    `RelationId` equals its name's `Symbol`, and both follow
        //    name order.
        let mut interner = Interner::new();
        let mut relations: Vec<RelationInfo> = Vec::with_capacity(columns_by_rel.len());
        let mut columns: Vec<(RelationId, Symbol)> = Vec::new();
        for name in columns_by_rel.keys() {
            let symbol = interner.intern(name);
            debug_assert_eq!(symbol.index(), relations.len());
            relations.push(RelationInfo {
                name: symbol,
                kind: None,
                declared: Vec::new(),
                col_start: 0,
                col_end: 0,
            });
        }

        // 3. Lay out columns contiguously per relation, sorted by name
        //    within each: global `ColumnId` order is `(table, column)`
        //    lexicographic order — `SourceColumn` order.
        for (rel_index, (_, names)) in columns_by_rel.iter().enumerate() {
            let start = u32::try_from(columns.len()).expect("graph holds < 2^32 columns");
            for name in names {
                let symbol = interner.intern(name);
                columns.push((RelationId(rel_index as u32), symbol));
            }
            relations[rel_index].col_start = start;
            relations[rel_index].col_end = columns.len() as u32;
        }

        let mut index = GraphIndex {
            interner,
            relations,
            columns,
            fwd: Csr::default(),
            rev: Csr::default(),
            tbl_fwd: Csr::default(),
            tbl_rev: Csr::default(),
        };

        // 4. Node metadata: kind + declared column order.
        for node in graph.nodes.values() {
            let rel = index.lookup_relation(&node.name).expect("node relation was collected");
            let declared = node
                .columns
                .iter()
                .map(|c| index.lookup_column(&node.name, c).expect("node column was collected"))
                .collect();
            let info = &mut index.relations[rel.index()];
            info.kind = Some(node.kind);
            info.declared = declared;
        }

        // 5. Column-level edges, merged per query exactly like
        //    `LineageGraph::all_edges`: contribute entries first, then
        //    every referenced source fans out to every output, upgrading
        //    shared pairs to `Both`. Derived-column ids are unique per
        //    query, so per-query merges compose into the global edge set
        //    without cross-query collisions.
        let mut triples: Vec<(u32, u32, EdgeKind)> = Vec::new();
        for query in graph.queries.values() {
            let mut merged: BTreeMap<(u32, u32), EdgeKind> = BTreeMap::new();
            let to_ids: Vec<u32> = query
                .outputs
                .iter()
                .map(|out| {
                    index.lookup_column(&query.id, &out.name).expect("output was collected").0
                })
                .collect();
            for (out, &to) in query.outputs.iter().zip(&to_ids) {
                for source in &out.ccon {
                    let from = index
                        .lookup_column(&source.table, &source.column)
                        .expect("contribute source was collected")
                        .0;
                    merged.insert((from, to), EdgeKind::Contribute);
                }
            }
            for source in &query.cref {
                let from = index
                    .lookup_column(&source.table, &source.column)
                    .expect("reference source was collected")
                    .0;
                for &to in &to_ids {
                    merged
                        .entry((from, to))
                        .and_modify(|kind| {
                            if *kind == EdgeKind::Contribute {
                                *kind = EdgeKind::Both;
                            }
                        })
                        .or_insert(EdgeKind::Reference);
                }
            }
            triples.extend(merged.into_iter().map(|((from, to), kind)| (from, to, kind)));
        }
        triples.sort_unstable_by_key(|&(from, to, _)| (from, to));
        index.fwd = Csr::from_sorted(index.columns.len(), &triples);
        triples.sort_unstable_by_key(|&(from, to, _)| (to, from));
        let reversed: Vec<(u32, u32, EdgeKind)> =
            triples.iter().map(|&(from, to, kind)| (to, from, kind)).collect();
        index.rev = Csr::from_sorted(index.columns.len(), &reversed);

        // 6. Relation-level edges (deduplicated `table_edges`).
        let mut tbl: BTreeSet<(u32, u32)> = BTreeSet::new();
        for query in graph.queries.values() {
            let to = index.lookup_relation(&query.id).expect("query relation was collected").0;
            for table in &query.tables {
                let from = index.lookup_relation(table).expect("scanned relation was collected").0;
                tbl.insert((from, to));
            }
        }
        let tbl_triples: Vec<(u32, u32, EdgeKind)> =
            tbl.iter().map(|&(from, to)| (from, to, EdgeKind::Contribute)).collect();
        index.tbl_fwd = Csr::from_sorted(index.relations.len(), &tbl_triples);
        let mut tbl_reversed: Vec<(u32, u32, EdgeKind)> =
            tbl.iter().map(|&(from, to)| (to, from, EdgeKind::Contribute)).collect();
        tbl_reversed.sort_unstable_by_key(|&(from, to, _)| (from, to));
        index.tbl_rev = Csr::from_sorted(index.relations.len(), &tbl_reversed);

        index
    }

    /// Number of indexed columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Number of indexed relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Number of merged column-level edges.
    pub fn edge_count(&self) -> usize {
        self.fwd.edges.len()
    }

    /// The interner backing the index.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The relation id of `name`, if indexed.
    pub fn lookup_relation(&self, name: &str) -> Option<RelationId> {
        let symbol = self.interner.get(name)?;
        // Relation names were interned first, in relation-id order.
        (symbol.index() < self.relations.len()).then_some(RelationId(symbol.0))
    }

    /// The column id of `table.column`, if indexed. A binary search over
    /// the relation's sorted column range — no string allocation.
    pub fn lookup_column(&self, table: &str, column: &str) -> Option<ColumnId> {
        let rel = self.lookup_relation(table)?;
        let info = &self.relations[rel.index()];
        let range = &self.columns[info.col_start as usize..info.col_end as usize];
        let offset = range
            .binary_search_by(|(_, symbol)| self.interner.resolve(*symbol).cmp(column))
            .ok()?;
        Some(ColumnId(info.col_start + offset as u32))
    }

    /// The relation a column belongs to.
    pub fn column_relation(&self, column: ColumnId) -> RelationId {
        self.columns[column.index()].0
    }

    /// A column's name.
    pub fn column_name(&self, column: ColumnId) -> &str {
        self.interner.resolve(self.columns[column.index()].1)
    }

    /// A relation's name.
    pub fn relation_name(&self, relation: RelationId) -> &str {
        self.interner.resolve(self.relations[relation.index()].name)
    }

    /// A relation's node kind, or `None` when the graph has no node for
    /// it (externals referenced only inside lineage records).
    pub fn relation_kind(&self, relation: RelationId) -> Option<NodeKind> {
        self.relations[relation.index()].kind
    }

    /// A relation's columns in the node's *declared* order (empty when
    /// the relation has no node).
    pub fn declared_columns(&self, relation: RelationId) -> &[ColumnId] {
        &self.relations[relation.index()].declared
    }

    /// Translate a column id back to the string world.
    pub fn source_column(&self, column: ColumnId) -> SourceColumn {
        SourceColumn::new(
            self.relation_name(self.column_relation(column)),
            self.column_name(column),
        )
    }

    /// Downstream column neighbours (merged edge kinds), sorted by id —
    /// i.e. by `(table, column)`, the reference walk's visit order.
    pub fn out_edges(&self, column: ColumnId) -> &[(u32, EdgeKind)] {
        self.fwd.row(column.0)
    }

    /// Upstream column neighbours (merged edge kinds), sorted by id.
    pub fn in_edges(&self, column: ColumnId) -> &[(u32, EdgeKind)] {
        self.rev.row(column.0)
    }

    /// Relations directly derived from `relation`, sorted by id.
    pub fn table_out(&self, relation: RelationId) -> &[(u32, EdgeKind)] {
        self.tbl_fwd.row(relation.0)
    }

    /// Relations `relation` directly scans, sorted by id.
    pub fn table_in(&self, relation: RelationId) -> &[(u32, EdgeKind)] {
        self.tbl_rev.row(relation.0)
    }

    /// Approximate resident size of the index in bytes: the dense arrays
    /// plus interned string payloads. An estimate for the
    /// `engine.peak_graph_bytes` gauge, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let strings: usize = self.interner.names().iter().map(|n| n.len() + 24).sum();
        let relations = self.relations.len() * std::mem::size_of::<RelationInfo>()
            + self.relations.iter().map(|r| r.declared.len() * 4).sum::<usize>();
        let columns = self.columns.len() * 8;
        let csr = |c: &Csr| c.offsets.len() * 4 + c.edges.len() * 8;
        strings
            + relations
            + columns
            + csr(&self.fwd)
            + csr(&self.rev)
            + csr(&self.tbl_fwd)
            + csr(&self.tbl_rev)
    }

    /// Decompose into the dense arrays the binary snapshot serialises.
    /// [`GraphIndex::from_raw`] is the exact inverse; round-tripping
    /// preserves every id assignment and adjacency row bit for bit.
    pub(crate) fn to_raw(&self) -> RawGraphIndex {
        RawGraphIndex {
            names: self.interner.names().to_vec(),
            relations: self
                .relations
                .iter()
                .map(|r| RawRelation {
                    kind: r.kind,
                    declared: r.declared.iter().map(|c| c.0).collect(),
                    col_start: r.col_start,
                    col_end: r.col_end,
                })
                .collect(),
            columns: self.columns.iter().map(|&(rel, sym)| (rel.0, sym.0)).collect(),
            fwd: (self.fwd.offsets.clone(), self.fwd.edges.clone()),
            rev: (self.rev.offsets.clone(), self.rev.edges.clone()),
            tbl_fwd: (self.tbl_fwd.offsets.clone(), self.tbl_fwd.edges.clone()),
            tbl_rev: (self.tbl_rev.offsets.clone(), self.tbl_rev.edges.clone()),
        }
    }

    /// Reassemble an index from snapshot arrays without re-running
    /// [`GraphIndex::build`] — deserialisation is array moves plus one
    /// interner lookup-table rebuild, which is what makes snapshot
    /// cold-start sub-linear in extraction cost.
    pub(crate) fn from_raw(raw: RawGraphIndex) -> GraphIndex {
        let csr = |(offsets, edges): RawCsr| Csr { offsets, edges };
        GraphIndex {
            interner: Interner::from_names(raw.names),
            relations: raw
                .relations
                .into_iter()
                .enumerate()
                .map(|(i, r)| RelationInfo {
                    name: Symbol(i as u32),
                    kind: r.kind,
                    declared: r.declared.into_iter().map(ColumnId).collect(),
                    col_start: r.col_start,
                    col_end: r.col_end,
                })
                .collect(),
            columns: raw
                .columns
                .into_iter()
                .map(|(rel, sym)| (RelationId(rel), Symbol(sym)))
                .collect(),
            fwd: csr(raw.fwd),
            rev: csr(raw.rev),
            tbl_fwd: csr(raw.tbl_fwd),
            tbl_rev: csr(raw.tbl_rev),
        }
    }
}

/// One CSR as plain arrays: `(offsets, edges)`.
pub(crate) type RawCsr = (Vec<u32>, Vec<(u32, EdgeKind)>);

/// One relation record of a [`RawGraphIndex`]; the relation's name
/// symbol is its position in the list.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RawRelation {
    pub kind: Option<NodeKind>,
    pub declared: Vec<u32>,
    pub col_start: u32,
    pub col_end: u32,
}

/// The dense arrays behind a [`GraphIndex`], exposed to the binary
/// snapshot codec (`crate::snapshot`) so a persisted index can be
/// reloaded without paying a full rebuild.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RawGraphIndex {
    /// The interner's name table (symbol `i` is `names[i]`; the first
    /// `relations.len()` entries are the relation names, in id order).
    pub names: Vec<String>,
    pub relations: Vec<RawRelation>,
    /// Per column: `(relation id, name symbol)`.
    pub columns: Vec<(u32, u32)>,
    pub fwd: RawCsr,
    pub rev: RawCsr,
    pub tbl_fwd: RawCsr,
    pub tbl_rev: RawCsr,
}

impl RawGraphIndex {
    /// Check every id the [`GraphIndex`] accessors index by, in one
    /// linear pass, so arrays decoded from a file that passed its
    /// checksum but carries wrong ids fail closed here instead of
    /// panicking in the first query. Returns what is wrong.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let (names, relations, columns) =
            (self.names.len(), self.relations.len(), self.columns.len());
        if relations > names {
            return Err(format!("{relations} relations but only {names} names"));
        }
        for (i, &(rel, sym)) in self.columns.iter().enumerate() {
            if rel as usize >= relations || sym as usize >= names {
                return Err(format!(
                    "column {i} names relation {rel} and symbol {sym}, out of range"
                ));
            }
        }
        for (i, r) in self.relations.iter().enumerate() {
            if r.col_start > r.col_end || r.col_end as usize > columns {
                return Err(format!(
                    "relation {i} has column range {}..{} over {columns} columns",
                    r.col_start, r.col_end
                ));
            }
            if let Some(c) = r.declared.iter().find(|&&c| c as usize >= columns) {
                return Err(format!("relation {i} declares column {c} of {columns}"));
            }
        }
        for (name, (offsets, edges), nodes) in [
            ("column forward", &self.fwd, columns),
            ("column reverse", &self.rev, columns),
            ("relation forward", &self.tbl_fwd, relations),
            ("relation reverse", &self.tbl_rev, relations),
        ] {
            if offsets.len() != nodes + 1 {
                return Err(format!(
                    "{name} adjacency has {} offsets for {nodes} nodes",
                    offsets.len()
                ));
            }
            if offsets[0] != 0
                || offsets.windows(2).any(|pair| pair[0] > pair[1])
                || offsets[nodes] as usize != edges.len()
            {
                return Err(format!(
                    "{name} adjacency offsets do not rise from 0 to its {} edges",
                    edges.len()
                ));
            }
            if let Some((to, _)) = edges.iter().find(|(to, _)| *to as usize >= nodes) {
                return Err(format!("{name} adjacency has an edge to node {to} of {nodes}"));
            }
        }
        Ok(())
    }
}

/// A cheap structural fingerprint of a graph, used by
/// [`GraphIndexCache`] to decide whether a cached index still matches.
///
/// Counts plus name-byte totals, all computed from `len()` calls (never
/// reading string contents), so it costs `O(entries)`, not `O(bytes)`.
/// It changes whenever lineage is added, retracted, or reshaped, and
/// whenever an in-place edit swaps in a name of a different length; a
/// swap between *equal-length* names can still slip past it. Backends
/// that mutate their graph in place must therefore call
/// [`GraphIndexCache::invalidate`] explicitly (the session engine does,
/// alongside its dirty-cone bookkeeping); the fingerprint is the safety
/// net for the immutable-after-construction batch result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GraphFingerprint {
    relations: usize,
    node_columns: usize,
    queries: usize,
    order: usize,
    outputs: usize,
    ccon: usize,
    cref: usize,
    tables: usize,
    /// Total bytes of every name in every lineage record and node,
    /// weighted by position (source vs output vs node) so moves between
    /// sets change the sum too.
    name_bytes: usize,
}

impl GraphFingerprint {
    fn of(graph: &LineageGraph) -> GraphFingerprint {
        let mut outputs = 0;
        let mut ccon = 0;
        let mut cref = 0;
        let mut tables = 0;
        let mut name_bytes = 0;
        let source_bytes = |s: &SourceColumn| s.table.len() + 3 * s.column.len();
        for query in graph.queries.values() {
            outputs += query.outputs.len();
            cref += query.cref.len();
            tables += query.tables.len();
            name_bytes += query.id.len();
            for out in &query.outputs {
                ccon += out.ccon.len();
                name_bytes += 5 * out.name.len();
                name_bytes += out.ccon.iter().map(source_bytes).sum::<usize>();
            }
            name_bytes += 7 * query.cref.iter().map(source_bytes).sum::<usize>();
            name_bytes += 11 * query.tables.iter().map(String::len).sum::<usize>();
        }
        for node in graph.nodes.values() {
            name_bytes += 13 * node.name.len();
            name_bytes += 17 * node.columns.iter().map(String::len).sum::<usize>();
        }
        GraphFingerprint {
            relations: graph.nodes.len(),
            node_columns: graph.nodes.values().map(|n| n.columns.len()).sum(),
            queries: graph.queries.len(),
            order: graph.order.len(),
            outputs,
            ccon,
            cref,
            tables,
            name_bytes,
        }
    }
}

/// How a cached index is validated against the current graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheKey {
    /// Content-derived (counts + name-byte sums): the batch backend's
    /// safety net, `O(entries)` to recheck.
    Fingerprint(GraphFingerprint),
    /// Caller-managed revision: `O(1)` hits for backends that bump the
    /// revision on every graph mutation (the session engine does,
    /// alongside its dirty-cone bookkeeping).
    Revision(u64),
}

/// Build-once storage for a [`GraphIndex`]: the first
/// [`GraphIndexCache::get_or_build`] (or
/// [`GraphIndexCache::get_or_build_at`]) after a (re)settle pays the
/// build, every further query is a clone of the shared [`Arc`].
#[derive(Debug, Clone, Default)]
pub struct GraphIndexCache {
    slot: Option<(CacheKey, Arc<GraphIndex>)>,
}

impl GraphIndexCache {
    /// An empty cache.
    pub fn new() -> Self {
        GraphIndexCache::default()
    }

    /// The cached index for `graph`, building (and storing) it when the
    /// cache is empty or the graph's fingerprint changed. Rechecking the
    /// fingerprint walks the graph's entry counts on every call; a
    /// backend that tracks its own mutations should prefer
    /// [`GraphIndexCache::get_or_build_at`].
    pub fn get_or_build(&mut self, graph: &LineageGraph) -> Arc<GraphIndex> {
        self.lookup(CacheKey::Fingerprint(GraphFingerprint::of(graph)), graph)
    }

    /// The cached index for `graph` at a caller-managed `revision`: a
    /// hit is one integer compare, no graph walk. The caller owns
    /// correctness — it must bump `revision` (or
    /// [`GraphIndexCache::invalidate`]) whenever the graph mutates.
    pub fn get_or_build_at(&mut self, revision: u64, graph: &LineageGraph) -> Arc<GraphIndex> {
        self.lookup(CacheKey::Revision(revision), graph)
    }

    fn lookup(&mut self, key: CacheKey, graph: &LineageGraph) -> Arc<GraphIndex> {
        if let Some((cached, index)) = &self.slot {
            if *cached == key {
                return Arc::clone(index);
            }
        }
        let index = Arc::new(GraphIndex::build(graph));
        self.slot = Some((key, Arc::clone(&index)));
        index
    }

    /// Drop the cached index (the graph changed, or is about to).
    pub fn invalidate(&mut self) {
        self.slot = None;
    }

    /// Seed the cache with a pre-built index at a caller-managed
    /// revision, e.g. one deserialised from a snapshot: the next
    /// [`GraphIndexCache::get_or_build_at`] at that revision is a hit
    /// instead of a rebuild.
    pub fn prime_at(&mut self, revision: u64, index: Arc<GraphIndex>) {
        self.slot = Some((CacheKey::Revision(revision), index));
    }

    /// Whether an index is currently cached.
    pub fn is_cached(&self) -> bool {
        self.slot.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::lineagex;
    use crate::model::Edge;

    fn graph() -> LineageGraph {
        lineagex(
            "CREATE TABLE base (a int, k int);
             CREATE VIEW mid AS SELECT a AS b FROM base WHERE k > 0;
             CREATE VIEW top AS SELECT b AS c FROM mid;",
        )
        .unwrap()
        .graph
    }

    #[test]
    fn interner_dedups_and_resolves() {
        let mut interner = Interner::new();
        assert!(interner.is_empty());
        let a = interner.intern("web");
        let b = interner.intern("page");
        assert_ne!(a, b);
        assert_eq!(interner.intern("web"), a);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a), "web");
        assert_eq!(interner.get("page"), Some(b));
        assert_eq!(interner.get("ghost"), None);
    }

    #[test]
    fn ids_follow_lexicographic_order() {
        let index = GraphIndex::build(&graph());
        // Relations sorted by name; columns sorted by (table, column).
        let names: Vec<&str> = (0..index.relation_count())
            .map(|i| index.relation_name(RelationId(i as u32)))
            .collect();
        assert_eq!(names, vec!["base", "mid", "top"]);
        let cols: Vec<String> = (0..index.column_count())
            .map(|i| index.source_column(ColumnId(i as u32)).to_string())
            .collect();
        assert_eq!(cols, vec!["base.a", "base.k", "mid.b", "top.c"]);
    }

    #[test]
    fn lookups_round_trip() {
        let index = GraphIndex::build(&graph());
        let mid = index.lookup_relation("mid").unwrap();
        assert_eq!(index.relation_name(mid), "mid");
        assert_eq!(index.relation_kind(mid), Some(NodeKind::View));
        let col = index.lookup_column("mid", "b").unwrap();
        assert_eq!(index.column_relation(col), mid);
        assert_eq!(index.column_name(col), "b");
        assert_eq!(index.source_column(col), SourceColumn::new("mid", "b"));
        assert!(index.lookup_column("mid", "ghost").is_none());
        assert!(index.lookup_column("ghost", "b").is_none());
        assert!(index.lookup_relation("ghost").is_none());
        // A column name that never names a relation is not a relation.
        assert!(index.lookup_relation("b").is_none());
    }

    #[test]
    fn adjacency_matches_the_merged_edge_set() {
        let g = graph();
        let index = GraphIndex::build(&g);
        // Rebuild the edge list from the forward CSR and compare with
        // the string-world enumeration.
        let mut from_index: Vec<Edge> = Vec::new();
        for i in 0..index.column_count() {
            let from = ColumnId(i as u32);
            for &(to, kind) in index.out_edges(from) {
                from_index.push(Edge {
                    from: index.source_column(from),
                    to: index.source_column(ColumnId(to)),
                    kind,
                });
            }
        }
        assert_eq!(from_index, g.all_edges());
        assert_eq!(index.edge_count(), g.all_edges().len());
        // The reverse CSR carries the same edges, keyed by target.
        let mut from_rev: Vec<Edge> = Vec::new();
        for i in 0..index.column_count() {
            let to = ColumnId(i as u32);
            for &(from, kind) in index.in_edges(to) {
                from_rev.push(Edge {
                    from: index.source_column(ColumnId(from)),
                    to: index.source_column(to),
                    kind,
                });
            }
        }
        from_rev.sort();
        assert_eq!(from_rev, g.all_edges());
    }

    #[test]
    fn table_adjacency_matches_table_edges() {
        let g = graph();
        let index = GraphIndex::build(&g);
        let mut pairs: Vec<(String, String)> = Vec::new();
        for i in 0..index.relation_count() {
            let from = RelationId(i as u32);
            for &(to, _) in index.table_out(from) {
                pairs.push((
                    index.relation_name(from).to_string(),
                    index.relation_name(RelationId(to)).to_string(),
                ));
            }
        }
        pairs.sort();
        assert_eq!(pairs, g.table_edges());
        // Reverse rows mirror the forward rows.
        let mid = index.lookup_relation("mid").unwrap();
        let upstream: Vec<&str> =
            index.table_in(mid).iter().map(|&(r, _)| index.relation_name(RelationId(r))).collect();
        assert_eq!(upstream, vec!["base"]);
    }

    #[test]
    fn declared_order_is_preserved() {
        // Node order (a, k) survives even though nothing else does —
        // subgraph slices render columns in declared order.
        let index = GraphIndex::build(&graph());
        let base = index.lookup_relation("base").unwrap();
        let declared: Vec<&str> =
            index.declared_columns(base).iter().map(|&c| index.column_name(c)).collect();
        assert_eq!(declared, vec!["a", "k"]);
    }

    #[test]
    fn cache_reuses_until_the_graph_changes() {
        let mut g = graph();
        let mut cache = GraphIndexCache::new();
        assert!(!cache.is_cached());
        let first = cache.get_or_build(&g);
        let second = cache.get_or_build(&g);
        assert!(Arc::ptr_eq(&first, &second), "unchanged graph must reuse the index");
        // A structural change (retract one query) rebuilds.
        assert_eq!(g.retract_queries(&BTreeSet::from(["top".to_string()])).len(), 1);
        let third = cache.get_or_build(&g);
        assert!(!Arc::ptr_eq(&first, &third), "changed graph must rebuild");
        assert_eq!(third.lookup_relation("top"), None);
        // Explicit invalidation always rebuilds.
        cache.invalidate();
        assert!(!cache.is_cached());
        let fourth = cache.get_or_build(&g);
        assert!(!Arc::ptr_eq(&third, &fourth));
    }

    #[test]
    fn revision_keyed_cache_hits_without_walking_the_graph() {
        let mut g = graph();
        let mut cache = GraphIndexCache::new();
        let first = cache.get_or_build_at(7, &g);
        let second = cache.get_or_build_at(7, &g);
        assert!(Arc::ptr_eq(&first, &second), "same revision must reuse");
        // A bumped revision rebuilds even though the graph is unchanged:
        // the caller's revision is authoritative, not the content.
        let third = cache.get_or_build_at(8, &g);
        assert!(!Arc::ptr_eq(&first, &third));
        // And the revision key really is trusted: an in-place edit with
        // an unchanged revision keeps serving the cached index (why
        // revision-bumping callers must cover every mutation).
        assert_eq!(g.retract_queries(&BTreeSet::from(["top".to_string()])).len(), 1);
        let stale = cache.get_or_build_at(8, &g);
        assert!(Arc::ptr_eq(&third, &stale));
        // Mixing validation modes never false-hits: a fingerprint query
        // against a revision-keyed slot rebuilds.
        let fresh = cache.get_or_build(&g);
        assert!(!Arc::ptr_eq(&third, &fresh));
        assert!(fresh.lookup_relation("top").is_none());
    }

    #[test]
    fn cache_detects_in_place_source_swaps() {
        // Counts alone would miss this edit: one contribute source is
        // swapped for another (same cardinality everywhere). The
        // name-byte component of the fingerprint catches any swap that
        // changes a name's length; equal-length swaps remain the
        // documented reason in-place mutators must invalidate manually.
        let mut g = graph();
        let mut cache = GraphIndexCache::new();
        let first = cache.get_or_build(&g);
        let out = &mut g.queries.get_mut("mid").unwrap().outputs[0];
        out.ccon.clear();
        out.ccon.insert(SourceColumn::new("base", "a_renamed"));
        let second = cache.get_or_build(&g);
        assert!(!Arc::ptr_eq(&first, &second), "a length-changing swap must rebuild");
        assert!(second.lookup_column("base", "a_renamed").is_some());
    }

    #[test]
    fn raw_round_trip_preserves_the_index() {
        let g = graph();
        let index = GraphIndex::build(&g);
        let rebuilt = GraphIndex::from_raw(index.to_raw());
        assert_eq!(rebuilt.column_count(), index.column_count());
        assert_eq!(rebuilt.relation_count(), index.relation_count());
        assert_eq!(rebuilt.edge_count(), index.edge_count());
        for i in 0..index.column_count() {
            let col = ColumnId(i as u32);
            assert_eq!(rebuilt.source_column(col), index.source_column(col));
            assert_eq!(rebuilt.out_edges(col), index.out_edges(col));
            assert_eq!(rebuilt.in_edges(col), index.in_edges(col));
        }
        for i in 0..index.relation_count() {
            let rel = RelationId(i as u32);
            assert_eq!(rebuilt.relation_name(rel), index.relation_name(rel));
            assert_eq!(rebuilt.relation_kind(rel), index.relation_kind(rel));
            assert_eq!(rebuilt.declared_columns(rel), index.declared_columns(rel));
            assert_eq!(rebuilt.table_out(rel), index.table_out(rel));
            assert_eq!(rebuilt.table_in(rel), index.table_in(rel));
        }
        // Lookups go through the rebuilt interner's hash table.
        assert_eq!(rebuilt.lookup_relation("mid"), index.lookup_relation("mid"));
        assert_eq!(rebuilt.lookup_column("mid", "b"), index.lookup_column("mid", "b"));
        assert!(rebuilt.approx_bytes() > 0);
    }

    #[test]
    fn primed_cache_serves_the_seeded_index() {
        let g = graph();
        let index = Arc::new(GraphIndex::build(&g));
        let mut cache = GraphIndexCache::new();
        cache.prime_at(42, Arc::clone(&index));
        assert!(cache.is_cached());
        let served = cache.get_or_build_at(42, &g);
        assert!(Arc::ptr_eq(&served, &index), "a primed revision must hit");
        let rebuilt = cache.get_or_build_at(43, &g);
        assert!(!Arc::ptr_eq(&rebuilt, &index), "a later revision rebuilds");
    }

    #[test]
    fn empty_graph_indexes_cleanly() {
        let index = GraphIndex::build(&LineageGraph::default());
        assert_eq!(index.column_count(), 0);
        assert_eq!(index.relation_count(), 0);
        assert_eq!(index.edge_count(), 0);
        assert!(index.lookup_relation("anything").is_none());
    }
}
