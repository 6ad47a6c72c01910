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
//! * [`GraphIndexCache`] — the build-once/reuse wrapper the batch
//!   [`crate::infer::LineageResult`] hangs on to behind a cheap
//!   fingerprint.
//!
//! Identity is a [`Symbol`] *inside* the index; the wire formats and
//! every public answer keep speaking strings. [`GraphIndex`] translates
//! at the boundary ([`GraphIndex::source_column`]), which is why
//! `ReportV2` and `QueryAnswer` documents are byte-identical to the
//! string-walk reference (`QuerySpec::run_on_unindexed`, asserted by the
//! workspace's equivalence property tests).
//!
//! The index is *derived* state with one construction path:
//! [`GraphIndex::updated`] derives the index of a new graph revision from
//! the index of the previous one, touching strings only for the entries
//! the two graphs disagree on, and [`GraphIndex::build`] is that update
//! applied to the empty index. The layout is canonical — it depends only
//! on the graph, never on the write history that produced it — so a
//! maintained index equals a fresh build array for array. The CSR edge
//! lists are sorted by neighbour id, and because ids are assigned in
//! lexicographic name order, iterating an adjacency row visits
//! neighbours in exactly the order the reference string walk does — BFS tie
//! breaks, and therefore shortest-path answers, are preserved bit for
//! bit.

use crate::model::{EdgeKind, LineageGraph, Node, NodeKind, QueryLineage, SourceColumn};
use crate::shared::SharedMap;
use lineagex_obs::Histogram;
use std::collections::{BTreeMap, HashMap};
use std::iter;
use std::sync::{Arc, OnceLock};

/// Wall time per [`GraphIndex::build`], in µs (its `count` is the number
/// of full index builds this process has run).
fn index_build_us() -> &'static Histogram {
    static METRIC: OnceLock<Histogram> = OnceLock::new();
    METRIC.get_or_init(|| lineagex_obs::registry().histogram("query.index_build_us"))
}

/// Idempotently register this module's metric names; see
/// [`crate::query::register_metrics`].
pub(crate) fn register_metrics() {
    let _ = index_build_us();
}

/// An id with no counterpart on the other side of an update (a retracted
/// relation or column), or a slot not assigned yet.
const UNMAPPED: u32 = u32::MAX;

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
/// a dense [`Symbol`]. The tables are shared copy-on-write, so an index
/// revision whose names did not change shares its predecessor's
/// interner outright.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Arc<Vec<Arc<str>>>,
    lookup: Arc<HashMap<Arc<str>, u32>>,
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
        let name: Arc<str> = Arc::from(name);
        Arc::make_mut(&mut self.names).push(Arc::clone(&name));
        Arc::make_mut(&mut self.lookup).insert(name, id);
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

    /// An interner over a dense name table (symbol `i` is `names[i]`).
    fn from_names(names: Vec<Arc<str>>) -> Interner {
        let lookup =
            names.iter().enumerate().map(|(i, name)| (Arc::clone(name), i as u32)).collect();
        Interner { names: Arc::new(names), lookup: Arc::new(lookup) }
    }

    /// The dense name table (symbol `i` is `names[i]`).
    pub(crate) fn names(&self) -> &[Arc<str>] {
        &self.names
    }
}

/// Per-relation index record. The relation's name is the symbol with
/// the relation's own id: relation names are interned first, in id
/// order.
#[derive(Debug, Clone, Copy)]
struct RelationInfo {
    /// The graph node's kind, or `None` when the relation only appears
    /// inside lineage records (no node — treated like the reference walk
    /// treats a missing `nodes` entry).
    kind: Option<NodeKind>,
    /// The relation's contiguous column range `[start, end)` in the
    /// sorted column table.
    col_start: u32,
    col_end: u32,
}

/// Variable-length rows packed into one array: `offsets[i]..offsets[i + 1]`
/// indexes the items of row `i`.
#[derive(Debug, Clone)]
struct Rows<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows { offsets: vec![0], items: Vec::new() }
    }
}

impl<T> Rows<T> {
    fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Rows { offsets, items: Vec::with_capacity(items) }
    }

    fn row(&self, row: u32) -> &[T] {
        &self.items[self.offsets[row as usize] as usize..self.offsets[row as usize + 1] as usize]
    }

    /// Close the row being filled: it holds every item pushed since the
    /// previous call.
    fn end_row(&mut self) {
        self.offsets.push(u32::try_from(self.items.len()).expect("index holds < 2^32 items"));
    }
}

/// One CSR adjacency: row `i` holds the edges of node `i`, each item
/// carrying the neighbour id and the merged edge kind, sorted by
/// neighbour id.
type Csr = Rows<(u32, EdgeKind)>;

impl Rows<(u32, EdgeKind)> {
    /// The same edges keyed by their other endpoint, over `nodes` nodes:
    /// row `j` of the result lists `(i, kind)` for every `(j, kind)` in
    /// row `i` of `self`. One counting-sort pass; visiting the source
    /// rows in order leaves every result row sorted by neighbour id.
    fn transposed(&self, nodes: usize) -> Csr {
        let mut offsets = vec![0u32; nodes + 1];
        for &(to, _) in &self.items {
            offsets[to as usize + 1] += 1;
        }
        for i in 0..nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut items = vec![(0, EdgeKind::Contribute); self.items.len()];
        for from in 0..self.offsets.len() - 1 {
            for &(to, kind) in self.row(from as u32) {
                let slot = &mut next[to as usize];
                items[*slot as usize] = (from as u32, kind);
                *slot += 1;
            }
        }
        Rows { offsets, items }
    }
}

/// How many graph entries mention each relation and column, counted
/// with multiplicity over [`query_mentions`] and [`node_mentions`]: what
/// tells an update whether a name it retracts is still in use.
#[derive(Debug, Clone)]
struct Mentions {
    relations: Vec<u32>,
    columns: Vec<u32>,
}

/// The interned, CSR-backed index over one settled [`LineageGraph`].
///
/// Self-contained: building it snapshots everything the traversal layer
/// needs (names, node kinds, declared column orders, both edge sets), so
/// [`crate::QuerySpec::run_with`] runs without touching the source graph
/// at all.
///
/// The default value is the index of the empty graph.
#[derive(Debug, Clone, Default)]
pub struct GraphIndex {
    interner: Interner,
    relations: Vec<RelationInfo>,
    /// Row `r`: the node columns of relation `r` in *declared* order
    /// (empty without a node).
    declared: Rows<ColumnId>,
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
    /// Name mention counts, kept so the next update can retract names.
    /// `None` for an index decoded from a snapshot: its first update
    /// counts them from the graph it describes.
    mentions: Option<Mentions>,
}

/// Every `(relation, column)` name a query mentions, with multiplicity:
/// its own relation and output columns, every `C_con` and `C_ref`
/// source, and every scanned relation (`None` marks a relation-only
/// mention).
fn query_mentions(query: &QueryLineage) -> impl Iterator<Item = (&str, Option<&str>)> {
    fn source(s: &SourceColumn) -> (&str, Option<&str>) {
        (s.table.as_str(), Some(s.column.as_str()))
    }
    iter::once((query.id.as_str(), None))
        .chain(query.outputs.iter().map(|o| (query.id.as_str(), Some(o.name.as_str()))))
        .chain(query.outputs.iter().flat_map(|o| &o.ccon).map(source))
        .chain(query.cref.iter().map(source))
        .chain(query.tables.iter().map(|t| (t.as_str(), None)))
}

/// Every `(relation, column)` name a node mentions: its relation and its
/// declared columns.
fn node_mentions(node: &Node) -> impl Iterator<Item = (&str, Option<&str>)> {
    iter::once((node.name.as_str(), None))
        .chain(node.columns.iter().map(|c| (node.name.as_str(), Some(c.as_str()))))
}

/// Whether two lineage records index identically (same relation,
/// output columns and sources, scanned relations); kinds, diagnostics
/// and the partial flag never reach the index.
fn same_topology(a: &QueryLineage, b: &QueryLineage) -> bool {
    a.id == b.id && a.outputs == b.outputs && a.cref == b.cref && a.tables == b.tables
}

/// The entries two graphs disagree on: the old versions of changed and
/// removed entries, and the new versions of changed and added ones.
/// Shared leaves and pointer-equal entries are skipped without a look
/// ([`SharedMap::for_each_changed`]); the rest are compared by value.
#[derive(Default)]
struct Delta<'g> {
    removed_queries: Vec<&'g QueryLineage>,
    added_queries: Vec<&'g QueryLineage>,
    removed_nodes: Vec<&'g Node>,
    added_nodes: Vec<&'g Node>,
}

impl<'g> Delta<'g> {
    fn between(old: &'g LineageGraph, new: &'g LineageGraph) -> Delta<'g> {
        let mut delta = Delta::default();
        let (queries, nodes) = (&mut delta.removed_queries, &mut delta.removed_nodes);
        differing(&old.queries, &new.queries, same_topology, queries, &mut delta.added_queries);
        differing(&old.nodes, &new.nodes, |a, b| a == b, nodes, &mut delta.added_nodes);
        delta
    }
}

/// Collect the entries of two maps that `same` does not match.
fn differing<'g, V>(
    old: &'g SharedMap<String, Arc<V>>,
    new: &'g SharedMap<String, Arc<V>>,
    same: fn(&V, &V) -> bool,
    removed: &mut Vec<&'g V>,
    added: &mut Vec<&'g V>,
) {
    old.for_each_changed(new, |old, new| {
        if let (Some((_, a)), Some((_, b))) = (old, new) {
            if same(a, b) {
                return;
            }
        }
        removed.extend(old.map(|(_, v)| v));
        added.extend(new.map(|(_, v)| v));
    });
}

/// A name in the next index: an old symbol (its string is shared, not
/// copied) or a string the old index never interned.
#[derive(Clone, Copy)]
enum Name<'g> {
    Old(u32),
    Fresh(&'g str),
}

/// What an update adds under one relation name: the relation itself
/// when the old index lacks it, and the columns the old index lacks.
struct Fresh<'g> {
    /// The relation's old id, or [`UNMAPPED`] when it is new.
    old: u32,
    /// A new relation's mention count and next id.
    mentions: u32,
    next: u32,
    columns: BTreeMap<&'g str, u32>,
}

impl Fresh<'_> {
    fn under(old: u32) -> Self {
        Fresh { old, mentions: 0, next: UNMAPPED, columns: BTreeMap::new() }
    }
}

/// One relation of the next index.
struct NextRelation<'g> {
    name: Name<'g>,
    /// The relation's old id, or [`UNMAPPED`] for a new relation.
    old: u32,
    mentions: u32,
}

/// The next index's name table under construction, in the canonical
/// order a fresh build interns: relation names first (in id order),
/// then column names in order of first appearance over the column table.
/// Assignment is integer work; strings are touched only in
/// [`NextNames::finish`], and only when the table changed.
struct NextNames<'a, 'g> {
    old: &'a Interner,
    /// Next symbol → where its string comes from.
    sources: Vec<Name<'g>>,
    /// Old symbol → next symbol ([`UNMAPPED`] until first use).
    of_old: Vec<u32>,
    fresh: HashMap<&'g str, u32>,
}

impl<'g> NextNames<'_, 'g> {
    fn symbol(&mut self, name: Name<'g>) -> Symbol {
        let sources = &mut self.sources;
        match name {
            Name::Old(old) => {
                let slot = &mut self.of_old[old as usize];
                if *slot == UNMAPPED {
                    *slot = sources.len() as u32;
                    sources.push(name);
                }
                Symbol(*slot)
            }
            Name::Fresh(fresh) => Symbol(*self.fresh.entry(fresh).or_insert_with(|| {
                sources.push(name);
                sources.len() as u32 - 1
            })),
        }
    }

    /// The finished interner: the old one, shared, when every old name
    /// kept its symbol and none was added; otherwise a new name table
    /// and the old lookup table patched where symbols moved.
    fn finish(self) -> Interner {
        let unchanged = self.sources.len() == self.old.len()
            && self.of_old.iter().enumerate().all(|(old, &next)| next as usize == old);
        if unchanged {
            return self.old.clone();
        }
        let names: Vec<Arc<str>> = self
            .sources
            .iter()
            .map(|source| match *source {
                Name::Old(old) => Arc::clone(&self.old.names[old as usize]),
                Name::Fresh(name) => Arc::from(name),
            })
            .collect();
        let mut lookup = (*self.old.lookup).clone();
        for (old, &next) in self.of_old.iter().enumerate() {
            if next as usize != old {
                let name = &self.old.names[old];
                if next == UNMAPPED {
                    lookup.remove(&**name);
                } else {
                    lookup.insert(Arc::clone(name), next);
                }
            }
        }
        for &next in self.fresh.values() {
            lookup.insert(Arc::clone(&names[next as usize]), next);
        }
        Interner { names: Arc::new(names), lookup: Arc::new(lookup) }
    }
}

/// `map[id]`, or `None` when `id` has no counterpart.
fn remap(map: &[u32], id: u32) -> Option<u32> {
    map.get(id as usize).copied().filter(|&next| next != UNMAPPED)
}

impl GraphIndex {
    /// Build the index of a settled graph: [`GraphIndex::updated`] from
    /// the empty index, so a fresh build and a maintained index share
    /// every line of construction code. Cost is `O(V + E)` with the
    /// sorting's log factor; build once per graph and reuse (see
    /// [`GraphIndexCache`]), or keep it current with
    /// [`GraphIndex::updated`].
    pub fn build(graph: &LineageGraph) -> GraphIndex {
        let _timer = index_build_us().time();
        GraphIndex::default().updated(&LineageGraph::default(), graph)
    }

    /// The index of `new`, derived from `self`, the index of `old`.
    ///
    /// Entries `old` and `new` share (pointer-equal, or equal in
    /// everything the index records) cost nothing beyond the diff. For
    /// the rest, per-name mention counts decide which relations and
    /// columns appear or disappear; new names merge into the sorted
    /// relation and column tables, one integer pass per table remaps the
    /// surviving ids (ids follow name order, so remapping keeps every
    /// row sorted), and only the edge rows of changed queries are
    /// rebuilt from strings. The result equals `GraphIndex::build(new)`
    /// exactly, whatever history produced `self`. Should `self` not
    /// describe `old`, the index is derived from scratch instead.
    pub fn updated(&self, old: &LineageGraph, new: &LineageGraph) -> GraphIndex {
        self.apply(old, &Delta::between(old, new)).unwrap_or_else(|| {
            let empty = LineageGraph::default();
            GraphIndex::default()
                .apply(&empty, &Delta::between(&empty, new))
                .expect("the empty index describes the empty graph")
        })
    }

    /// The update itself; `None` when `self` contradicts `old` (a name
    /// it lacks, or a count that would drop below zero).
    fn apply(&self, old: &LineageGraph, delta: &Delta<'_>) -> Option<GraphIndex> {
        // 1. Mention counts: retract what the old versions mentioned,
        //    add what the new ones mention. Names the old index lacks
        //    collect, sorted, as fresh relations and columns.
        let mut mentions = match &self.mentions {
            Some(mentions) => mentions.clone(),
            None => self.count_mentions(old)?,
        };
        let retracted = delta.removed_queries.iter().flat_map(|q| query_mentions(q));
        for (relation, column) in
            retracted.chain(delta.removed_nodes.iter().flat_map(|n| node_mentions(n)))
        {
            let rel = self.lookup_relation(relation)?;
            let count = &mut mentions.relations[rel.index()];
            *count = count.checked_sub(1)?;
            if let Some(column) = column {
                let count = &mut mentions.columns[self.column_in(rel, column)?.index()];
                *count = count.checked_sub(1)?;
            }
        }
        let mut fresh: HashMap<&str, Fresh<'_>> = HashMap::new();
        let added = delta.added_queries.iter().flat_map(|q| query_mentions(q));
        for (relation, column) in
            added.chain(delta.added_nodes.iter().flat_map(|n| node_mentions(n)))
        {
            let entry = match self.lookup_relation(relation) {
                Some(rel) => {
                    mentions.relations[rel.index()] += 1;
                    let Some(column) = column else { continue };
                    if let Some(col) = self.column_in(rel, column) {
                        mentions.columns[col.index()] += 1;
                        continue;
                    }
                    fresh.entry(relation).or_insert_with(|| Fresh::under(rel.0))
                }
                None => {
                    let entry = fresh.entry(relation).or_insert_with(|| Fresh::under(UNMAPPED));
                    entry.mentions += 1;
                    entry
                }
            };
            if let Some(column) = column {
                *entry.columns.entry(column).or_default() += 1;
            }
        }

        let mut fresh: Vec<(&str, Fresh<'_>)> = fresh.into_iter().collect();
        fresh.sort_unstable_by_key(|(name, _)| *name);

        // 2. The relation table: surviving relations and new names,
        //    merged in name order. Each new name's slot among the old
        //    relations is a binary search.
        let mut rel_map = vec![UNMAPPED; self.relations.len()];
        let mut next_rels: Vec<NextRelation<'_>> = Vec::with_capacity(self.relations.len());
        let mut inserts = fresh
            .iter_mut()
            .filter(|(_, fresh)| fresh.old == UNMAPPED)
            .map(|(name, fresh)| {
                let name = *name;
                // Relation names are the first symbols, in name order.
                let slot = self.interner.names[..self.relations.len()]
                    .partition_point(|old| &**old < name);
                (slot, name, fresh)
            })
            .peekable();
        let mut insert_new = |slot: usize, next_rels: &mut Vec<_>| {
            while let Some((_, name, fresh)) = inserts.next_if(|(at, _, _)| *at == slot) {
                fresh.next = next_rels.len() as u32;
                let (name, mentions) = (self.name_of(name), fresh.mentions);
                next_rels.push(NextRelation { name, old: UNMAPPED, mentions });
            }
        };
        for (old_rel, &count) in mentions.relations.iter().enumerate() {
            insert_new(old_rel, &mut next_rels);
            if count > 0 {
                rel_map[old_rel] = next_rels.len() as u32;
                let name = Name::Old(old_rel as u32);
                next_rels.push(NextRelation { name, old: old_rel as u32, mentions: count });
            }
        }
        insert_new(self.relations.len(), &mut next_rels);
        let mut names = NextNames {
            old: &self.interner,
            sources: Vec::with_capacity(self.interner.len() + next_rels.len()),
            of_old: vec![UNMAPPED; self.interner.len()],
            fresh: HashMap::new(),
        };
        for rel in &next_rels {
            names.symbol(rel.name);
        }

        // 3. The column table, relation by relation: surviving columns
        //    merged by name with the relation's new columns, column-name
        //    symbols assigned on first appearance. New columns arrive
        //    sorted by (relation, column), which is next-id order.
        let fresh_count: usize = fresh.iter().map(|(_, fresh)| fresh.columns.len()).sum();
        let mut fresh_cols = fresh
            .iter()
            .flat_map(|(_, fresh)| {
                let rel = match fresh.old {
                    UNMAPPED => fresh.next,
                    old => rel_map[old as usize],
                };
                fresh.columns.iter().map(move |(&column, &count)| (rel, column, count))
            })
            .peekable();
        let column_capacity = self.columns.len() + fresh_count;
        let mut col_map = vec![UNMAPPED; self.columns.len()];
        let mut col_old: Vec<u32> = Vec::with_capacity(column_capacity);
        let mut columns: Vec<(RelationId, Symbol)> = Vec::with_capacity(column_capacity);
        let mut col_mentions: Vec<u32> = Vec::with_capacity(column_capacity);
        let mut relations: Vec<RelationInfo> = Vec::with_capacity(next_rels.len());
        for (rel, next) in next_rels.iter().enumerate() {
            let rel = rel as u32;
            let col_start = columns.len() as u32;
            let old_range = match next.old {
                UNMAPPED => 0..0,
                old => self.relations[old as usize].col_start..self.relations[old as usize].col_end,
            };
            for old_col in old_range {
                let count = mentions.columns[old_col as usize];
                if count == 0 {
                    continue;
                }
                let name = self.column_name(ColumnId(old_col));
                while let Some((_, column, count)) =
                    fresh_cols.next_if(|&(r, column, _)| r == rel && column < name)
                {
                    columns.push((RelationId(rel), names.symbol(self.name_of(column))));
                    col_old.push(UNMAPPED);
                    col_mentions.push(count);
                }
                col_map[old_col as usize] = columns.len() as u32;
                let symbol = names.symbol(Name::Old(self.columns[old_col as usize].1 .0));
                columns.push((RelationId(rel), symbol));
                col_old.push(old_col);
                col_mentions.push(count);
            }
            while let Some((_, column, count)) = fresh_cols.next_if(|&(r, _, _)| r == rel) {
                columns.push((RelationId(rel), names.symbol(self.name_of(column))));
                col_old.push(UNMAPPED);
                col_mentions.push(count);
            }
            let kind = match next.old {
                UNMAPPED => None,
                old => self.relations[old as usize].kind,
            };
            relations.push(RelationInfo { kind, col_start, col_end: columns.len() as u32 });
        }

        let mut index = GraphIndex {
            interner: names.finish(),
            relations,
            declared: Rows::default(),
            columns,
            fwd: Csr::default(),
            rev: Csr::default(),
            tbl_fwd: Csr::default(),
            tbl_rev: Csr::default(),
            mentions: Some(Mentions {
                relations: next_rels.iter().map(|r| r.mentions).collect(),
                columns: col_mentions,
            }),
        };

        // 4. Node metadata: changed nodes re-resolve their declared
        //    columns, the rest keep their rows with remapped ids.
        let mut node_changes: BTreeMap<u32, Option<&Node>> = BTreeMap::new();
        for node in &delta.removed_nodes {
            if let Some(rel) = index.lookup_relation(&node.name) {
                node_changes.insert(rel.0, None);
            }
        }
        for node in &delta.added_nodes {
            node_changes.insert(index.lookup_relation(&node.name)?.0, Some(node));
        }
        let mut node_changes = node_changes.into_iter().peekable();
        let mut declared = Rows::with_capacity(next_rels.len(), self.declared.items.len());
        for (rel, next) in next_rels.iter().enumerate() {
            match node_changes.next_if(|&(changed, _)| changed as usize == rel) {
                Some((_, Some(node))) => {
                    index.relations[rel].kind = Some(node.kind);
                    for column in &node.columns {
                        declared.items.push(index.column_in(RelationId(rel as u32), column)?);
                    }
                }
                Some((_, None)) => index.relations[rel].kind = None,
                None if next.old != UNMAPPED => {
                    for column in self.declared.row(next.old) {
                        declared.items.push(ColumnId(remap(&col_map, column.0)?));
                    }
                }
                None => {}
            }
            declared.end_row();
        }
        index.declared = declared;

        // 5. Edges. Every column-level edge into relation `r` comes from
        //    the query whose id is `r` (and every relation-level edge into
        //    `r` too), so the rows of a changed query's relation are
        //    rebuilt from its new version — merged per query exactly like
        //    `LineageGraph::all_edges`: contribute entries first, then
        //    every referenced source fans out to every output, upgrading
        //    shared pairs to `Both` — and every other row is the old one
        //    with remapped ids. The forward adjacencies are transposes.
        let mut touched = vec![false; index.relations.len()];
        for query in &delta.removed_queries {
            if let Some(rel) = index.lookup_relation(&query.id) {
                touched[rel.index()] = true;
            }
        }
        let mut spliced: Vec<(u32, u32, EdgeKind)> = Vec::new();
        let mut tbl_spliced: Vec<(u32, u32)> = Vec::new();
        for query in &delta.added_queries {
            let rel = index.lookup_relation(&query.id)?;
            touched[rel.index()] = true;
            let mut merged: BTreeMap<(u32, u32), EdgeKind> = BTreeMap::new();
            let to_ids: Vec<u32> = query
                .outputs
                .iter()
                .map(|out| index.column_in(rel, &out.name).map(|c| c.0))
                .collect::<Option<_>>()?;
            for (out, &to) in query.outputs.iter().zip(&to_ids) {
                for source in &out.ccon {
                    let from = index.lookup_column(&source.table, &source.column)?.0;
                    merged.insert((to, from), EdgeKind::Contribute);
                }
            }
            for source in &query.cref {
                let from = index.lookup_column(&source.table, &source.column)?.0;
                for &to in &to_ids {
                    merged
                        .entry((to, from))
                        .and_modify(|kind| {
                            if *kind == EdgeKind::Contribute {
                                *kind = EdgeKind::Both;
                            }
                        })
                        .or_insert(EdgeKind::Reference);
                }
            }
            spliced.extend(merged.into_iter().map(|((to, from), kind)| (to, from, kind)));
            for table in &query.tables {
                tbl_spliced.push((rel.0, index.lookup_relation(table)?.0));
            }
        }
        spliced.sort_unstable_by_key(|&(to, from, _)| (to, from));
        tbl_spliced.sort_unstable();
        tbl_spliced.dedup();

        let mut spliced = spliced.into_iter().peekable();
        let mut rev = Csr::with_capacity(index.columns.len(), self.rev.items.len());
        for (col, &(rel, _)) in index.columns.iter().enumerate() {
            if touched[rel.index()] {
                while let Some((_, from, kind)) = spliced.next_if(|&(to, _, _)| to as usize == col)
                {
                    rev.items.push((from, kind));
                }
            } else if col_old[col] != UNMAPPED {
                for &(from, kind) in self.rev.row(col_old[col]) {
                    rev.items.push((remap(&col_map, from)?, kind));
                }
            }
            rev.end_row();
        }
        let mut tbl_spliced = tbl_spliced.into_iter().peekable();
        let mut tbl_rev = Csr::with_capacity(index.relations.len(), self.tbl_rev.items.len());
        for (rel, next) in next_rels.iter().enumerate() {
            if touched[rel] {
                while let Some((_, from)) = tbl_spliced.next_if(|&(to, _)| to as usize == rel) {
                    tbl_rev.items.push((from, EdgeKind::Contribute));
                }
            } else if next.old != UNMAPPED {
                for &(from, kind) in self.tbl_rev.row(next.old) {
                    tbl_rev.items.push((remap(&rel_map, from)?, kind));
                }
            }
            tbl_rev.end_row();
        }
        index.fwd = rev.transposed(index.columns.len());
        index.rev = rev;
        index.tbl_fwd = tbl_rev.transposed(index.relations.len());
        index.tbl_rev = tbl_rev;
        Some(index)
    }

    /// Count every name `graph` mentions against this index's ids; `None`
    /// when the graph mentions a name the index lacks.
    fn count_mentions(&self, graph: &LineageGraph) -> Option<Mentions> {
        let mut mentions = Mentions {
            relations: vec![0; self.relations.len()],
            columns: vec![0; self.columns.len()],
        };
        let queries = graph.queries.values().flat_map(|q| query_mentions(q));
        for (relation, column) in queries.chain(graph.nodes.values().flat_map(|n| node_mentions(n)))
        {
            let rel = self.lookup_relation(relation)?;
            mentions.relations[rel.index()] += 1;
            if let Some(column) = column {
                mentions.columns[self.column_in(rel, column)?.index()] += 1;
            }
        }
        Some(mentions)
    }

    /// How `name` enters the next revision's name table.
    fn name_of<'g>(&self, name: &'g str) -> Name<'g> {
        match self.interner.get(name) {
            Some(symbol) => Name::Old(symbol.0),
            None => Name::Fresh(name),
        }
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
        self.fwd.items.len()
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
        self.column_in(self.lookup_relation(table)?, column)
    }

    /// The column id of `column` within relation `rel`, if indexed.
    fn column_in(&self, rel: RelationId, column: &str) -> Option<ColumnId> {
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
        self.interner.resolve(Symbol(relation.0))
    }

    /// A relation's node kind, or `None` when the graph has no node for
    /// it (externals referenced only inside lineage records).
    pub fn relation_kind(&self, relation: RelationId) -> Option<NodeKind> {
        self.relations[relation.index()].kind
    }

    /// A relation's columns in the node's *declared* order (empty when
    /// the relation has no node).
    pub fn declared_columns(&self, relation: RelationId) -> &[ColumnId] {
        self.declared.row(relation.0)
    }

    /// Every indexed column of a relation, in id (name) order: its
    /// declared columns and any only lineage records mention.
    pub(crate) fn relation_columns(&self, relation: RelationId) -> impl Iterator<Item = ColumnId> {
        let info = &self.relations[relation.index()];
        (info.col_start..info.col_end).map(ColumnId)
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
            + self.declared.offsets.len() * 4
            + self.declared.items.len() * 4;
        let columns = self.columns.len() * 8;
        let csr = |c: &Csr| c.offsets.len() * 4 + c.items.len() * 8;
        strings
            + relations
            + columns
            + csr(&self.fwd)
            + csr(&self.rev)
            + csr(&self.tbl_fwd)
            + csr(&self.tbl_rev)
    }

    /// Decompose into the dense arrays the binary snapshot serialises.
    /// Two indexes with equal raw forms answer every query identically,
    /// and the snapshot decoder's `GraphIndex::from_raw` is the exact
    /// inverse: round-tripping preserves every id assignment and
    /// adjacency row bit for bit.
    pub fn to_raw(&self) -> RawGraphIndex {
        let csr = |c: &Csr| (c.offsets.clone(), c.items.clone());
        RawGraphIndex {
            names: self.interner.names().iter().map(|name| name.to_string()).collect(),
            relations: self
                .relations
                .iter()
                .enumerate()
                .map(|(i, r)| RawRelation {
                    kind: r.kind,
                    declared: self.declared.row(i as u32).iter().map(|c| c.0).collect(),
                    col_start: r.col_start,
                    col_end: r.col_end,
                })
                .collect(),
            columns: self.columns.iter().map(|&(rel, sym)| (rel.0, sym.0)).collect(),
            fwd: csr(&self.fwd),
            rev: csr(&self.rev),
            tbl_fwd: csr(&self.tbl_fwd),
            tbl_rev: csr(&self.tbl_rev),
        }
    }

    /// Reassemble an index from snapshot arrays without re-running
    /// [`GraphIndex::build`] — deserialisation is array moves plus one
    /// interner lookup-table rebuild, which is what makes snapshot
    /// cold-start sub-linear in extraction cost. The mention counts an
    /// update needs are not persisted; the first update counts them.
    pub(crate) fn from_raw(raw: RawGraphIndex) -> GraphIndex {
        let csr = |(offsets, items): RawCsr| Rows { offsets, items };
        let mut declared = Rows::with_capacity(raw.relations.len(), 0);
        for relation in &raw.relations {
            declared.items.extend(relation.declared.iter().map(|&c| ColumnId(c)));
            declared.end_row();
        }
        GraphIndex {
            interner: Interner::from_names(raw.names.into_iter().map(Arc::from).collect()),
            relations: raw
                .relations
                .into_iter()
                .map(|r| RelationInfo { kind: r.kind, col_start: r.col_start, col_end: r.col_end })
                .collect(),
            declared,
            columns: raw
                .columns
                .into_iter()
                .map(|(rel, sym)| (RelationId(rel), Symbol(sym)))
                .collect(),
            fwd: csr(raw.fwd),
            rev: csr(raw.rev),
            tbl_fwd: csr(raw.tbl_fwd),
            tbl_rev: csr(raw.tbl_rev),
            mentions: None,
        }
    }
}

/// One CSR as plain arrays: `(offsets, edges)`.
pub type RawCsr = (Vec<u32>, Vec<(u32, EdgeKind)>);

/// One relation record of a [`RawGraphIndex`]; the relation's name
/// symbol is its position in the list.
#[derive(Debug, Clone, PartialEq)]
pub struct RawRelation {
    /// The node kind, `None` without a node.
    pub kind: Option<NodeKind>,
    /// The node's columns in declared order, as column ids.
    pub declared: Vec<u32>,
    /// Start of the relation's column range.
    pub col_start: u32,
    /// End (exclusive) of the relation's column range.
    pub col_end: u32,
}

/// The dense arrays behind a [`GraphIndex`], as the binary snapshot
/// (`crate::snapshot`) persists them, so a persisted index can be
/// reloaded without paying a full rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct RawGraphIndex {
    /// The interner's name table (symbol `i` is `names[i]`; the first
    /// `relations.len()` entries are the relation names, in id order).
    pub names: Vec<String>,
    /// Per relation, in id order.
    pub relations: Vec<RawRelation>,
    /// Per column: `(relation id, name symbol)`.
    pub columns: Vec<(u32, u32)>,
    /// Column-level forward adjacency.
    pub fwd: RawCsr,
    /// Column-level reverse adjacency.
    pub rev: RawCsr,
    /// Relation-level forward adjacency.
    pub tbl_fwd: RawCsr,
    /// Relation-level reverse adjacency.
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
/// swap between *equal-length* names can still slip past it. Callers
/// that mutate a graph in place must therefore call
/// [`GraphIndexCache::invalidate`] explicitly; the fingerprint is the
/// safety net for the immutable-after-construction batch result.
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

/// Build-once storage for a [`GraphIndex`]: the first
/// [`GraphIndexCache::get_or_build`] after a (re)settle pays the build,
/// every further query is a clone of the shared [`Arc`].
#[derive(Debug, Clone, Default)]
pub struct GraphIndexCache {
    slot: Option<(GraphFingerprint, Arc<GraphIndex>)>,
}

impl GraphIndexCache {
    /// An empty cache.
    pub fn new() -> Self {
        GraphIndexCache::default()
    }

    /// The cached index for `graph`, building (and storing) it when the
    /// cache is empty or the graph's fingerprint changed. Rechecking the
    /// fingerprint walks the graph's entry counts on every call.
    pub fn get_or_build(&mut self, graph: &LineageGraph) -> Arc<GraphIndex> {
        let key = GraphFingerprint::of(graph);
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

    /// Whether an index is currently cached.
    pub fn is_cached(&self) -> bool {
        self.slot.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::lineagex;
    use crate::model::{Edge, OutputColumn};
    use std::collections::BTreeSet;

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
        // A structural change (retract one query, settle its node)
        // rebuilds.
        assert_eq!(g.retract_queries(&BTreeSet::from(["top".to_string()])).len(), 1);
        let LineageGraph { nodes, queries, .. } = &mut g;
        let no_catalog = lineagex_catalog::Catalog::new();
        crate::infer::assemble_nodes(nodes, ["top"], &no_catalog, queries, &Default::default());
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
    fn cache_detects_in_place_source_swaps() {
        // Counts alone would miss this edit: one contribute source is
        // swapped for another (same cardinality everywhere). The
        // name-byte component of the fingerprint catches any swap that
        // changes a name's length; equal-length swaps remain the
        // documented reason in-place mutators must invalidate manually.
        let mut g = graph();
        let mut cache = GraphIndexCache::new();
        let first = cache.get_or_build(&g);
        let out = &mut Arc::make_mut(g.queries.get_mut("mid").unwrap()).outputs[0];
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
    fn empty_graph_indexes_cleanly() {
        let index = GraphIndex::build(&LineageGraph::default());
        assert_eq!(index.column_count(), 0);
        assert_eq!(index.relation_count(), 0);
        assert_eq!(index.edge_count(), 0);
        assert!(index.lookup_relation("anything").is_none());
    }

    /// The from-scratch builder the maintained index replaced, kept as
    /// the oracle of the canonical layout (and so of `.lxsn` bytes):
    /// relation names interned first in sorted order, then column names
    /// on first appearance over the `(table, column)`-sorted column table.
    fn reference_raw(graph: &LineageGraph) -> RawGraphIndex {
        let mut columns_by_rel: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for node in graph.nodes.values() {
            columns_by_rel
                .entry(&node.name)
                .or_default()
                .extend(node.columns.iter().map(String::as_str));
        }
        for query in graph.queries.values() {
            let set = columns_by_rel.entry(&query.id).or_default();
            set.extend(query.outputs.iter().map(|o| o.name.as_str()));
            for source in query.outputs.iter().flat_map(|o| &o.ccon).chain(&query.cref) {
                columns_by_rel.entry(&source.table).or_default().insert(&source.column);
            }
            for table in &query.tables {
                columns_by_rel.entry(table).or_default();
            }
        }
        let mut interner = Interner::new();
        for name in columns_by_rel.keys() {
            interner.intern(name);
        }
        let mut relations = Vec::new();
        let mut columns: Vec<(u32, u32)> = Vec::new();
        let mut ids: BTreeMap<(&str, &str), u32> = BTreeMap::new();
        for (rel, (name, names)) in columns_by_rel.iter().enumerate() {
            let col_start = columns.len() as u32;
            for column in names {
                ids.insert((name, column), columns.len() as u32);
                columns.push((rel as u32, interner.intern(column).0));
            }
            relations.push(RawRelation {
                kind: None,
                declared: Vec::new(),
                col_start,
                col_end: columns.len() as u32,
            });
        }
        let rel_id = |name: &str| interner.get(name).unwrap().0 as usize;
        for node in graph.nodes.values() {
            let rel = &mut relations[rel_id(&node.name)];
            rel.kind = Some(node.kind);
            rel.declared =
                node.columns.iter().map(|c| ids[&(node.name.as_str(), c.as_str())]).collect();
        }
        let mut triples: Vec<(u32, u32, EdgeKind)> = Vec::new();
        let mut tbl: BTreeSet<(u32, u32)> = BTreeSet::new();
        for query in graph.queries.values() {
            let mut merged: BTreeMap<(u32, u32), EdgeKind> = BTreeMap::new();
            let id = |s: &SourceColumn| ids[&(s.table.as_str(), s.column.as_str())];
            for out in &query.outputs {
                let to = ids[&(query.id.as_str(), out.name.as_str())];
                for source in &out.ccon {
                    merged.insert((id(source), to), EdgeKind::Contribute);
                }
            }
            for source in &query.cref {
                for out in &query.outputs {
                    let to = ids[&(query.id.as_str(), out.name.as_str())];
                    let kind = merged.entry((id(source), to)).or_insert(EdgeKind::Reference);
                    if *kind == EdgeKind::Contribute {
                        *kind = EdgeKind::Both;
                    }
                }
            }
            triples.extend(merged.into_iter().map(|((from, to), kind)| (from, to, kind)));
            for table in &query.tables {
                tbl.insert((rel_id(table) as u32, rel_id(&query.id) as u32));
            }
        }
        let csr = |nodes: usize, mut pairs: Vec<(u32, u32, EdgeKind)>| -> RawCsr {
            pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
            let mut offsets = vec![0u32; nodes + 1];
            for &(a, _, _) in &pairs {
                offsets[a as usize + 1] += 1;
            }
            for i in 0..nodes {
                offsets[i + 1] += offsets[i];
            }
            (offsets, pairs.into_iter().map(|(_, b, kind)| (b, kind)).collect())
        };
        let flip = |t: &[(u32, u32, EdgeKind)]| t.iter().map(|&(a, b, k)| (b, a, k)).collect();
        let tbl: Vec<(u32, u32, EdgeKind)> =
            tbl.into_iter().map(|(a, b)| (a, b, EdgeKind::Contribute)).collect();
        RawGraphIndex {
            names: interner.names().iter().map(|n| n.to_string()).collect(),
            fwd: csr(columns.len(), triples.clone()),
            rev: csr(columns.len(), flip(&triples)),
            tbl_fwd: csr(relations.len(), tbl.clone()),
            tbl_rev: csr(relations.len(), flip(&tbl)),
            relations,
            columns,
        }
    }

    /// A generated log's graph; `star`, `setop` and `cte` vary its shape.
    fn generated(seed: u64, views: usize) -> LineageGraph {
        use lineagex_datasets::{generator, GeneratorConfig};
        let workload = generator::generate(&GeneratorConfig {
            views,
            star_probability: 0.3,
            setop_probability: 0.3,
            cte_probability: 0.3,
            ..GeneratorConfig::seeded(seed)
        });
        crate::api::lineagex(&workload.full_sql()).unwrap().graph
    }

    /// `graph` with each query kept, dropped or reshaped, and each node
    /// kept or dropped, by `picks` (shared entries stay pointer-equal).
    fn variant(graph: &LineageGraph, picks: &[u8]) -> LineageGraph {
        let mut pick = picks.iter().cycle().copied();
        let mut out = LineageGraph::default();
        for (id, query) in &graph.queries {
            match pick.next().unwrap_or(0) % 5 {
                0 => {}
                1 => {
                    // A fresh output column plus a source named like an
                    // existing relation: names appear and switch roles.
                    let mut query = (**query).clone();
                    let source = SourceColumn::new(&query.id, "fresh");
                    query.outputs.push(OutputColumn::new("mid", BTreeSet::from([source])));
                    query.tables.insert("zz_new_relation".into());
                    out.queries.insert(id.clone(), Arc::new(query));
                }
                2 => {
                    let mut query = (**query).clone();
                    query.outputs.reverse();
                    query.outputs.truncate(1);
                    out.queries.insert(id.clone(), Arc::new(query));
                }
                _ => {
                    out.queries.insert(id.clone(), Arc::clone(query));
                }
            }
        }
        for (name, node) in &graph.nodes {
            if pick.next().unwrap_or(0) % 4 != 0 {
                out.nodes.insert(name.clone(), Arc::clone(node));
            }
        }
        out.order = out.queries.keys().cloned().collect();
        out
    }

    /// [`GraphIndex::updated`] without its from-scratch fallback, so a
    /// test cannot pass by rebuilding.
    fn maintained(index: &GraphIndex, old: &LineageGraph, new: &LineageGraph) -> GraphIndex {
        index.apply(old, &Delta::between(old, new)).expect("the index describes the old graph")
    }

    #[test]
    fn build_keeps_the_reference_layout() {
        for seed in 0..6 {
            let g = generated(seed, 40);
            assert_eq!(GraphIndex::build(&g).to_raw(), reference_raw(&g), "seed {seed}");
        }
        assert_eq!(GraphIndex::build(&graph()).to_raw(), reference_raw(&graph()));
    }

    #[test]
    fn names_switching_between_relation_and_column_keep_the_layout() {
        // `mid` is a relation; a query whose output column is named `mid`
        // shares its symbol. Retracting the relation turns the name into
        // a column-only symbol; adding a relation named like a column
        // does the reverse.
        let base = graph();
        let mut renamed = base.clone();
        renamed.queries.remove("mid");
        renamed.nodes.remove("mid");
        let mut top = (*renamed.queries["top"]).clone();
        top.outputs[0].name = "mid".into();
        top.outputs[0].ccon = BTreeSet::from([SourceColumn::new("base", "a")]);
        top.tables = BTreeSet::from(["base".to_string(), "c".to_string()]);
        renamed.queries.insert("top".into(), Arc::new(top));
        let steps = [base.clone(), renamed, LineageGraph::default(), base];
        let mut index = GraphIndex::build(&steps[0]);
        for pair in steps.windows(2) {
            index = maintained(&index, &pair[0], &pair[1]);
            assert_eq!(index.to_raw(), reference_raw(&pair[1]));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Chains of arbitrary graph edits — queries and nodes dropped,
        /// re-added, reshaped, names appearing and disappearing — always
        /// leave the maintained index equal to a fresh build.
        #[test]
        fn maintained_index_equals_a_fresh_build(
            seed in 0u64..1_000,
            steps in proptest::collection::vec(proptest::collection::vec(0u8..20, 1..12), 1..5),
        ) {
            let full = generated(seed, 25);
            let mut graph = full.clone();
            let mut index = GraphIndex::build(&graph);
            for picks in &steps {
                let next = variant(&full, picks);
                index = maintained(&index, &graph, &next);
                proptest::prop_assert_eq!(index.to_raw(), GraphIndex::build(&next).to_raw());
                graph = next;
            }
            proptest::prop_assert_eq!(index.to_raw(), reference_raw(&graph));
        }
    }

    #[test]
    fn a_snapshot_decoded_index_counts_mentions_on_first_update() {
        let full = generated(3, 30);
        let decoded = GraphIndex::from_raw(GraphIndex::build(&full).to_raw());
        let next = variant(&full, &[1, 3, 0, 2, 3, 3]);
        assert_eq!(maintained(&decoded, &full, &next).to_raw(), GraphIndex::build(&next).to_raw());
    }

    #[test]
    fn an_index_paired_with_the_wrong_graph_is_derived_from_scratch() {
        let unrelated = generated(11, 20);
        let next = generated(12, 20);
        let stale = GraphIndex::build(&graph());
        assert!(stale.apply(&unrelated, &Delta::between(&unrelated, &next)).is_none());
        let index = stale.updated(&unrelated, &next);
        assert_eq!(index.to_raw(), GraphIndex::build(&next).to_raw());
    }
}
