//! The lineage data model: per-query lineage, graph nodes, and edges.
//!
//! Terminology follows the paper (§II–III):
//!
//! * `C_con(c_out)` — input columns that *contribute* to an output column's
//!   value ([`OutputColumn::ccon`]);
//! * `C_ref(Q)` — query-level *referenced* columns: join predicates,
//!   `WHERE`, `GROUP BY`, `HAVING`, `ORDER BY`, and every projection column
//!   of set-operation branches ([`QueryLineage::cref`]);
//! * `C_both` — columns in both sets ([`QueryLineage::cboth`]);
//! * table lineage `T` — the relations a query scans
//!   ([`QueryLineage::tables`]).

use crate::diagnostics::Diagnostic;
use crate::shared::{SharedMap, SharedVec};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// A fully-resolved reference to a column of a relation: a catalog
/// table, a view or another query's output, or an inferred external.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SourceColumn {
    /// The owning relation's name.
    pub table: String,
    /// The column name within that relation.
    pub column: String,
}

impl SourceColumn {
    /// Build a source column reference.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        SourceColumn { table: table.into(), column: column.into() }
    }
}

impl fmt::Display for SourceColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// How an input column participates in an output column's lineage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum EdgeKind {
    /// The input directly contributes to the output's value (`C_con`).
    Contribute,
    /// The input is referenced by the defining query (`C_ref`), so changes
    /// may alter which rows/values appear.
    Reference,
    /// Both contribute and reference (`C_both`, orange in the paper's UI).
    Both,
}

/// One output column of a query with its contributing sources.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct OutputColumn {
    /// The output column name.
    pub name: String,
    /// `C_con`: contributing input columns.
    pub ccon: BTreeSet<SourceColumn>,
}

impl OutputColumn {
    /// Build an output column.
    pub fn new(name: impl Into<String>, ccon: BTreeSet<SourceColumn>) -> Self {
        OutputColumn { name: name.into(), ccon }
    }
}

/// What kind of statement produced a query's lineage entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum QueryKind {
    /// `CREATE [MATERIALIZED] VIEW`.
    View {
        /// Materialised flag.
        materialized: bool,
    },
    /// `CREATE TABLE ... AS`.
    TableAs,
    /// `INSERT INTO target ...`.
    Insert,
    /// `UPDATE target SET ...` (lineage of the updated columns).
    Update,
    /// A bare `SELECT` (anonymous query log entry).
    Select,
}

/// The lineage extracted from a single query.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueryLineage {
    /// The query identifier (created relation name or generated id).
    pub id: String,
    /// Statement kind.
    pub kind: QueryKind,
    /// Output columns in projection order, with `C_con` sources.
    pub outputs: Vec<OutputColumn>,
    /// `C_ref`: query-level referenced columns.
    pub cref: BTreeSet<SourceColumn>,
    /// Table lineage `T`: the relations this query scans directly.
    pub tables: BTreeSet<String>,
    /// Non-fatal findings, each with a span when the source location is
    /// known.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether lenient mode had to degrade part of this query's lineage
    /// (unresolvable columns dropped, extraction stubbed, ...). A partial
    /// record is still safe to navigate — it just promises less.
    pub partial: bool,
}

impl QueryLineage {
    /// `C_both`: sources that both contribute to some output and are
    /// referenced.
    pub fn cboth(&self) -> BTreeSet<SourceColumn> {
        self.both_sources().cloned().collect()
    }

    /// The members of [`QueryLineage::cboth`], borrowed, in `C_ref` order.
    pub(crate) fn both_sources(&self) -> impl Iterator<Item = &SourceColumn> {
        self.cref.iter().filter(|c| self.outputs.iter().any(|o| o.ccon.contains(*c)))
    }

    /// The full lineage of one output column per the paper's semantics:
    /// `C(c_out) = C_con(c_out) ∪ C_ref(Q)`. When the projection writes
    /// the same output name twice (`SELECT a AS x, b AS x`), the
    /// duplicates denote one graph column, so their `C_con` sets merge —
    /// consistent with [`LineageGraph::all_edges`].
    pub fn lineage_of(&self, output: &str) -> Option<BTreeSet<SourceColumn>> {
        let mut matched = false;
        let mut all = BTreeSet::new();
        for col in self.outputs.iter().filter(|o| o.name == output) {
            matched = true;
            all.extend(col.ccon.iter().cloned());
        }
        if !matched {
            return None;
        }
        all.extend(self.cref.iter().cloned());
        Some(all)
    }

    /// Output column names in order.
    pub fn output_names(&self) -> Vec<&str> {
        self.outputs.iter().map(|o| o.name.as_str()).collect()
    }

    /// `[contribute, reference, both]` counts of the edges this query
    /// adds to [`LineageGraph::all_edges`]. Same-named outputs are one
    /// graph column, so their `C_con` sets merge first; then for each
    /// output `o`, Both = |C_con(o) ∩ C_ref|, Contribute = |C_con(o)| −
    /// Both, and Reference = |C_ref| − Both.
    fn edge_counts(&self) -> [usize; 3] {
        let mut outputs: Vec<&OutputColumn> = self.outputs.iter().collect();
        outputs.sort_by(|a, b| a.name.cmp(&b.name));
        let mut counts = [0usize; 3];
        for same_name in outputs.chunk_by(|a, b| a.name == b.name) {
            let (ccon, both) = match same_name {
                [out] => {
                    (out.ccon.len(), out.ccon.iter().filter(|c| self.cref.contains(c)).count())
                }
                _ => {
                    let merged: BTreeSet<&SourceColumn> =
                        same_name.iter().flat_map(|o| &o.ccon).collect();
                    (merged.len(), merged.into_iter().filter(|c| self.cref.contains(c)).count())
                }
            };
            counts[0] += ccon - both;
            counts[1] += self.cref.len() - both;
            counts[2] += both;
        }
        counts
    }
}

/// What a graph node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NodeKind {
    /// A catalog base table.
    BaseTable,
    /// A view defined by a Query-Dictionary entry.
    View,
    /// A table created by CTAS or written by INSERT.
    Table,
    /// An anonymous query-log result.
    QueryResult,
    /// An external relation whose schema was inferred from usage.
    External,
}

impl NodeKind {
    /// Every kind, in declaration order (`kind as usize` indexes it).
    const ALL: [NodeKind; 5] = [
        NodeKind::BaseTable,
        NodeKind::View,
        NodeKind::Table,
        NodeKind::QueryResult,
        NodeKind::External,
    ];

    /// The node kind a query-lineage entry of `kind` produces.
    pub fn for_query(kind: &QueryKind) -> NodeKind {
        match kind {
            QueryKind::View { .. } => NodeKind::View,
            QueryKind::TableAs | QueryKind::Insert | QueryKind::Update => NodeKind::Table,
            QueryKind::Select => NodeKind::QueryResult,
        }
    }
}

/// One node of the lineage graph: a relation and its columns.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Node {
    /// The relation name (or query id).
    pub name: String,
    /// The node kind.
    pub kind: NodeKind,
    /// Column names in order.
    pub columns: Vec<String>,
}

/// A column-to-column lineage edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct Edge {
    /// The upstream (source) column.
    pub from: SourceColumn,
    /// The downstream (derived) column.
    pub to: SourceColumn,
    /// Contribute / Reference / Both.
    pub kind: EdgeKind,
}

/// A column-level edge whose `(table, column)` endpoints borrow the
/// graph's names: [`LineageGraph::edge_refs`] lists them without copying
/// a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeRef<'g> {
    pub(crate) from: (&'g str, &'g str),
    pub(crate) to: (&'g str, &'g str),
    pub(crate) kind: EdgeKind,
}

/// An empty buffer with room for every edge of `queries` before the
/// merge, so [`sorted_edges`] never grows it: the thread that allocates
/// it owns the memory, whichever thread fills it.
pub(crate) fn edge_buffer<'g>(queries: impl Iterator<Item = &'g QueryLineage>) -> Vec<EdgeRef<'g>> {
    let unmerged = queries.map(|q| {
        q.outputs.iter().map(|out| out.ccon.len()).sum::<usize>() + q.outputs.len() * q.cref.len()
    });
    Vec::with_capacity(unmerged.sum())
}

/// [`LineageGraph::edge_refs`] of `queries` alone, written into `edges`,
/// an empty buffer from [`edge_buffer`]. Every edge ends at an output
/// of its own query, so the edges of disjoint sets of queries are
/// disjoint: sorted apart, they merge by order alone.
pub(crate) fn sorted_edges<'g>(
    queries: impl Iterator<Item = &'g QueryLineage>,
    mut edges: Vec<EdgeRef<'g>>,
) -> Vec<EdgeRef<'g>> {
    for q in queries {
        for out in &q.outputs {
            let to = (q.id.as_str(), out.name.as_str());
            let sources = out.ccon.iter().map(|src| (src, EdgeKind::Contribute));
            let sources = sources.chain(q.cref.iter().map(|src| (src, EdgeKind::Reference)));
            edges.extend(sources.map(|(src, kind)| EdgeRef {
                from: (src.table.as_str(), src.column.as_str()),
                to,
                kind,
            }));
        }
    }
    edges.sort_unstable_by(|a, b| (a.from, a.to).cmp(&(b.from, b.to)));
    edges.dedup_by(|next, kept| {
        let same = (next.from, next.to) == (kept.from, kept.to);
        if same && next.kind != kept.kind {
            kept.kind = EdgeKind::Both;
        }
        same
    });
    edges
}

/// The combined table- and column-level lineage graph over a set of
/// queries, as visualised by the paper's UI (Fig. 2/5).
///
/// The containers are structurally shared ([`SharedMap`], [`SharedVec`])
/// and their entries are `Arc`s, so cloning a graph copies six
/// pointers, two per container. A session that publishes a revision and
/// then edits its own copy pays for the leaves its edits touch, each
/// re-extracted query replacing its own entry; dropping a revision frees
/// only what no other revision holds. Mutate an entry in place with
/// [`Arc::make_mut`] on [`SharedMap::get_mut`]. Iteration, equality,
/// `Debug` and `Serialize` read exactly like the `BTreeMap`s and `Vec`
/// of the same entries.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct LineageGraph {
    /// Every relation node (base tables, views, query results, externals).
    pub nodes: SharedMap<String, Arc<Node>>,
    /// Per-query lineage keyed by query id.
    pub queries: SharedMap<String, Arc<QueryLineage>>,
    /// The order queries were successfully processed in (the output of the
    /// table/view auto-inference stack).
    pub order: SharedVec<String>,
}

impl LineageGraph {
    /// Merge one query's lineage into the graph: upsert its lineage record
    /// and append it to the processing order if new.
    ///
    /// The node map is left alone: the node rule
    /// ([`crate::infer::assemble_nodes`]) settles it, and incremental
    /// callers run it once over the keys a batch of merges touched.
    pub fn merge_query(&mut self, lineage: impl Into<Arc<QueryLineage>>) {
        let lineage = lineage.into();
        // A query has an `order` slot exactly when it has a lineage
        // record (merge, retract and assembly keep the two in step), so
        // the map answers "is it new?" without scanning the order.
        let id = lineage.id.clone();
        if self.queries.insert(id.clone(), lineage).is_none() {
            self.order.push(id);
        }
    }

    /// Retract every query in `ids` from the graph: remove its lineage
    /// record and its slot in the processing order, with one pass over
    /// the order for the whole set. Returns the removed lineages in id
    /// order; ids that were not queries are skipped. Like
    /// [`LineageGraph::merge_query`], it leaves the node map to
    /// [`crate::infer::assemble_nodes`].
    pub fn retract_queries(&mut self, ids: &BTreeSet<String>) -> Vec<Arc<QueryLineage>> {
        let removed: Vec<Arc<QueryLineage>> =
            ids.iter().filter_map(|id| self.queries.remove(id)).collect();
        if !removed.is_empty() {
            // Only queries hold an order slot, so matching against the
            // whole set drops exactly the removed ones.
            self.order.retain(|o| !ids.contains(o));
        }
        removed
    }

    /// Contribute-only edges (`C_con`), one per (source, output) pair.
    pub fn contribute_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for q in self.queries.values() {
            for out in &q.outputs {
                let to = SourceColumn::new(&q.id, &out.name);
                for src in &out.ccon {
                    edges.push(Edge {
                        from: src.clone(),
                        to: to.clone(),
                        kind: EdgeKind::Contribute,
                    });
                }
            }
        }
        edges.sort();
        edges
    }

    /// All edges with paper semantics: every referenced source points at
    /// every output column of the referencing query; sources that also
    /// contribute are marked [`EdgeKind::Both`]. Sorted by `(from, to)`;
    /// the owned form of the borrowed edge list a `ReportV2` renders
    /// when it has no traversal index.
    pub fn all_edges(&self) -> Vec<Edge> {
        self.edge_refs()
            .into_iter()
            .map(|e| Edge {
                from: SourceColumn::new(e.from.0, e.from.1),
                to: SourceColumn::new(e.to.0, e.to.1),
                kind: e.kind,
            })
            .collect()
    }

    /// [`LineageGraph::all_edges`] with borrowed names: one `C_con` edge
    /// per (source, output) and one `C_ref` edge per (referenced source,
    /// output), sorted by `(from, to)`, then merged. Same-named outputs
    /// (`SELECT a AS x, b AS x`) are one graph column, so their edges
    /// merge too; a pair holding both kinds becomes [`EdgeKind::Both`].
    pub(crate) fn edge_refs(&self) -> Vec<EdgeRef<'_>> {
        let lineages = || self.queries.values().map(|q| &**q);
        sorted_edges(lineages(), edge_buffer(lineages()))
    }

    /// Table-level edges: `(source relation, derived relation)` pairs,
    /// sorted and **deduplicated** — a relation scanned several ways by
    /// one query (self-joins, CTE re-use, set-operation branches)
    /// produces exactly one pair. Consumers (viz renderers, the
    /// table-level traversal, [`GraphStats::max_pipeline_depth`]) rely
    /// on the set semantics; the unit tests pin it.
    pub fn table_edges(&self) -> Vec<(String, String)> {
        let mut out = BTreeSet::new();
        for q in self.queries.values() {
            for t in &q.tables {
                out.insert((t.clone(), q.id.clone()));
            }
        }
        out.into_iter().collect()
    }

    /// Whether `column` exists as a node column in the graph.
    pub fn has_column(&self, column: &SourceColumn) -> bool {
        self.nodes
            .get(&column.table)
            .map(|n| n.columns.iter().any(|c| c == &column.column))
            .unwrap_or(false)
    }

    /// Total number of column-level nodes.
    pub fn column_count(&self) -> usize {
        self.nodes.values().map(|n| n.columns.len()).sum()
    }

    /// A cheap O(nodes + lineage entries) estimate of this graph's heap
    /// footprint in bytes — string payloads plus per-allocation overhead,
    /// ignoring the containers' leaf tables; each query is charged one
    /// processing-order slot. Feeds the `engine.peak_graph_bytes` gauge;
    /// it is a capacity-planning signal, not an allocator-accurate
    /// measurement.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes_from(&LineageGraph::default(), 0)
    }

    /// [`LineageGraph::approx_bytes`] of `self`, given the estimate
    /// `old_bytes` of `old`: only the entries the two graphs do not
    /// share are measured, so re-estimating a copy-on-write revision
    /// costs the leaves its edits copied plus one pointer compare per
    /// leaf.
    pub fn approx_bytes_from(&self, old: &LineageGraph, old_bytes: usize) -> usize {
        let mut total = old_bytes;
        let mut charge = |removed: Option<usize>, added: Option<usize>| {
            total = (total + added.unwrap_or(0)).saturating_sub(removed.unwrap_or(0));
        };
        old.queries.for_each_changed(&self.queries, |removed, added| {
            charge(removed.map(query_entry_bytes), added.map(query_entry_bytes))
        });
        old.nodes.for_each_changed(&self.nodes, |removed, added| {
            charge(removed.map(node_entry_bytes), added.map(node_entry_bytes))
        });
        total
    }

    /// Summary statistics of the graph (for reports and the CLI). Linear
    /// in the graph's size: no edge list is built.
    pub fn stats(&self) -> GraphStats {
        let mut by_kind = [0usize; NodeKind::ALL.len()];
        for node in self.nodes.values() {
            by_kind[node.kind as usize] += 1;
        }
        let nodes_by_kind = NodeKind::ALL
            .iter()
            .zip(by_kind)
            .filter(|&(_, count)| count > 0)
            .map(|(kind, count)| (format!("{kind:?}"), count))
            .collect();
        // Every edge of a query ends at one of that query's own output
        // columns, so per-query counts sum to the `all_edges` totals.
        let [mut contribute, mut reference, mut both] = [0usize; 3];
        for q in self.queries.values() {
            let [c, r, b] = q.edge_counts();
            contribute += c;
            reference += r;
            both += b;
        }
        // Pipeline depth: longest chain of table-level edges. A query's
        // `tables` are exactly the table edges into it; iterating in
        // processing order means upstream depths exist first.
        let mut depth: HashMap<&str, usize> = HashMap::with_capacity(self.order.len());
        for id in &self.order {
            let d = self
                .queries
                .get(id)
                .into_iter()
                .flat_map(|q| &q.tables)
                .map(|from| depth.get(from.as_str()).copied().unwrap_or(0) + 1)
                .max()
                .unwrap_or(1);
            depth.insert(id, d);
        }
        GraphStats {
            relations: self.nodes.len(),
            nodes_by_kind,
            columns: self.column_count(),
            queries: self.queries.len(),
            contribute_edges: contribute,
            reference_edges: reference,
            both_edges: both,
            max_pipeline_depth: depth.values().copied().max().unwrap_or(0),
        }
    }
}

/// An owned string's estimated heap cost: payload plus allocation
/// overhead.
fn str_bytes(s: &str) -> usize {
    s.len() + 24
}

fn source_bytes(sc: &SourceColumn) -> usize {
    str_bytes(&sc.table) + str_bytes(&sc.column)
}

/// One query entry's share of [`LineageGraph::approx_bytes`]: its key,
/// its lineage record, and its processing-order slot.
fn query_entry_bytes((key, q): (&String, &QueryLineage)) -> usize {
    let mut total = str_bytes(key) + 2 * str_bytes(&q.id);
    for out in &q.outputs {
        total += str_bytes(&out.name);
        total += out.ccon.iter().map(source_bytes).sum::<usize>();
    }
    total += q.cref.iter().map(source_bytes).sum::<usize>();
    total += q.tables.iter().map(|t| str_bytes(t)).sum::<usize>();
    for d in &q.diagnostics {
        total += str_bytes(&d.message)
            + d.statement.as_deref().map_or(0, str_bytes)
            + d.excerpt.as_deref().map_or(0, str_bytes)
            + std::mem::size_of::<Diagnostic>();
    }
    total
}

/// One node entry's share of [`LineageGraph::approx_bytes`].
fn node_entry_bytes((key, node): (&String, &Node)) -> usize {
    str_bytes(key)
        + str_bytes(&node.name)
        + node.columns.iter().map(|c| str_bytes(c)).sum::<usize>()
}

/// Summary statistics of a lineage graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GraphStats {
    /// Total relation nodes.
    pub relations: usize,
    /// Node counts per kind (`BaseTable`, `View`, ...).
    pub nodes_by_kind: BTreeMap<String, usize>,
    /// Total column nodes.
    pub columns: usize,
    /// Queries with lineage records.
    pub queries: usize,
    /// `C_con`-only edges.
    pub contribute_edges: usize,
    /// `C_ref`-only edges.
    pub reference_edges: usize,
    /// `C_both` edges.
    pub both_edges: usize,
    /// Longest derivation chain (base table → ... → final view).
    pub max_pipeline_depth: usize,
}

impl GraphStats {
    /// Total column-level edges: `LineageGraph::all_edges().len()`
    /// without building the edge list.
    pub fn edge_count(&self) -> usize {
        self.contribute_edges + self.reference_edges + self.both_edges
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lineagex_datasets::{generator, GeneratorConfig};
    use proptest::prelude::*;

    /// The map-keyed [`LineageGraph::all_edges`] the sort-merge replaced,
    /// kept as its oracle: owned `(from, to)` keys, `C_con` edges first,
    /// then `C_ref` edges upgrading a contributed pair to `Both`.
    pub(crate) fn reference_edges(g: &LineageGraph) -> Vec<Edge> {
        let mut edges: BTreeMap<(SourceColumn, SourceColumn), EdgeKind> = BTreeMap::new();
        for q in g.queries.values() {
            for out in &q.outputs {
                let to = SourceColumn::new(&q.id, &out.name);
                for src in &out.ccon {
                    edges.insert((src.clone(), to.clone()), EdgeKind::Contribute);
                }
            }
            for src in &q.cref {
                for out in &q.outputs {
                    let to = SourceColumn::new(&q.id, &out.name);
                    edges
                        .entry((src.clone(), to))
                        .and_modify(|k| {
                            if *k == EdgeKind::Contribute {
                                *k = EdgeKind::Both;
                            }
                        })
                        .or_insert(EdgeKind::Reference);
                }
            }
        }
        edges.into_iter().map(|((from, to), kind)| Edge { from, to, kind }).collect()
    }

    /// The two-pass `stats()` the one-pass version replaced, kept as its
    /// oracle: edge counts from a full edge-list build, and depth from
    /// scanning every table edge once per query.
    fn reference_stats(g: &LineageGraph) -> GraphStats {
        let mut by_kind = BTreeMap::new();
        for node in g.nodes.values() {
            *by_kind.entry(format!("{:?}", node.kind)).or_insert(0usize) += 1;
        }
        let [mut contribute, mut reference, mut both] = [0usize; 3];
        for edge in reference_edges(g) {
            match edge.kind {
                EdgeKind::Contribute => contribute += 1,
                EdgeKind::Reference => reference += 1,
                EdgeKind::Both => both += 1,
            }
        }
        let table_edges = g.table_edges();
        let mut depth: BTreeMap<&str, usize> = BTreeMap::new();
        for id in &g.order {
            let d = table_edges
                .iter()
                .filter(|(_, to)| to == id)
                .map(|(from, _)| depth.get(from.as_str()).copied().unwrap_or(0) + 1)
                .max()
                .unwrap_or(1);
            depth.insert(id, d);
        }
        GraphStats {
            relations: g.nodes.len(),
            nodes_by_kind: by_kind,
            columns: g.column_count(),
            queries: g.queries.len(),
            contribute_edges: contribute,
            reference_edges: reference,
            both_edges: both,
            max_pipeline_depth: depth.values().copied().max().unwrap_or(0),
        }
    }

    /// Assert `stats()` against the reference and the edge list, then
    /// return it for pinning.
    fn checked_stats(g: &LineageGraph) -> GraphStats {
        let stats = g.stats();
        assert_eq!(stats, reference_stats(g));
        assert_eq!(g.all_edges(), reference_edges(g));
        assert_eq!(stats.edge_count(), g.all_edges().len());
        stats
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On generated logs, emitted in dependency order or reversed
        /// (so the deferral stack fires), the one-pass stats equal the
        /// reference — also when the processing order is reversed, which
        /// the depth walk must treat exactly like the reference does.
        #[test]
        fn stats_match_the_reference_on_generated_logs(
            seed in 0u64..10_000,
            shuffled in any::<bool>(),
            star in 0.0f64..0.9,
            setop in 0.0f64..0.9,
            cte in 0.0f64..0.9,
        ) {
            let workload = generator::generate(&GeneratorConfig {
                views: 30,
                star_probability: star,
                setop_probability: setop,
                cte_probability: cte,
                shuffle_statements: shuffled,
                ..GeneratorConfig::seeded(seed)
            });
            let mut graph = crate::lineagex(&workload.full_sql())
                .map_err(|e| TestCaseError::fail(e.to_string()))?
                .graph;
            prop_assert_eq!(graph.stats(), reference_stats(&graph));
            prop_assert_eq!(graph.all_edges(), reference_edges(&graph));
            prop_assert_eq!(graph.stats().edge_count(), graph.all_edges().len());
            let mut reversed: Vec<String> = graph.order.iter().cloned().collect();
            reversed.reverse();
            graph.order = reversed.into();
            prop_assert_eq!(graph.stats(), reference_stats(&graph));
        }
    }

    fn sample_graph() -> LineageGraph {
        // web(page, cid) -> v(out) with page contributing and cid referenced.
        let mut graph = LineageGraph::default();
        graph.nodes.insert(
            "web".into(),
            Arc::new(Node {
                name: "web".into(),
                kind: NodeKind::BaseTable,
                columns: vec!["page".into(), "cid".into()],
            }),
        );
        graph.nodes.insert(
            "v".into(),
            Arc::new(Node { name: "v".into(), kind: NodeKind::View, columns: vec!["out".into()] }),
        );
        graph.queries.insert(
            "v".into(),
            Arc::new(QueryLineage {
                id: "v".into(),
                kind: QueryKind::View { materialized: false },
                outputs: vec![OutputColumn::new(
                    "out",
                    BTreeSet::from([SourceColumn::new("web", "page")]),
                )],
                cref: BTreeSet::from([SourceColumn::new("web", "cid")]),
                tables: BTreeSet::from(["web".into()]),
                diagnostics: vec![],
                partial: false,
            }),
        );
        graph.order.push("v".into());
        graph
    }

    #[test]
    fn lineage_of_unions_ccon_and_cref() {
        let g = sample_graph();
        let q = &g.queries["v"];
        let lin = q.lineage_of("out").unwrap();
        assert!(lin.contains(&SourceColumn::new("web", "page")));
        assert!(lin.contains(&SourceColumn::new("web", "cid")));
        assert!(q.lineage_of("nope").is_none());
    }

    #[test]
    fn cboth_intersects() {
        let mut g = sample_graph();
        // Make page both contributed and referenced.
        Arc::make_mut(g.queries.get_mut("v").unwrap())
            .cref
            .insert(SourceColumn::new("web", "page"));
        let q = &g.queries["v"];
        assert_eq!(q.cboth(), BTreeSet::from([SourceColumn::new("web", "page")]));
    }

    #[test]
    fn edges_have_expected_kinds() {
        let g = sample_graph();
        let edges = g.all_edges();
        assert_eq!(edges.len(), 2);
        let page_edge = edges.iter().find(|e| e.from == SourceColumn::new("web", "page")).unwrap();
        assert_eq!(page_edge.kind, EdgeKind::Contribute);
        let cid_edge = edges.iter().find(|e| e.from == SourceColumn::new("web", "cid")).unwrap();
        assert_eq!(cid_edge.kind, EdgeKind::Reference);
    }

    #[test]
    fn both_kind_when_contributed_and_referenced() {
        let mut g = sample_graph();
        Arc::make_mut(g.queries.get_mut("v").unwrap())
            .cref
            .insert(SourceColumn::new("web", "page"));
        let edges = g.all_edges();
        let page_edge = edges.iter().find(|e| e.from == SourceColumn::new("web", "page")).unwrap();
        assert_eq!(page_edge.kind, EdgeKind::Both);
    }

    #[test]
    fn table_edges_and_counts() {
        let g = sample_graph();
        assert_eq!(g.table_edges(), vec![("web".into(), "v".into())]);
        assert_eq!(g.column_count(), 3);
        assert!(g.has_column(&SourceColumn::new("web", "page")));
        assert!(!g.has_column(&SourceColumn::new("web", "nope")));
    }

    #[test]
    fn table_edges_are_sorted_and_deduplicated() {
        // One view scanning `web` through two aliases (a self-join) plus
        // a second reader: every (source, derived) pair appears exactly
        // once, in sorted order, no matter how many columns or aliases
        // the scan fans out through.
        let mut g = sample_graph();
        g.queries.insert(
            "w2".into(),
            Arc::new(QueryLineage {
                id: "w2".into(),
                kind: QueryKind::View { materialized: false },
                outputs: vec![
                    OutputColumn::new("l", BTreeSet::from([SourceColumn::new("web", "page")])),
                    OutputColumn::new("r", BTreeSet::from([SourceColumn::new("web", "cid")])),
                ],
                cref: BTreeSet::from([
                    SourceColumn::new("web", "page"),
                    SourceColumn::new("web", "cid"),
                ]),
                // `tables` is a set, so the double scan collapses before
                // it ever reaches table_edges — this pins that the edge
                // list stays a set even if that changes.
                tables: BTreeSet::from(["web".into()]),
                diagnostics: vec![],
                partial: false,
            }),
        );
        g.order.push("w2".into());
        let edges = g.table_edges();
        assert_eq!(
            edges,
            vec![("web".to_string(), "v".to_string()), ("web".to_string(), "w2".to_string())]
        );
        let unique: BTreeSet<&(String, String)> = edges.iter().collect();
        assert_eq!(unique.len(), edges.len(), "table_edges must never contain duplicates");
        let mut sorted = edges.clone();
        sorted.sort();
        assert_eq!(sorted, edges, "table_edges must come out sorted");
    }

    #[test]
    fn merge_and_retract_round_trip() {
        let mut g = sample_graph();
        let v = BTreeSet::from(["v".to_string()]);
        let retracted = g.retract_queries(&v).pop().unwrap();
        assert!(g.queries.is_empty());
        assert!(g.order.is_empty());
        assert!(g.retract_queries(&v).is_empty());
        g.merge_query(retracted);
        assert_eq!(g, sample_graph());
        // Re-merging an existing query must not duplicate its order slot.
        let again = g.queries["v"].clone();
        g.merge_query(again);
        assert_eq!(g.order, vec!["v"]);
    }

    #[test]
    fn retracting_a_set_matches_retracting_one_at_a_time() {
        let workload = generator::generate(&GeneratorConfig {
            views: 60,
            shuffle_statements: true,
            ..GeneratorConfig::seeded(7)
        });
        let graph = crate::lineagex(&workload.full_sql()).unwrap().graph;
        // Every third query, plus an id that is not a query at all.
        let mut ids: BTreeSet<String> = graph.order.iter().step_by(3).cloned().collect();
        ids.insert("no_such_query".into());
        let mut one_by_one = graph.clone();
        let singles: Vec<Arc<QueryLineage>> = ids
            .iter()
            .flat_map(|id| one_by_one.retract_queries(&BTreeSet::from([id.clone()])))
            .collect();
        let mut at_once = graph.clone();
        let removed = at_once.retract_queries(&ids);
        assert_eq!(removed, singles);
        assert_eq!(removed.len(), ids.len() - 1);
        assert_eq!(at_once.order, one_by_one.order);
        assert_eq!(at_once.queries, one_by_one.queries);
        assert_eq!(at_once.nodes, one_by_one.nodes);
        // And both equal the graph with exactly those queries taken out.
        let kept: Vec<String> =
            graph.order.iter().filter(|id| !ids.contains(*id)).cloned().collect();
        assert_eq!(at_once.order, kept);
        assert!(kept.iter().all(|id| at_once.queries[id] == graph.queries[id]));
        assert_eq!(at_once.queries.len(), kept.len());
        // The node map is the node rule's to settle.
        assert_eq!(at_once.nodes, graph.nodes);
        assert!(at_once.retract_queries(&ids).is_empty(), "a second pass finds nothing");
    }

    #[test]
    fn incremental_size_estimate_matches_a_full_walk() {
        let workload =
            generator::generate(&GeneratorConfig { views: 40, ..GeneratorConfig::seeded(5) });
        let graph = crate::lineagex(&workload.full_sql()).unwrap().graph;
        let bytes = graph.approx_bytes();
        assert!(bytes > 0);
        // Retract a third of the queries, reshape one, add a node.
        let mut edited = graph.clone();
        let ids: BTreeSet<String> = graph.order.iter().step_by(3).cloned().collect();
        edited.retract_queries(&ids);
        let id = edited.order.iter().next().unwrap().clone();
        Arc::make_mut(edited.queries.get_mut(&id).unwrap()).outputs.clear();
        edited.nodes.insert(
            "extra".into(),
            Arc::new(Node { name: "extra".into(), kind: NodeKind::External, columns: vec![] }),
        );
        assert_eq!(edited.approx_bytes_from(&graph, bytes), edited.approx_bytes());
        assert_eq!(graph.approx_bytes_from(&edited, edited.approx_bytes()), bytes);
    }

    #[test]
    fn node_kind_for_query_maps_all_kinds() {
        assert_eq!(NodeKind::for_query(&QueryKind::View { materialized: true }), NodeKind::View);
        assert_eq!(NodeKind::for_query(&QueryKind::TableAs), NodeKind::Table);
        assert_eq!(NodeKind::for_query(&QueryKind::Insert), NodeKind::Table);
        assert_eq!(NodeKind::for_query(&QueryKind::Update), NodeKind::Table);
        assert_eq!(NodeKind::for_query(&QueryKind::Select), NodeKind::QueryResult);
    }

    #[test]
    fn stats_merge_duplicate_output_names_like_all_edges() {
        // `SELECT a AS x, b AS x, a AS y FROM t WHERE a > c`: the two `x`
        // outputs are one graph column with C_con {a, b}.
        let mut g = LineageGraph::default();
        let col = |c: &str| SourceColumn::new("t", c);
        g.queries.insert(
            "q".into(),
            Arc::new(QueryLineage {
                id: "q".into(),
                kind: QueryKind::Select,
                outputs: vec![
                    OutputColumn::new("x", BTreeSet::from([col("a")])),
                    OutputColumn::new("x", BTreeSet::from([col("b")])),
                    OutputColumn::new("y", BTreeSet::from([col("a")])),
                ],
                cref: BTreeSet::from([col("a"), col("c")]),
                tables: BTreeSet::from(["t".into()]),
                diagnostics: vec![],
                partial: false,
            }),
        );
        g.order.push("q".into());
        let stats = checked_stats(&g);
        // x: t.a both, t.b contribute, t.c reference; y: t.a both, t.c
        // reference.
        assert_eq!((stats.contribute_edges, stats.reference_edges, stats.both_edges), (1, 2, 2));
        assert_eq!(stats.max_pipeline_depth, 1);
    }

    #[test]
    fn stats_of_a_self_join() {
        let result = crate::lineagex(
            "CREATE TABLE web (cid int, page text);
             CREATE VIEW s AS SELECT a.page AS p1, b.page AS p2
             FROM web a JOIN web b ON a.cid = b.cid;",
        )
        .unwrap();
        let stats = checked_stats(&result.graph);
        // web.page feeds both outputs; the join key is referenced by both.
        assert_eq!((stats.contribute_edges, stats.reference_edges, stats.both_edges), (2, 2, 0));
        assert_eq!(stats.max_pipeline_depth, 1);
    }

    #[test]
    fn stats_of_repeat_writers_and_their_reader() {
        let result = crate::lineagex(
            "CREATE TABLE src (a int, b int);
             CREATE TABLE t (x int);
             INSERT INTO t SELECT a FROM src;
             INSERT INTO t SELECT b FROM src WHERE a > 0;
             CREATE VIEW v AS SELECT x FROM t;",
        )
        .unwrap();
        assert_eq!(result.graph.order, vec!["t", "t#2", "v"]);
        let stats = checked_stats(&result.graph);
        // src.a -> t.x, src.b -> t#2.x (+ src.a referenced), t.x -> v.x.
        assert_eq!((stats.contribute_edges, stats.reference_edges, stats.both_edges), (3, 1, 0));
        // v reads `t`, the first writer: src -> t -> v.
        assert_eq!(stats.max_pipeline_depth, 2);
    }

    #[test]
    fn stats_of_a_lenient_cycle_stub() {
        let result = crate::lineagex_lenient(
            "CREATE VIEW a(x) AS SELECT y FROM b;
             CREATE VIEW b(y) AS SELECT x FROM a;",
        )
        .unwrap();
        // b closed the cycle, so b is the stub a then resolves against.
        assert_eq!(result.graph.order, vec!["b", "a"]);
        assert!(result.graph.queries["b"].partial);
        let stats = checked_stats(&result.graph);
        assert_eq!((stats.contribute_edges, stats.reference_edges, stats.both_edges), (1, 0, 0));
        assert_eq!(stats.max_pipeline_depth, 2);
    }

    #[test]
    fn stats_summarise_the_graph() {
        let g = sample_graph();
        let stats = g.stats();
        assert_eq!(stats.relations, 2);
        assert_eq!(stats.columns, 3);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.contribute_edges, 1);
        assert_eq!(stats.reference_edges, 1);
        assert_eq!(stats.both_edges, 0);
        assert_eq!(stats.max_pipeline_depth, 1);
        assert_eq!(stats.nodes_by_kind["BaseTable"], 1);
        assert_eq!(stats.nodes_by_kind["View"], 1);
    }
}
