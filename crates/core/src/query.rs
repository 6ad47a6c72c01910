//! The composable graph-query layer — the workspace's one front door for
//! lineage questions.
//!
//! Every question — impact analysis, upstream closure, shortest path, a
//! one-hop table `explore` — is one [`QuerySpec`]: origins, direction,
//! depth, edge-kind and node-kind filters, column or table granularity,
//! an optional target. It executes over the interned [`GraphIndex`]
//! ([`QuerySpec::run_with`]; [`QuerySpec::run_on`] builds a throw-away
//! index first), and the [`crate::LineageView`] trait exposes the fluent
//! [`GraphQuery`] builder over *any* backend (batch result, incremental
//! session engine), which reuses the backend's cached index:
//!
//! ```
//! use lineagex_core::{lineagex, EdgeKind, LineageView};
//!
//! let mut result = lineagex(
//!     "CREATE TABLE web (cid int, page text);
//!      CREATE VIEW v AS SELECT page FROM web WHERE cid > 0;",
//! ).unwrap();
//! let answer = result
//!     .query()
//!     .from("web.page")
//!     .downstream()
//!     .max_depth(3)
//!     .edge_kind(EdgeKind::Contribute)
//!     .run()
//!     .unwrap();
//! assert_eq!(answer.columns.len(), 1);
//! assert_eq!(answer.columns[0].column.to_string(), "v.page");
//! ```
//!
//! Every answer carries a renderable [`Subgraph`] slice (the traversal
//! cone) so `lineagex-viz` can draw exactly the part of the graph a
//! question touched instead of the whole thing.
//!
//! [`QuerySpec::run_on_unindexed`] is a second, string-keyed execution of
//! the same algorithms. It is the test reference only: the equivalence
//! property tests and `query_bench` compare the indexed answers against
//! it byte for byte.

use crate::graph::{ColumnId, GraphIndex, RelationId};
use crate::model::{Edge, EdgeKind, LineageGraph, Node, NodeKind, SourceColumn};
use lineagex_obs::{Counter, Histogram};
use serde::Serialize;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::OnceLock;

/// Query-layer handles into the process-wide metrics registry, created
/// once and shared across every query.
struct QueryMetrics {
    /// Wall time per executed [`QuerySpec`], in µs.
    spec_us: Histogram,
    /// Total BFS nodes visited (columns at column granularity, relations
    /// at table granularity).
    bfs_nodes: Counter,
}

fn query_metrics() -> &'static QueryMetrics {
    static METRICS: OnceLock<QueryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = lineagex_obs::registry();
        QueryMetrics {
            spec_us: registry.histogram("query.spec_us"),
            bfs_nodes: registry.counter("query.bfs_nodes"),
        }
    })
}

/// Idempotently register the query-layer metric names (`query.spec_us`,
/// `query.bfs_nodes`, `query.index_build_us`) in the process-wide
/// registry, so metric snapshots have a stable shape even before the
/// first query runs. `lineagex-serve` calls this at startup.
pub fn register_metrics() {
    let _ = query_metrics();
    crate::graph::register_metrics();
}

/// Traversal direction over the lineage graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Follow edges from sources to derived columns (impact-style).
    #[default]
    Downstream,
    /// Follow edges from derived columns back to their sources.
    Upstream,
}

impl Direction {
    /// The kebab label used in serialized documents.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Downstream => "downstream",
            Direction::Upstream => "upstream",
        }
    }
}

impl Serialize for Direction {
    fn serialize(&self, s: &mut serde::Serializer<'_>) {
        s.str(self.as_str());
    }
}

/// Traversal granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Walk column-to-column lineage edges (the default).
    #[default]
    Column,
    /// Walk relation-to-relation table lineage (the paper's `explore`).
    Table,
}

/// One traversal origin: a single column, or every column of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OriginSpec {
    Column(SourceColumn),
    Table(String),
}

/// A declarative lineage query: what to start from, which way to walk,
/// how far, and through which edges. Build one fluently (methods consume
/// and return `self`), then execute it with [`QuerySpec::run_on`] — or
/// let the [`GraphQuery`] builder drive it against a
/// [`crate::LineageView`] backend.
#[derive(Debug, Clone, Default)]
pub struct QuerySpec {
    origins: Vec<OriginSpec>,
    direction: Direction,
    granularity: Granularity,
    max_depth: Option<usize>,
    edge_kinds: Option<BTreeSet<EdgeKind>>,
    node_kinds: Option<Vec<NodeKind>>,
    target: Option<SourceColumn>,
}

impl QuerySpec {
    /// An empty downstream column-granularity query.
    pub fn new() -> Self {
        QuerySpec::default()
    }

    /// Add an origin from a `table.column` spec; a spec without a dot
    /// names a whole relation (every one of its columns).
    pub fn from(self, spec: &str) -> Self {
        match spec.rsplit_once('.') {
            Some((table, column)) => self.from_column(table, column),
            None => self.from_table(spec),
        }
    }

    /// Add one column origin.
    pub fn from_column(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.origins.push(OriginSpec::Column(SourceColumn::new(table, column)));
        self
    }

    /// Add a whole-relation origin (all of its columns at column
    /// granularity; the relation itself at table granularity).
    pub fn from_table(mut self, name: impl Into<String>) -> Self {
        self.origins.push(OriginSpec::Table(name.into()));
        self
    }

    /// Walk downstream (the default).
    pub fn downstream(mut self) -> Self {
        self.direction = Direction::Downstream;
        self
    }

    /// Walk upstream.
    pub fn upstream(mut self) -> Self {
        self.direction = Direction::Upstream;
        self
    }

    /// Stop after `depth` hops (origins are depth 0).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Only traverse edges of this kind (repeatable; kinds accumulate).
    /// Note that [`EdgeKind::Both`] is its own kind: filtering to
    /// `Contribute` excludes edges that also reference. A
    /// column-granularity concept — [`QuerySpec::table_level`]
    /// traversals ignore it (relation edges have no single kind).
    pub fn edge_kind(mut self, kind: EdgeKind) -> Self {
        self.edge_kinds.get_or_insert_with(BTreeSet::new).insert(kind);
        self
    }

    /// Only traverse into relations of this node kind (repeatable).
    /// Origins are always admitted.
    pub fn node_kind(mut self, kind: NodeKind) -> Self {
        let kinds = self.node_kinds.get_or_insert_with(Vec::new);
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
        self
    }

    /// Switch to table granularity (relation-to-relation edges).
    pub fn table_level(mut self) -> Self {
        self.granularity = Granularity::Table;
        self
    }

    /// Also compute the shortest path from the origins to this column
    /// (column granularity only); the answer's `path` is `None` when the
    /// target is unreachable.
    pub fn to(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.target = Some(SourceColumn::new(table, column));
        self
    }

    /// The configured direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Execute against a settled lineage graph.
    ///
    /// Builds a throw-away [`GraphIndex`] and runs [`QuerySpec::run_with`]
    /// over it — fine for one-off questions. Callers answering many
    /// queries over the same settled graph should build (or borrow) the
    /// index once: both [`crate::LineageView`] backends cache one and the
    /// [`GraphQuery`] builder uses it automatically.
    pub fn run_on(&self, graph: &LineageGraph) -> QueryAnswer {
        self.run_with(&GraphIndex::build(graph))
    }

    /// Execute against a prebuilt [`GraphIndex`] — the fast path: BFS
    /// over dense integer ids and CSR adjacency, translating back to
    /// strings only at the answer boundary. Produces byte-identical
    /// answers to [`QuerySpec::run_on_unindexed`].
    pub fn run_with(&self, index: &GraphIndex) -> QueryAnswer {
        self.cone(index).answer()
    }

    /// Run the indexed traversal, ending in the id-level [`Cone`] that
    /// answers and replies are written from.
    pub(crate) fn cone<'a>(&self, index: &'a GraphIndex) -> Cone<'a> {
        // Metrics never touch the answer: the indexed ≡ unindexed
        // byte-identity property holds with instrumentation enabled.
        let _timer = query_metrics().spec_us.time();
        match self.granularity {
            Granularity::Column => column_cone(index, self),
            Granularity::Table => table_cone(index, self),
        }
    }

    /// Execute with the string-keyed reference walk, without building an
    /// index. Test reference only: the equivalence property tests and
    /// `query_bench`'s machine-independent ≥ 5× assert compare
    /// [`QuerySpec::run_with`] against it byte for byte. Every downstream
    /// hop scans every query, so a cone costs cone × queries; answer real
    /// questions with [`QuerySpec::run_with`] or [`QuerySpec::run_on`].
    pub fn run_on_unindexed(&self, graph: &LineageGraph) -> QueryAnswer {
        match self.granularity {
            Granularity::Column => run_columns(graph, self),
            Granularity::Table => run_tables(graph, self),
        }
    }

    fn allows_edge(&self, kind: EdgeKind) -> bool {
        self.edge_kinds.as_ref().is_none_or(|kinds| kinds.contains(&kind))
    }

    fn allows_node(&self, graph: &LineageGraph, relation: &str) -> bool {
        match &self.node_kinds {
            None => true,
            Some(kinds) => {
                graph.nodes.get(relation).map(|n| kinds.contains(&n.kind)).unwrap_or(true)
            }
        }
    }

    /// The indexed twin of [`QuerySpec::allows_node`]: a relation with no
    /// node (externals referenced only inside lineage records) is always
    /// admitted, exactly like the string walk admits a missing `nodes`
    /// entry.
    fn allows_node_id(&self, index: &GraphIndex, relation: RelationId) -> bool {
        match &self.node_kinds {
            None => true,
            Some(kinds) => match index.relation_kind(relation) {
                Some(kind) => kinds.contains(&kind),
                None => true,
            },
        }
    }
}

/// One column reached by a traversal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ColumnMatch {
    /// The reached column.
    pub column: SourceColumn,
    /// How the traversal front reaches it, merged over every
    /// shortest-path predecessor (contribution + reference ⇒
    /// [`EdgeKind::Both`]) — the same semantics as the paper's impact UI.
    pub kind: EdgeKind,
    /// Hops from the nearest origin.
    pub distance: usize,
}

/// One relation reached by a traversal (origins report distance 0).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RelationMatch {
    /// The relation name.
    pub name: String,
    /// Minimum hops from an origin over any of its columns (column
    /// granularity) or over table edges (table granularity).
    pub distance: usize,
}

/// One hop of a shortest lineage path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PathStep {
    /// The column stepped onto.
    pub column: SourceColumn,
    /// The kind of the edge into it.
    pub kind: EdgeKind,
}

/// The renderable slice of the graph a query touched: the traversal cone,
/// with node column lists restricted to the touched columns. Small enough
/// to hand straight to the `lineagex-viz` renderers even when the full
/// graph is huge.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct Subgraph {
    /// Touched relations, keyed by name; `columns` keeps only touched
    /// columns, in the relation's declared order.
    pub nodes: BTreeMap<String, Node>,
    /// Every edge of the allowed kinds between touched columns, sorted.
    pub edges: Vec<Edge>,
}

/// The typed result of one [`QuerySpec`] execution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueryAnswer {
    /// The direction that was walked.
    pub direction: Direction,
    /// The resolved column origins (whole-relation origins expand to all
    /// of the relation's columns; table granularity reports them with an
    /// empty column name).
    pub origins: Vec<SourceColumn>,
    /// Columns reached (distance ≥ 1), sorted by `(distance, column)`.
    /// Empty at table granularity.
    pub columns: Vec<ColumnMatch>,
    /// Relations reached, including origin relations at distance 0,
    /// sorted by `(distance, name)`.
    pub relations: Vec<RelationMatch>,
    /// The shortest path to the requested target, when one was set and
    /// is reachable. An origin targeting itself yields an empty path.
    pub path: Option<Vec<PathStep>>,
    /// The renderable traversal cone.
    pub subgraph: Subgraph,
}

impl QueryAnswer {
    /// The traversal edges of the answer (the subgraph's edge slice).
    pub fn edges(&self) -> &[Edge] {
        &self.subgraph.edges
    }

    /// Whether `column` was reached by the traversal.
    pub fn reaches(&self, column: &SourceColumn) -> bool {
        self.columns.iter().any(|m| &m.column == column)
    }
}

/// Resolve the spec's origins to concrete columns, preserving order and
/// deduplicating.
fn resolve_column_origins(graph: &LineageGraph, spec: &QuerySpec) -> Vec<SourceColumn> {
    let mut seen = BTreeSet::new();
    let mut origins = Vec::new();
    let mut push = |col: SourceColumn| {
        if seen.insert(col.clone()) {
            origins.push(col);
        }
    };
    for origin in &spec.origins {
        match origin {
            OriginSpec::Column(col) => push(col.clone()),
            OriginSpec::Table(name) => {
                if let Some(node) = graph.nodes.get(name) {
                    for column in &node.columns {
                        push(SourceColumn::new(name, column));
                    }
                }
            }
        }
    }
    origins
}

/// Column-granularity execution: BFS distances over the allowed edges,
/// then a kind-merge pass over every shortest-path predecessor — exactly
/// the algorithm of the paper's impact analysis, generalised to multiple
/// origins, both directions, depth limits, and filters.
fn run_columns(graph: &LineageGraph, spec: &QuerySpec) -> QueryAnswer {
    let origins = resolve_column_origins(graph, spec);
    let neighbors = |col: &SourceColumn| -> Vec<(SourceColumn, EdgeKind)> {
        match spec.direction {
            Direction::Downstream => direct_downstream(graph, col),
            Direction::Upstream => direct_upstream(graph, col),
        }
    };

    // Pass 1: BFS distances over allowed edges and nodes.
    let mut distance: BTreeMap<SourceColumn, usize> =
        origins.iter().cloned().map(|o| (o, 0)).collect();
    let mut queue: VecDeque<(SourceColumn, usize)> =
        origins.iter().cloned().map(|o| (o, 0)).collect();
    while let Some((current, dist)) = queue.pop_front() {
        if spec.max_depth.is_some_and(|limit| dist >= limit) {
            continue;
        }
        for (next, kind) in neighbors(&current) {
            if !spec.allows_edge(kind) || !spec.allows_node(graph, &next.table) {
                continue;
            }
            if !distance.contains_key(&next) {
                distance.insert(next.clone(), dist + 1);
                queue.push_back((next, dist + 1));
            }
        }
    }

    // Pass 2: merge the edge kinds of every shortest-path predecessor, so
    // a column reached at the same distance through both a contribution
    // and a reference reports `Both` (the paper's orange).
    let mut columns: Vec<ColumnMatch> = Vec::new();
    for (column, dist) in &distance {
        if *dist == 0 {
            continue;
        }
        let mut contributes = false;
        let mut references = false;
        let mut merge = |kind: Option<EdgeKind>| {
            let Some(kind) = kind else { return };
            if !spec.allows_edge(kind) {
                return;
            }
            contributes |= matches!(kind, EdgeKind::Contribute | EdgeKind::Both);
            references |= matches!(kind, EdgeKind::Reference | EdgeKind::Both);
        };
        match spec.direction {
            Direction::Downstream => {
                // Every predecessor feeds the same query, so the output's
                // `C_con` sets are looked up once, not per predecessor
                // (plural: same-named outputs merge, like `all_edges`).
                let Some(query) = graph.queries.get(&column.table) else { continue };
                let ccons: Vec<_> = query
                    .outputs
                    .iter()
                    .filter(|o| o.name == column.column)
                    .map(|o| &o.ccon)
                    .collect();
                for (pred, pred_dist) in &distance {
                    if pred_dist + 1 != *dist {
                        continue;
                    }
                    let c = ccons.iter().any(|ccon| ccon.contains(pred));
                    merge(pair_kind(c, query.cref.contains(pred)));
                }
            }
            Direction::Upstream => {
                for (pred, pred_dist) in &distance {
                    if pred_dist + 1 != *dist {
                        continue;
                    }
                    merge(edge_kind_between(graph, column, pred));
                }
            }
        }
        let kind = match (contributes, references) {
            (true, true) => EdgeKind::Both,
            (true, false) => EdgeKind::Contribute,
            _ => EdgeKind::Reference,
        };
        columns.push(ColumnMatch { column: column.clone(), kind, distance: *dist });
    }
    columns.sort_by(|a, b| (a.distance, &a.column).cmp(&(b.distance, &b.column)));

    let path = spec
        .target
        .as_ref()
        .and_then(|target| shortest_path(graph, spec, &origins, target, &neighbors));

    // Relations reached, with min distance over their columns.
    let mut relation_distance: BTreeMap<&str, usize> = BTreeMap::new();
    for (column, dist) in &distance {
        relation_distance
            .entry(column.table.as_str())
            .and_modify(|d| *d = (*d).min(*dist))
            .or_insert(*dist);
    }
    let mut relations: Vec<RelationMatch> = relation_distance
        .into_iter()
        .map(|(name, distance)| RelationMatch { name: name.to_string(), distance })
        .collect();
    relations.sort_by(|a, b| (a.distance, &a.name).cmp(&(b.distance, &b.name)));

    let subgraph = slice_subgraph(graph, spec, distance.keys());
    QueryAnswer { direction: spec.direction, origins, columns, relations, path, subgraph }
}

/// The reference walk's downstream neighbours of `column`: one entry per
/// distinct downstream column, with its merged edge kind (same-named
/// outputs of one query merge, like [`LineageGraph::all_edges`]). Scans
/// every query on every call.
fn direct_downstream(graph: &LineageGraph, column: &SourceColumn) -> Vec<(SourceColumn, EdgeKind)> {
    let mut out = Vec::new();
    for q in graph.queries.values() {
        let referenced = q.cref.contains(column);
        let mut contributes_by_name: BTreeMap<&str, bool> = BTreeMap::new();
        for o in &q.outputs {
            *contributes_by_name.entry(o.name.as_str()).or_insert(false) |= o.ccon.contains(column);
        }
        for (name, contributes) in contributes_by_name {
            if let Some(kind) = pair_kind(contributes, referenced) {
                out.push((SourceColumn::new(&q.id, name), kind));
            }
        }
    }
    out.sort();
    out
}

/// The reference walk's upstream neighbours of `column` (its
/// `C_con ∪ C_ref`), each with the kind of the edge it feeds `column`
/// through. Same-named outputs merge their `C_con` sets.
fn direct_upstream(graph: &LineageGraph, column: &SourceColumn) -> Vec<(SourceColumn, EdgeKind)> {
    let Some(q) = graph.queries.get(&column.table) else { return Vec::new() };
    let mut matched = false;
    let mut ccon: BTreeSet<&SourceColumn> = BTreeSet::new();
    for out in q.outputs.iter().filter(|o| o.name == column.column) {
        matched = true;
        ccon.extend(out.ccon.iter());
    }
    if !matched {
        return Vec::new();
    }
    let sources: BTreeSet<&SourceColumn> = ccon.iter().copied().chain(q.cref.iter()).collect();
    sources
        .into_iter()
        .filter_map(|src| {
            pair_kind(ccon.contains(src), q.cref.contains(src)).map(|kind| (src.clone(), kind))
        })
        .collect()
}

/// The merged kind of a (contributes, references) pair, if any edge
/// exists at all.
fn pair_kind(contributes: bool, references: bool) -> Option<EdgeKind> {
    match (contributes, references) {
        (true, true) => Some(EdgeKind::Both),
        (true, false) => Some(EdgeKind::Contribute),
        (false, true) => Some(EdgeKind::Reference),
        (false, false) => None,
    }
}

/// The merged kind of the direct edge `from -> to`, if one exists.
/// Same-named outputs merge their `C_con` sets, like `all_edges`.
fn edge_kind_between(
    graph: &LineageGraph,
    from: &SourceColumn,
    to: &SourceColumn,
) -> Option<EdgeKind> {
    let query = graph.queries.get(&to.table)?;
    let contributes =
        query.outputs.iter().filter(|o| o.name == to.column).any(|o| o.ccon.contains(from));
    pair_kind(contributes, query.cref.contains(from))
}

/// BFS shortest path from any origin to `target` over the allowed edges
/// (the reference walk's path search, from a set of origins).
fn shortest_path(
    graph: &LineageGraph,
    spec: &QuerySpec,
    origins: &[SourceColumn],
    target: &SourceColumn,
    neighbors: &dyn Fn(&SourceColumn) -> Vec<(SourceColumn, EdgeKind)>,
) -> Option<Vec<PathStep>> {
    let mut predecessor: BTreeMap<SourceColumn, (SourceColumn, EdgeKind)> = BTreeMap::new();
    let mut queue: VecDeque<(SourceColumn, usize)> =
        origins.iter().cloned().map(|o| (o, 0)).collect();
    let mut visited: BTreeSet<SourceColumn> = origins.iter().cloned().collect();
    while let Some((current, dist)) = queue.pop_front() {
        if &current == target {
            let mut path = Vec::new();
            let mut cursor = current;
            while let Some((prev, kind)) = predecessor.get(&cursor) {
                path.push(PathStep { column: cursor.clone(), kind: *kind });
                cursor = prev.clone();
            }
            path.reverse();
            return Some(path);
        }
        if spec.max_depth.is_some_and(|limit| dist >= limit) {
            continue;
        }
        for (next, kind) in neighbors(&current) {
            if !spec.allows_edge(kind) || !spec.allows_node(graph, &next.table) {
                continue;
            }
            if visited.insert(next.clone()) {
                predecessor.insert(next.clone(), (current.clone(), kind));
                queue.push_back((next, dist + 1));
            }
        }
    }
    None
}

/// Table-granularity execution: BFS over the relation-level edge set.
fn run_tables(graph: &LineageGraph, spec: &QuerySpec) -> QueryAnswer {
    // Adjacency from the table edge set, oriented by direction.
    let mut adjacency: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (from, to) in graph.table_edges() {
        match spec.direction {
            Direction::Downstream => adjacency.entry(from).or_default().insert(to),
            Direction::Upstream => adjacency.entry(to).or_default().insert(from),
        };
    }

    let mut seen = BTreeSet::new();
    let mut origins: Vec<String> = Vec::new();
    for origin in &spec.origins {
        let name = match origin {
            OriginSpec::Table(name) => name.clone(),
            OriginSpec::Column(col) => col.table.clone(),
        };
        if seen.insert(name.clone()) {
            origins.push(name);
        }
    }

    let mut distance: BTreeMap<String, usize> = origins.iter().cloned().map(|o| (o, 0)).collect();
    let mut queue: VecDeque<(String, usize)> = origins.iter().cloned().map(|o| (o, 0)).collect();
    while let Some((current, dist)) = queue.pop_front() {
        if spec.max_depth.is_some_and(|limit| dist >= limit) {
            continue;
        }
        for next in adjacency.get(&current).into_iter().flatten() {
            if !spec.allows_node(graph, next) {
                continue;
            }
            if !distance.contains_key(next) {
                distance.insert(next.clone(), dist + 1);
                queue.push_back((next.clone(), dist + 1));
            }
        }
    }

    let mut relations: Vec<RelationMatch> = distance
        .iter()
        .map(|(name, distance)| RelationMatch { name: name.clone(), distance: *distance })
        .collect();
    relations.sort_by(|a, b| (a.distance, &a.name).cmp(&(b.distance, &b.name)));

    // The cone at table granularity includes every column of the touched
    // relations.
    let touched: Vec<SourceColumn> = distance
        .keys()
        .filter_map(|name| graph.nodes.get(name))
        .flat_map(|node| node.columns.iter().map(|c| SourceColumn::new(&node.name, c)))
        .collect();
    let subgraph = slice_subgraph(graph, spec, touched.iter());
    QueryAnswer {
        direction: spec.direction,
        origins: origins.into_iter().map(|name| SourceColumn::new(name, "")).collect(),
        columns: Vec::new(),
        relations,
        path: None,
        subgraph,
    }
}

/// Cut the renderable slice: touched relations (column lists restricted
/// to touched columns, declared order preserved) plus every allowed-kind
/// edge between touched columns.
fn slice_subgraph<'a>(
    graph: &LineageGraph,
    spec: &QuerySpec,
    touched: impl Iterator<Item = &'a SourceColumn>,
) -> Subgraph {
    let mut by_table: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let touched: Vec<&SourceColumn> = touched.collect();
    for col in &touched {
        by_table.entry(col.table.as_str()).or_default().insert(col.column.as_str());
    }
    let mut nodes = BTreeMap::new();
    for (table, columns) in &by_table {
        let node = match graph.nodes.get(*table) {
            Some(node) => Node {
                name: node.name.clone(),
                kind: node.kind,
                columns: node
                    .columns
                    .iter()
                    .filter(|c| columns.contains(c.as_str()))
                    .cloned()
                    .collect(),
            },
            None => Node {
                name: (*table).to_string(),
                kind: NodeKind::External,
                columns: columns.iter().map(|c| (*c).to_string()).collect(),
            },
        };
        nodes.insert((*table).to_string(), node);
    }
    let in_slice = |col: &SourceColumn| {
        by_table.get(col.table.as_str()).is_some_and(|cols| cols.contains(col.column.as_str()))
    };
    // Enumerate edges from the touched queries' lineage records only —
    // the cost is proportional to the cone, never to the whole graph.
    // Merging mirrors `LineageGraph::all_edges` (contribute upgraded to
    // `Both` by a matching reference), restricted to in-slice endpoints.
    let mut merged: BTreeMap<(SourceColumn, SourceColumn), EdgeKind> = BTreeMap::new();
    for (table, columns) in &by_table {
        let Some(query) = graph.queries.get(*table) else { continue };
        for out in &query.outputs {
            if !columns.contains(out.name.as_str()) {
                continue;
            }
            let to = SourceColumn::new(&query.id, &out.name);
            for src in &out.ccon {
                if in_slice(src) {
                    merged.insert((src.clone(), to.clone()), EdgeKind::Contribute);
                }
            }
        }
        for src in &query.cref {
            if !in_slice(src) {
                continue;
            }
            for out in &query.outputs {
                if !columns.contains(out.name.as_str()) {
                    continue;
                }
                let to = SourceColumn::new(&query.id, &out.name);
                merged
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
    // The edge-kind filter is a column-granularity concept; table-level
    // cones keep every edge between their relations so a node never
    // renders disconnected from the traversal that reached it.
    let keep = |kind: EdgeKind| match spec.granularity {
        Granularity::Column => spec.allows_edge(kind),
        Granularity::Table => true,
    };
    let edges = merged
        .into_iter()
        .filter(|(_, kind)| keep(*kind))
        .map(|((from, to), kind)| Edge { from, to, kind })
        .collect();
    Subgraph { nodes, edges }
}

// ---------------------------------------------------------------------
// Indexed execution: the same two-pass BFS + kind-merge algorithms, run
// over `GraphIndex`'s dense ids and CSR adjacency. Ids are assigned in
// lexicographic name order and CSR rows are sorted by id, so visit
// orders — and therefore every tie-break the answers depend on — match
// the string walk exactly. A traversal ends in a `Cone` of ids; names
// are read from the index only when an answer or a reply is written.
// ---------------------------------------------------------------------

/// The id a free [`IdMap`] slot holds. No column or relation has it: an
/// index holds fewer than 2^32 of either.
const FREE: u32 = u32::MAX;

/// Per-query scratch: a map from dense ids to `u32`s that grows with
/// what it holds (open addressing, linear probing, at most half full),
/// so a traversal allocates in proportion to its cone, never to the
/// index.
#[derive(Debug, Clone)]
struct IdMap {
    slots: Vec<(u32, u32)>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl IdMap {
    fn new() -> IdMap {
        IdMap { slots: vec![(FREE, 0); 16], len: 0, shift: 60 }
    }

    fn home(&self, id: u32) -> usize {
        (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    fn get(&self, id: u32) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        loop {
            match self.slots[i] {
                (key, value) if key == id => return Some(value),
                (FREE, _) => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn contains(&self, id: u32) -> bool {
        self.get(id).is_some()
    }

    /// Map `id` to `value`, replacing what it held.
    fn insert(&mut self, id: u32, value: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![(FREE, 0); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            self.shift -= 1;
            self.len = 0;
            for (key, held) in old.into_iter().filter(|&(key, _)| key != FREE) {
                self.insert(key, held);
            }
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        while self.slots[i].0 != id && self.slots[i].0 != FREE {
            i = (i + 1) & mask;
        }
        self.len += usize::from(self.slots[i].0 == FREE);
        self.slots[i] = (id, value);
    }
}

/// One origin of a [`Cone`], in spec order.
#[derive(Debug, Clone, Copy)]
enum Origin {
    Column(ColumnId),
    /// A table-granularity origin.
    Relation(RelationId),
    /// `Cone::unknown[i]`.
    Unknown(usize),
}

/// One relation a [`Cone`] reached.
#[derive(Debug, Clone, Copy)]
enum Reached {
    Indexed(RelationId),
    /// The relation of `Cone::unknown[i]`, which the index does not hold.
    Unknown(usize),
}

/// The id-level result of one indexed traversal: the answer before any
/// name is copied. [`QuerySpec::run_with`] materialises a
/// [`QueryAnswer`] from it, and [`crate::ConeReport`] writes the
/// [`crate::QueryReport`] document from it, every name borrowed from the
/// index. Its scratch grows with the cone, never with the index.
#[derive(Debug, Clone)]
pub(crate) struct Cone<'a> {
    index: &'a GraphIndex,
    direction: Direction,
    /// The resolved origins, in spec order, once each.
    origins: Vec<Origin>,
    /// Origins the index does not hold, as given (with an empty column
    /// at table granularity). They reach nothing, and their relations
    /// are reported at distance 0.
    unknown: Vec<SourceColumn>,
    /// Columns reached at distance ≥ 1 with their merged edge kind,
    /// sorted by `(distance, column)`. Empty at table granularity.
    columns: Vec<(u32, ColumnId, EdgeKind)>,
    /// Every relation reached, the origins' included, with its least
    /// distance, sorted by `(distance, name)`.
    relations: Vec<(u32, Reached)>,
    /// The hops of the shortest path to the target, when one was set and
    /// reached.
    path: Option<Vec<(ColumnId, EdgeKind)>>,
    /// The slice's relations, in name order.
    nodes: Vec<Reached>,
    /// The slice's indexed columns.
    touched: IdMap,
    /// The slice's edges, sorted by `(from, to)`.
    edges: Vec<(ColumnId, ColumnId, EdgeKind)>,
}

impl<'a> Cone<'a> {
    /// The direction that was walked.
    pub(crate) fn direction(&self) -> Direction {
        self.direction
    }

    /// The origins as `(table, column)` names (`(relation, "")` at table
    /// granularity).
    pub(crate) fn origins(&self) -> impl Iterator<Item = (&str, &str)> {
        self.origins.iter().map(move |&origin| match origin {
            Origin::Column(id) => self.column(id),
            Origin::Relation(rel) => (self.index.relation_name(rel), ""),
            Origin::Unknown(i) => (self.unknown[i].table.as_str(), self.unknown[i].column.as_str()),
        })
    }

    /// Columns reached: name, merged kind, distance.
    pub(crate) fn columns(&self) -> impl Iterator<Item = ((&str, &str), EdgeKind, usize)> {
        self.columns.iter().map(move |&(d, id, kind)| (self.column(id), kind, d as usize))
    }

    /// Relations reached: name, least distance.
    pub(crate) fn relations(&self) -> impl Iterator<Item = (&str, usize)> {
        self.relations.iter().map(move |&(d, rel)| (self.relation(rel), d as usize))
    }

    /// The shortest path's hops: the column stepped onto, the kind of the
    /// edge into it.
    pub(crate) fn path(&self) -> Option<impl Iterator<Item = ((&str, &str), EdgeKind)>> {
        let hops = self.path.as_ref()?;
        Some(hops.iter().map(move |&(id, kind)| (self.column(id), kind)))
    }

    /// The slice's relations in name order, each with its node kind
    /// (`External` without a node) and the columns the cone touched.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (&str, NodeKind, NodeColumns<'_>)> {
        self.nodes.iter().map(move |&reached| {
            let name = self.relation(reached);
            let node = match reached {
                Reached::Indexed(rel) => self.index.relation_kind(rel).map(|kind| (rel, kind)),
                Reached::Unknown(_) => None,
            };
            match node {
                Some((rel, kind)) => {
                    let declared = self.index.declared_columns(rel).iter();
                    (name, kind, NodeColumns::Declared { cone: self, declared })
                }
                None => (name, NodeKind::External, self.loose_columns(reached)),
            }
        })
    }

    /// The slice's edges: from, to, merged kind.
    pub(crate) fn edges(&self) -> impl Iterator<Item = ((&str, &str), (&str, &str), EdgeKind)> {
        self.edges.iter().map(move |&(from, to, kind)| (self.column(from), self.column(to), kind))
    }

    /// The owned answer, every name copied out of the index.
    fn answer(&self) -> QueryAnswer {
        let owned = |(table, column): (&str, &str)| SourceColumn::new(table, column);
        QueryAnswer {
            direction: self.direction,
            origins: self.origins().map(owned).collect(),
            columns: self
                .columns()
                .map(|(column, kind, distance)| ColumnMatch {
                    column: owned(column),
                    kind,
                    distance,
                })
                .collect(),
            relations: self
                .relations()
                .map(|(name, distance)| RelationMatch { name: name.to_string(), distance })
                .collect(),
            path: self.path().map(|hops| {
                hops.map(|(column, kind)| PathStep { column: owned(column), kind }).collect()
            }),
            subgraph: Subgraph {
                nodes: self
                    .nodes()
                    .map(|(name, kind, columns)| {
                        let columns = columns.map(str::to_string).collect();
                        (name.to_string(), Node { name: name.to_string(), kind, columns })
                    })
                    .collect(),
                edges: self
                    .edges()
                    .map(|(from, to, kind)| Edge { from: owned(from), to: owned(to), kind })
                    .collect(),
            },
        }
    }

    fn column(&self, id: ColumnId) -> (&'a str, &'a str) {
        (self.index.relation_name(self.index.column_relation(id)), self.index.column_name(id))
    }

    fn relation(&self, reached: Reached) -> &str {
        relation_name(self.index, &self.unknown, reached)
    }

    /// The touched columns of a relation without a node, by name, once
    /// each: its indexed columns in the slice and the unknown origins
    /// naming it.
    fn loose_columns(&self, reached: Reached) -> NodeColumns<'_> {
        let table = self.relation(reached);
        let mut names: Vec<&str> = self
            .unknown
            .iter()
            .filter(|origin| origin.table == table)
            .map(|origin| origin.column.as_str())
            .collect();
        if let Reached::Indexed(rel) = reached {
            names.extend(
                self.index
                    .relation_columns(rel)
                    .filter(|c| self.touched.contains(c.index() as u32))
                    .map(|c| self.index.column_name(c)),
            );
        }
        names.sort_unstable();
        names.dedup();
        NodeColumns::Loose(names.into_iter())
    }
}

/// The columns of one slice relation ([`Cone::nodes`]), by name.
pub(crate) enum NodeColumns<'c> {
    /// A relation with a node: its declared columns the cone touched, in
    /// declared order (a same-named output repeats, as in the node).
    Declared { cone: &'c Cone<'c>, declared: std::slice::Iter<'c, ColumnId> },
    /// A relation without a node, sorted.
    Loose(std::vec::IntoIter<&'c str>),
}

impl<'c> Iterator for NodeColumns<'c> {
    type Item = &'c str;

    fn next(&mut self) -> Option<&'c str> {
        match self {
            NodeColumns::Declared { cone, declared } => declared
                .find(|c| cone.touched.contains(c.index() as u32))
                .map(|&c| cone.index.column_name(c)),
            NodeColumns::Loose(names) => names.next(),
        }
    }
}

fn relation_name<'n>(
    index: &'n GraphIndex,
    unknown: &'n [SourceColumn],
    reached: Reached,
) -> &'n str {
    match reached {
        Reached::Indexed(rel) => index.relation_name(rel),
        Reached::Unknown(i) => &unknown[i].table,
    }
}

/// Name order: relation ids compare as their names do, and no unknown
/// relation shares an indexed one's name, so only unknown relations
/// compare strings.
fn name_order(index: &GraphIndex, unknown: &[SourceColumn], a: Reached, b: Reached) -> Ordering {
    match (a, b) {
        (Reached::Indexed(a), Reached::Indexed(b)) => a.cmp(&b),
        _ => relation_name(index, unknown, a).cmp(relation_name(index, unknown, b)),
    }
}

/// Sort reached relations by `(distance, name)`.
fn sort_by_distance(
    index: &GraphIndex,
    unknown: &[SourceColumn],
    relations: &mut [(u32, Reached)],
) {
    relations.sort_unstable_by(|&(da, a), &(db, b)| {
        da.cmp(&db).then_with(|| name_order(index, unknown, a, b))
    });
}

/// Every kept edge between the `columns` of a slice (`touched` holds
/// them), enumerated off the reverse CSR and sorted by `(from, to)`.
fn slice_edges(
    index: &GraphIndex,
    columns: impl Iterator<Item = ColumnId>,
    touched: &IdMap,
    keep: impl Fn(EdgeKind) -> bool,
) -> Vec<(ColumnId, ColumnId, EdgeKind)> {
    let mut edges = Vec::new();
    for to in columns {
        for &(from, kind) in index.in_edges(to) {
            if keep(kind) && touched.contains(from) {
                edges.push((ColumnId::from_index(from as usize), to, kind));
            }
        }
    }
    edges.sort_unstable_by_key(|&(from, to, _)| (from, to));
    edges
}

/// One visit of the column walk: the column, its distance, and the visit
/// that first reached it with the kind of that edge (`FREE` for an
/// origin).
struct Visit {
    column: ColumnId,
    distance: u32,
    from: u32,
    kind: EdgeKind,
}

/// Column-granularity execution over the index.
fn column_cone<'a>(index: &'a GraphIndex, spec: &QuerySpec) -> Cone<'a> {
    let mut origins = Vec::new();
    let mut unknown: Vec<SourceColumn> = Vec::new();
    // The walk's visits in visit order (also its queue), and the visit
    // of each column it reached.
    let mut visits: Vec<Visit> = Vec::new();
    let mut visited = IdMap::new();
    let mut push_origin = |id: ColumnId, visits: &mut Vec<Visit>, origins: &mut Vec<Origin>| {
        if !visited.contains(id.index() as u32) {
            visited.insert(id.index() as u32, visits.len() as u32);
            visits.push(Visit { column: id, distance: 0, from: FREE, kind: EdgeKind::Contribute });
            origins.push(Origin::Column(id));
        }
    };
    for origin in &spec.origins {
        match origin {
            OriginSpec::Column(col) => match index.lookup_column(&col.table, &col.column) {
                Some(id) => push_origin(id, &mut visits, &mut origins),
                // An unknown origin is still reported, exactly like the
                // string walk keeps it in its distance map.
                None if !unknown.contains(col) => {
                    origins.push(Origin::Unknown(unknown.len()));
                    unknown.push(col.clone());
                }
                None => {}
            },
            // Whole-relation origins expand through the *node's* declared
            // column list (a relation without a node contributes
            // nothing), matching the string walk.
            OriginSpec::Table(name) => {
                if let Some(rel) = index.lookup_relation(name) {
                    for &id in index.declared_columns(rel) {
                        push_origin(id, &mut visits, &mut origins);
                    }
                }
            }
        }
    }

    // Pass 1: BFS distances over allowed edges and nodes.
    let mut next_visit = 0;
    while let Some(&Visit { column: current, distance, .. }) = visits.get(next_visit) {
        let from = next_visit as u32;
        next_visit += 1;
        if spec.max_depth.is_some_and(|limit| distance as usize >= limit) {
            continue;
        }
        let row = match spec.direction {
            Direction::Downstream => index.out_edges(current),
            Direction::Upstream => index.in_edges(current),
        };
        for &(next, kind) in row {
            if !spec.allows_edge(kind) || visited.contains(next) {
                continue;
            }
            let column = ColumnId::from_index(next as usize);
            if !spec.allows_node_id(index, index.column_relation(column)) {
                continue;
            }
            visited.insert(next, visits.len() as u32);
            visits.push(Visit { column, distance: distance + 1, from, kind });
        }
    }
    query_metrics().bfs_nodes.add(visits.len() as u64);

    // Pass 2: merge the edge kinds of every shortest-path predecessor.
    // Predecessors of a reached column are exactly its CSR neighbours in
    // the *opposite* direction sitting one hop closer to the origins.
    let mut columns = Vec::new();
    for visit in visits.iter().filter(|visit| visit.distance > 0) {
        let mut contributes = false;
        let mut references = false;
        let preds = match spec.direction {
            Direction::Downstream => index.in_edges(visit.column),
            Direction::Upstream => index.out_edges(visit.column),
        };
        for &(pred, kind) in preds {
            if !spec.allows_edge(kind) {
                continue;
            }
            if visited
                .get(pred)
                .is_some_and(|at| visits[at as usize].distance + 1 == visit.distance)
            {
                contributes |= matches!(kind, EdgeKind::Contribute | EdgeKind::Both);
                references |= matches!(kind, EdgeKind::Reference | EdgeKind::Both);
            }
        }
        let kind = match (contributes, references) {
            (true, true) => EdgeKind::Both,
            (true, false) => EdgeKind::Contribute,
            _ => EdgeKind::Reference,
        };
        columns.push((visit.distance, visit.column, kind));
    }
    columns.sort_unstable_by_key(|&(d, id, _)| (d, id));

    // The walk is the path search's BFS too (same order, same filters),
    // so the target's first visit chain is its shortest path. An
    // unindexed target is reachable only as a trivial path to an origin
    // naming the same column.
    let path = spec.target.as_ref().and_then(|target| {
        let Some(target_id) = index.lookup_column(&target.table, &target.column) else {
            return unknown.contains(target).then(Vec::new);
        };
        let mut at = visited.get(target_id.index() as u32)? as usize;
        let mut hops = Vec::new();
        while visits[at].distance > 0 {
            hops.push((visits[at].column, visits[at].kind));
            at = visits[at].from as usize;
        }
        hops.reverse();
        Some(hops)
    });

    // Relations reached, with their least distance: visits run in
    // distance order, so a relation's first visit is its least. Unknown
    // origins count as distance-0 members of their (possibly unknown)
    // relation.
    let mut relations: Vec<(u32, Reached)> = Vec::new();
    let mut relation_at = IdMap::new();
    for visit in &visits {
        let rel = index.column_relation(visit.column);
        if !relation_at.contains(rel.index() as u32) {
            relation_at.insert(rel.index() as u32, relations.len() as u32);
            relations.push((visit.distance, Reached::Indexed(rel)));
        }
    }
    for (i, origin) in unknown.iter().enumerate() {
        match index.lookup_relation(&origin.table) {
            Some(rel) => match relation_at.get(rel.index() as u32) {
                Some(at) => relations[at as usize].0 = 0,
                None => {
                    relation_at.insert(rel.index() as u32, relations.len() as u32);
                    relations.push((0, Reached::Indexed(rel)));
                }
            },
            None if !unknown[..i].iter().any(|other| other.table == origin.table) => {
                relations.push((0, Reached::Unknown(i)));
            }
            None => {}
        }
    }
    sort_by_distance(index, &unknown, &mut relations);

    // The slice: every reached relation, and every allowed-kind edge
    // between touched columns.
    let mut nodes: Vec<Reached> = relations.iter().map(|&(_, rel)| rel).collect();
    nodes.sort_unstable_by(|&a, &b| name_order(index, &unknown, a, b));
    let edges = slice_edges(index, visits.iter().map(|visit| visit.column), &visited, |kind| {
        spec.allows_edge(kind)
    });
    Cone {
        index,
        direction: spec.direction,
        origins,
        unknown,
        columns,
        relations,
        path,
        nodes,
        touched: visited,
        edges,
    }
}

/// Table-granularity execution over the index's relation-level CSR.
fn table_cone<'a>(index: &'a GraphIndex, spec: &QuerySpec) -> Cone<'a> {
    let mut origins = Vec::new();
    let mut unknown: Vec<SourceColumn> = Vec::new();
    let mut visits: Vec<(RelationId, u32)> = Vec::new();
    let mut visited = IdMap::new();
    for origin in &spec.origins {
        let name = match origin {
            OriginSpec::Table(name) => name,
            OriginSpec::Column(col) => &col.table,
        };
        match index.lookup_relation(name) {
            Some(rel) if !visited.contains(rel.index() as u32) => {
                visited.insert(rel.index() as u32, 0);
                visits.push((rel, 0));
                origins.push(Origin::Relation(rel));
            }
            Some(_) => {}
            None if !unknown.iter().any(|origin| &origin.table == name) => {
                origins.push(Origin::Unknown(unknown.len()));
                unknown.push(SourceColumn::new(name.as_str(), ""));
            }
            None => {}
        }
    }

    let mut next_visit = 0;
    while let Some(&(current, distance)) = visits.get(next_visit) {
        next_visit += 1;
        if spec.max_depth.is_some_and(|limit| distance as usize >= limit) {
            continue;
        }
        let row = match spec.direction {
            Direction::Downstream => index.table_out(current),
            Direction::Upstream => index.table_in(current),
        };
        for &(next, _) in row {
            let rel = RelationId::from_index(next as usize);
            if visited.contains(next) || !spec.allows_node_id(index, rel) {
                continue;
            }
            visited.insert(next, 0);
            visits.push((rel, distance + 1));
        }
    }
    query_metrics().bfs_nodes.add(visits.len() as u64);

    let mut relations: Vec<(u32, Reached)> = visits
        .iter()
        .map(|&(rel, distance)| (distance, Reached::Indexed(rel)))
        .chain((0..unknown.len()).map(|i| (0, Reached::Unknown(i))))
        .collect();
    sort_by_distance(index, &unknown, &mut relations);

    // The cone at table granularity includes every declared column of
    // the touched relations (relations without a node contribute none).
    // Same-named outputs repeat their ColumnId in the declared list, and
    // the slice must enumerate each column's edges exactly once. The
    // edge-kind filter is a column-granularity concept: table-level
    // cones keep every edge between their relations (see the
    // string-walk twin for the rationale).
    let mut touched = IdMap::new();
    let mut columns = Vec::new();
    let mut nodes = Vec::new();
    for &(rel, _) in &visits {
        let declared = index.declared_columns(rel);
        if !declared.is_empty() {
            nodes.push(rel);
        }
        for &col in declared {
            if !touched.contains(col.index() as u32) {
                touched.insert(col.index() as u32, 0);
                columns.push(col);
            }
        }
    }
    nodes.sort_unstable();
    let edges = slice_edges(index, columns.into_iter(), &touched, |_| true);
    Cone {
        index,
        direction: spec.direction,
        origins,
        unknown,
        columns: Vec::new(),
        relations,
        path: None,
        nodes: nodes.into_iter().map(Reached::Indexed).collect(),
        touched,
        edges,
    }
}

/// The fluent query builder returned by [`crate::LineageView::query`]:
/// accumulates a [`QuerySpec`], then settles the backing view and runs
/// the spec against its graph.
pub struct GraphQuery<'v, V: crate::view::LineageView> {
    view: &'v mut V,
    spec: QuerySpec,
}

impl<'v, V: crate::view::LineageView> GraphQuery<'v, V> {
    /// Start an empty query over a view.
    pub fn new(view: &'v mut V) -> Self {
        GraphQuery { view, spec: QuerySpec::new() }
    }

    /// Add an origin from a `table.column` spec (no dot = whole relation).
    pub fn from(mut self, spec: &str) -> Self {
        self.spec = self.spec.from(spec);
        self
    }

    /// Add one column origin.
    pub fn from_column(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.spec = self.spec.from_column(table, column);
        self
    }

    /// Add a whole-relation origin.
    pub fn from_table(mut self, name: impl Into<String>) -> Self {
        self.spec = self.spec.from_table(name);
        self
    }

    /// Walk downstream (the default).
    pub fn downstream(mut self) -> Self {
        self.spec = self.spec.downstream();
        self
    }

    /// Walk upstream.
    pub fn upstream(mut self) -> Self {
        self.spec = self.spec.upstream();
        self
    }

    /// Stop after `depth` hops.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.spec = self.spec.max_depth(depth);
        self
    }

    /// Only traverse edges of this kind (repeatable).
    pub fn edge_kind(mut self, kind: EdgeKind) -> Self {
        self.spec = self.spec.edge_kind(kind);
        self
    }

    /// Only traverse into relations of this node kind (repeatable).
    pub fn node_kind(mut self, kind: NodeKind) -> Self {
        self.spec = self.spec.node_kind(kind);
        self
    }

    /// Switch to table granularity.
    pub fn table_level(mut self) -> Self {
        self.spec = self.spec.table_level();
        self
    }

    /// Also compute the shortest path to this column.
    pub fn to(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.spec = self.spec.to(table, column);
        self
    }

    /// The accumulated spec.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Settle the view (refreshing an incremental backend if needed) and
    /// execute over its cached [`GraphIndex`].
    pub fn run(self) -> Result<QueryAnswer, crate::error::LineageError> {
        let index = self.view.settled_index()?;
        Ok(self.spec.run_with(&index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::lineagex;

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
    fn downstream_matches_cover_the_cone() {
        let answer = QuerySpec::new().from("base.a").run_on(&graph());
        let names: Vec<String> = answer.columns.iter().map(|m| m.column.to_string()).collect();
        assert_eq!(names, vec!["mid.b", "top.c"]);
        assert_eq!(answer.columns[0].distance, 1);
        assert_eq!(answer.columns[1].distance, 2);
        assert_eq!(answer.origins, vec![SourceColumn::new("base", "a")]);
    }

    #[test]
    fn depth_limit_cuts_the_cone() {
        let answer = QuerySpec::new().from("base.a").max_depth(1).run_on(&graph());
        let names: Vec<String> = answer.columns.iter().map(|m| m.column.to_string()).collect();
        assert_eq!(names, vec!["mid.b"]);
        // Depth 0 keeps only the origins.
        let answer = QuerySpec::new().from("base.a").max_depth(0).run_on(&graph());
        assert!(answer.columns.is_empty());
        assert_eq!(answer.relations.len(), 1);
    }

    #[test]
    fn edge_kind_filter_drops_reference_only_reaches() {
        // base.k only feeds mid through its WHERE clause.
        let answer =
            QuerySpec::new().from("base.k").edge_kind(EdgeKind::Contribute).run_on(&graph());
        assert!(answer.columns.is_empty());
        let answer =
            QuerySpec::new().from("base.k").edge_kind(EdgeKind::Reference).run_on(&graph());
        assert_eq!(answer.columns[0].column, SourceColumn::new("mid", "b"));
    }

    #[test]
    fn multi_origin_traversal_merges_distances() {
        let answer = QuerySpec::new().from("base.a").from("mid.b").run_on(&graph());
        // top.c is distance 1 from mid.b even though it is 2 from base.a.
        let top = answer.columns.iter().find(|m| m.column.table == "top").unwrap();
        assert_eq!(top.distance, 1);
        assert_eq!(answer.origins.len(), 2);
    }

    #[test]
    fn whole_table_origin_expands_to_all_columns() {
        let answer = QuerySpec::new().from("base").run_on(&graph());
        assert_eq!(
            answer.origins,
            vec![SourceColumn::new("base", "a"), SourceColumn::new("base", "k")]
        );
        assert!(answer.columns.iter().any(|m| m.column.table == "mid"));
    }

    #[test]
    fn upstream_walks_back_to_sources() {
        let answer = QuerySpec::new().from("top.c").upstream().run_on(&graph());
        let names: Vec<String> = answer.columns.iter().map(|m| m.column.to_string()).collect();
        assert_eq!(names, vec!["mid.b", "base.a", "base.k"]);
        let k = answer.columns.iter().find(|m| m.column.column == "k").unwrap();
        assert_eq!(k.kind, EdgeKind::Reference);
    }

    #[test]
    fn node_kind_filter_blocks_traversal() {
        // Refusing to enter View nodes stops the walk immediately.
        let answer =
            QuerySpec::new().from("base.a").node_kind(NodeKind::BaseTable).run_on(&graph());
        assert!(answer.columns.is_empty());
    }

    #[test]
    fn subgraph_is_a_renderable_cone() {
        let answer = QuerySpec::new().from("base.a").run_on(&graph());
        assert_eq!(answer.subgraph.nodes.keys().collect::<Vec<_>>(), vec!["base", "mid", "top"]);
        // base's untouched column k stays out of the slice.
        assert_eq!(answer.subgraph.nodes["base"].columns, vec!["a"]);
        assert_eq!(answer.edges().len(), 2);
        assert!(answer.edges().iter().all(|e| e.kind == EdgeKind::Contribute));
    }

    #[test]
    fn path_to_target_is_reported() {
        let answer = QuerySpec::new().from("base.a").to("top", "c").run_on(&graph());
        let path = answer.path.unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[1].column, SourceColumn::new("top", "c"));
        // Unreachable target: no path, cone still reported.
        let answer = QuerySpec::new().from("top.c").to("base", "a").run_on(&graph());
        assert!(answer.path.is_none());
    }

    #[test]
    fn table_level_explores_relations() {
        let answer = QuerySpec::new().from_table("base").table_level().run_on(&graph());
        let names: Vec<&str> = answer.relations.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["base", "mid", "top"]);
        assert_eq!(answer.relations[1].distance, 1);
        assert!(answer.columns.is_empty());
        // Depth 1 = one explore click.
        let answer =
            QuerySpec::new().from_table("base").table_level().max_depth(1).run_on(&graph());
        let names: Vec<&str> = answer.relations.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["base", "mid"]);
    }

    #[test]
    fn table_level_cone_keeps_edges_despite_edge_filter() {
        // Edge-kind filters are a column-granularity concept: a
        // table-level traversal ignores them both in the walk and in the
        // rendered cone, so no node ever shows up disconnected from the
        // traversal that reached it.
        let g = lineagex(
            "CREATE TABLE base (a int, k int);
             CREATE VIEW filtered AS SELECT a FROM base WHERE k > 0;",
        )
        .unwrap()
        .graph;
        let answer = QuerySpec::new()
            .from_table("base")
            .table_level()
            .edge_kind(EdgeKind::Contribute)
            .run_on(&g);
        let names: Vec<&str> = answer.relations.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["base", "filtered"]);
        // The reference edge (base.k -> filtered.a) survives in the cone.
        assert!(answer.edges().iter().any(|e| e.kind == EdgeKind::Reference));
    }

    #[test]
    fn subgraph_edges_match_full_graph_restriction() {
        // The targeted cone enumeration must agree with filtering the
        // whole graph's edge set down to the touched columns.
        let g = graph();
        let answer = QuerySpec::new().from("base").run_on(&g);
        let touched: std::collections::BTreeSet<&SourceColumn> =
            answer.origins.iter().chain(answer.columns.iter().map(|m| &m.column)).collect();
        let expected: Vec<Edge> = g
            .all_edges()
            .into_iter()
            .filter(|e| touched.contains(&e.from) && touched.contains(&e.to))
            .collect();
        assert_eq!(answer.subgraph.edges, expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn unknown_origin_yields_empty_answer() {
        let answer = QuerySpec::new().from("ghost.col").run_on(&graph());
        assert!(answer.columns.is_empty());
        assert_eq!(answer.origins, vec![SourceColumn::new("ghost", "col")]);
        let answer = QuerySpec::new().from("ghost_table").run_on(&graph());
        assert!(answer.origins.is_empty());
    }

    /// Every spec shape the builder can express, for the indexed-vs-
    /// string equivalence sweeps below.
    fn spec_zoo() -> Vec<QuerySpec> {
        vec![
            QuerySpec::new().from("base.a"),
            QuerySpec::new().from("base.a").max_depth(1),
            QuerySpec::new().from("base.a").max_depth(0),
            QuerySpec::new().from("base.k").edge_kind(EdgeKind::Contribute),
            QuerySpec::new().from("base.k").edge_kind(EdgeKind::Reference),
            QuerySpec::new().from("base.a").from("mid.b"),
            QuerySpec::new().from("base"),
            QuerySpec::new().from("top.c").upstream(),
            QuerySpec::new().from("base.a").node_kind(NodeKind::BaseTable),
            QuerySpec::new().from("base.a").to("top", "c"),
            QuerySpec::new().from("top.c").to("base", "a"),
            QuerySpec::new().from("base.a").to("base", "a"),
            QuerySpec::new().from_table("base").table_level(),
            QuerySpec::new().from_table("base").table_level().max_depth(1),
            QuerySpec::new().from_table("top").table_level().upstream(),
            QuerySpec::new().from("ghost.col"),
            QuerySpec::new().from("ghost.col").to("ghost", "col"),
            QuerySpec::new().from("base.ghost"),
            QuerySpec::new().from_table("ghost_table").table_level(),
            QuerySpec::new().from("mid.b").upstream().edge_kind(EdgeKind::Reference),
            QuerySpec::new().from("ghost.a").from("ghost.b").from("base.a").from("ghost.a"),
            QuerySpec::new().from("base.").from("ghost."),
            QuerySpec::new().from_table("ghost_table").from_table("base").table_level(),
        ]
    }

    #[test]
    fn indexed_execution_matches_the_string_walk() {
        let g = graph();
        let index = crate::graph::GraphIndex::build(&g);
        for (i, spec) in spec_zoo().into_iter().enumerate() {
            let legacy = spec.run_on_unindexed(&g);
            let indexed = spec.run_with(&index);
            assert_eq!(indexed, legacy, "spec #{i} diverged");
            assert_eq!(
                serde_json::to_string(&indexed).unwrap(),
                serde_json::to_string(&legacy).unwrap(),
                "spec #{i} serialisation diverged"
            );
            let reference = crate::QueryReport::from_answer(&legacy).with_context(&g, &[]);
            assert_eq!(
                serde_json::to_string(&crate::ConeReport::new(&spec, &index).with_context(
                    &g,
                    g.queries.values().filter(|q| q.partial).count(),
                    &[]
                ))
                .unwrap(),
                serde_json::to_string(&reference).unwrap(),
                "spec #{i} cone report diverged"
            );
        }
    }

    #[test]
    fn indexed_execution_matches_on_self_loops_and_writes() {
        // INSERT-into-self and multi-writer targets stress the table
        // level: self edges, '#'-suffixed ids, shared scan sources.
        let g = lineagex(
            "CREATE TABLE t (a int);
             CREATE TABLE s (b int);
             INSERT INTO t SELECT a + 1 FROM t;
             INSERT INTO t SELECT b FROM s WHERE b > 0;",
        )
        .unwrap()
        .graph;
        let index = crate::graph::GraphIndex::build(&g);
        for spec in [
            QuerySpec::new().from("t.a"),
            QuerySpec::new().from("t.a").upstream(),
            QuerySpec::new().from_table("t").table_level(),
            QuerySpec::new().from_table("t").table_level().upstream(),
            QuerySpec::new().from_table("s").table_level().max_depth(1),
        ] {
            assert_eq!(spec.run_with(&index), spec.run_on_unindexed(&g));
        }
    }

    #[test]
    fn indexed_execution_matches_on_duplicate_output_names() {
        // `SELECT a AS x, b AS x` writes one graph column `v.x` through
        // two projection slots. Both implementations treat the
        // duplicates as one column with merged C_con (the `all_edges`
        // semantics), in every direction and granularity.
        let g = lineagex(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a AS x, b AS x FROM t WHERE b > 0;",
        )
        .unwrap()
        .graph;
        assert_eq!(g.queries["v"].outputs.len(), 2, "the projection must keep both slots");
        let index = crate::graph::GraphIndex::build(&g);
        for spec in [
            QuerySpec::new().from("t.a"),
            QuerySpec::new().from("t.b"),
            QuerySpec::new().from("v.x").upstream(),
            QuerySpec::new().from("t.a").to("v", "x"),
            QuerySpec::new().from_table("t").table_level(),
            QuerySpec::new().from_table("v").table_level().upstream(),
        ] {
            let legacy = spec.run_on_unindexed(&g);
            let indexed = spec.run_with(&index);
            assert_eq!(indexed, legacy);
            // A table-level cone must list the duplicate-named edge once.
            let unique: BTreeSet<&Edge> = indexed.subgraph.edges.iter().collect();
            assert_eq!(unique.len(), indexed.subgraph.edges.len(), "no duplicate edges");
        }
        // The merged upstream sees *both* contributing sources.
        let up = QuerySpec::new().from("v.x").upstream().run_on(&g);
        assert!(up.reaches(&SourceColumn::new("t", "a")));
        assert!(up.reaches(&SourceColumn::new("t", "b")));
        let a = up.columns.iter().find(|m| m.column.column == "a").unwrap();
        assert_eq!(a.kind, EdgeKind::Contribute);
        let b = up.columns.iter().find(|m| m.column.column == "b").unwrap();
        assert_eq!(b.kind, EdgeKind::Both, "b contributes and is referenced by the WHERE");
    }

    #[test]
    fn id_map_agrees_with_a_btree_map() {
        // Clustered ids, like a cone's, mixed with far outliers and
        // repeats, through several growths.
        let mut map = IdMap::new();
        let mut reference = BTreeMap::new();
        for step in 0..5_000u32 {
            let id = if step % 7 == 0 {
                step.wrapping_mul(2_654_435_761) >> 3
            } else {
                40_000 + step % 1_300
            };
            map.insert(id, step);
            reference.insert(id, step);
            assert_eq!(map.get(id), Some(step));
        }
        for id in (0..60_000).chain(reference.keys().copied().collect::<Vec<_>>()) {
            assert_eq!(map.get(id), reference.get(&id).copied(), "id {id}");
        }
        assert_eq!(map.len, reference.len());
    }

    #[test]
    fn run_on_uses_the_indexed_path() {
        // `run_on` is now a build-and-run convenience over `run_with`:
        // same answer object either way.
        let g = graph();
        let index = crate::graph::GraphIndex::build(&g);
        let spec = QuerySpec::new().from("base.a").to("top", "c");
        assert_eq!(spec.run_on(&g), spec.run_with(&index));
    }
}
