//! The JSON lineage documents.
//!
//! Two wire formats live here:
//!
//! * [`JsonReport`] — **v1**, the paper's `output.json`: one object per
//!   query with its table lineage and the `C_con`/`C_ref`/`C_both`
//!   column sets. Kept byte-stable for existing consumers (the CLI's
//!   `--format json-v1`, the golden test).
//! * [`ReportV2`] — **v2** (`schema_version: 2`), the versioned document
//!   every front door serialises through: graph (relations + edges),
//!   per-query lineage *including diagnostics and partial flags*, run
//!   diagnostics, and stats, in one deterministic document. Because it
//!   carries no processing order and every collection is sorted, equal
//!   graphs produce byte-identical documents regardless of backend
//!   (batch or incremental) or parallelism. It borrows the graph and
//!   renders the document while it serialises.
//!
//! [`QueryReport`] is the schema-version-2 envelope for one
//! [`QueryAnswer`] (the `lineagex query`
//! subcommand's `--format json`). [`ConeReport`] writes the same
//! document from a traversal's id-level cone, borrowing every name from
//! the index: what `lineagex serve` answers a `query` with.

use crate::diagnostics::Diagnostic;
use crate::graph::{ColumnId, GraphIndex};
use crate::model::{
    edge_buffer, sorted_edges, EdgeKind, EdgeRef, GraphStats, LineageGraph, NodeKind, QueryKind,
    QueryLineage, SourceColumn,
};
use crate::query::{Cone, QueryAnswer, QuerySpec};
use serde::{Serialize, Serializer};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The wire schema version emitted by [`ReportV2`] and [`QueryReport`].
pub const SCHEMA_VERSION: u32 = 2;

/// The serialisable lineage document for a whole run (v1).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct JsonReport {
    /// Per-query lineage records keyed by query id.
    pub queries: BTreeMap<String, QueryRecord>,
    /// All relation nodes with their columns.
    pub tables: BTreeMap<String, TableRecord>,
    /// The processing order chosen by the auto-inference stack.
    pub processing_order: Vec<String>,
}

/// One query's lineage record (v1).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct QueryRecord {
    /// Source relations (table lineage `T`).
    pub tables: Vec<String>,
    /// Per-output-column contributing sources (`C_con`).
    pub columns: BTreeMap<String, Vec<String>>,
    /// Query-level referenced columns (`C_ref`).
    pub referenced: Vec<String>,
    /// Columns both contributed and referenced (`C_both`).
    pub both: Vec<String>,
}

/// One relation node.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct TableRecord {
    /// Node kind (`base_table`, `view`, ...).
    pub kind: String,
    /// Column names in order.
    pub columns: Vec<String>,
}

/// The kebab label of a node kind on the wire.
pub(crate) fn node_kind_label(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::BaseTable => "base_table",
        NodeKind::View => "view",
        NodeKind::Table => "table",
        NodeKind::QueryResult => "query",
        NodeKind::External => "external",
    }
}

/// The kebab label of an edge kind on the wire.
pub(crate) fn edge_kind_label(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::Contribute => "contribute",
        EdgeKind::Reference => "reference",
        EdgeKind::Both => "both",
    }
}

/// The label of a query kind on the wire (v2).
fn query_kind_label(kind: &QueryKind) -> &'static str {
    match kind {
        QueryKind::View { materialized: false } => "view",
        QueryKind::View { materialized: true } => "materialized_view",
        QueryKind::TableAs => "table_as",
        QueryKind::Insert => "insert",
        QueryKind::Update => "update",
        QueryKind::Select => "select",
    }
}

impl JsonReport {
    /// Build the v1 document from a lineage graph.
    pub fn from_graph(graph: &LineageGraph) -> Self {
        let mut queries = BTreeMap::new();
        for (id, q) in &graph.queries {
            let mut columns = BTreeMap::new();
            for out in &q.outputs {
                columns.insert(
                    out.name.clone(),
                    out.ccon.iter().map(SourceColumn::to_string).collect(),
                );
            }
            queries.insert(
                id.clone(),
                QueryRecord {
                    tables: q.tables.iter().cloned().collect(),
                    columns,
                    referenced: q.cref.iter().map(SourceColumn::to_string).collect(),
                    both: q.cboth().iter().map(SourceColumn::to_string).collect(),
                },
            );
        }
        let mut tables = BTreeMap::new();
        for (name, node) in &graph.nodes {
            tables.insert(
                name.clone(),
                TableRecord {
                    kind: node_kind_label(node.kind).to_string(),
                    columns: node.columns.clone(),
                },
            );
        }
        JsonReport { queries, tables, processing_order: graph.order.iter().cloned().collect() }
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }
}

/// The versioned lineage document (v2): the one wire format `core`,
/// `engine`, `cli`, `serve` and `viz` all serialise through.
///
/// The report borrows a settled graph and its run diagnostics, and
/// [`Serialize`] renders the document from them in one pass: relations,
/// per-query lineage (outputs in projection order, each query's
/// diagnostics and partial flag embedded), every column-level edge
/// sorted by `(from, to)`, the run diagnostics, and the graph's stats.
/// Nothing is copied before rendering. When the process may run on more
/// than one CPU, a second scoped thread sorts the first half of the
/// queries' edges (unless an index lists them) and computes the stats
/// (unless they were given) while the rendering thread writes the
/// relations and queries and then sorts the other half; on one CPU the
/// rendering thread does all of it. The bytes are the same either way.
#[derive(Debug, Clone)]
pub struct ReportV2<'a> {
    graph: &'a LineageGraph,
    diagnostics: Cow<'a, [Diagnostic]>,
    index: Option<&'a GraphIndex>,
    stats: Option<&'a GraphStats>,
    /// The stats a render computed, when none were given.
    computed_stats: OnceLock<GraphStats>,
}

impl<'a> ReportV2<'a> {
    /// The v2 document of a settled graph and its run diagnostics.
    pub fn from_graph(graph: &'a LineageGraph, run_diagnostics: &'a [Diagnostic]) -> Self {
        ReportV2::new(graph, Cow::Borrowed(run_diagnostics))
    }

    /// The report over run diagnostics that are borrowed or, for a view
    /// that can only hand out a copy, owned.
    pub(crate) fn new(graph: &'a LineageGraph, diagnostics: Cow<'a, [Diagnostic]>) -> Self {
        ReportV2 { graph, diagnostics, index: None, stats: None, computed_stats: OnceLock::new() }
    }

    /// Take the edges from `index`, which must be the traversal index of
    /// this report's graph: its forward rows already list the merged
    /// edges in `(from, to)` order, so rendering them skips the sort.
    pub fn with_index(mut self, index: &'a GraphIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Render `stats`, which must be the graph's
    /// [`LineageGraph::stats`], instead of computing them again.
    pub fn with_stats(mut self, stats: &'a GraphStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The document's stats: those given to [`ReportV2::with_stats`],
    /// else those a render of this report computed, else computed now.
    pub fn stats(&self) -> &GraphStats {
        match self.stats {
            Some(stats) => stats,
            None => self.computed_stats.get_or_init(|| self.graph.stats()),
        }
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Write the document; with `helper`, a second scoped thread sorts
    /// the first half of the queries' edges and computes the stats the
    /// report lacks, while this one writes the relations and queries and
    /// sorts the second half.
    fn render(&self, s: &mut Serializer<'_>, helper: bool) {
        let graph = self.graph;
        let sort_edges = self.index.is_none();
        let compute_stats = self.stats.is_none() && self.computed_stats.get().is_none();
        if !helper || !(sort_edges || compute_stats) {
            self.write_sections(s);
            self.write_edges(s, sort_edges.then(|| graph.edge_refs().into_iter()));
            self.write_end(s);
            return;
        }
        let lineages = || graph.queries.values().map(|q| &**q);
        let half = graph.queries.len() / 2;
        // Both edge buffers are allocated here, where the allocator holds
        // the memory the extraction run freed; the threads only fill them.
        let buffers = sort_edges
            .then(|| (edge_buffer(lineages().take(half)), edge_buffer(lineages().skip(half))));
        let (first, second) = buffers.map_or((None, None), |(a, b)| (Some(a), Some(b)));
        std::thread::scope(|scope| {
            let (send, sorted) = std::sync::mpsc::sync_channel(1);
            let helper = scope.spawn(move || {
                if let Some(buffer) = first {
                    let edges = sorted_edges(lineages().take(half), buffer);
                    send.send(edges).expect("the renderer waits for the edges");
                }
                compute_stats.then(|| graph.stats())
            });
            self.write_sections(s);
            let edges = second.map(|buffer| {
                let second = sorted_edges(lineages().skip(half), buffer);
                let first = sorted.recv().expect("the report helper sorts the edges");
                merge_sorted(first, second)
            });
            self.write_edges(s, edges);
            if let Some(stats) = helper.join().expect("report helper panicked") {
                let _ = self.computed_stats.set(stats);
            }
            self.write_end(s);
        });
    }

    /// The document's opening: its version, relations and queries.
    fn write_sections(&self, s: &mut Serializer<'_>) {
        s.begin_map();
        s.field("schema_version", &SCHEMA_VERSION);
        s.key("relations");
        s.begin_map();
        for (name, node) in &self.graph.nodes {
            s.key(name);
            s.begin_map();
            s.field("kind", node_kind_label(node.kind));
            s.field("columns", &node.columns);
            s.end_map();
        }
        s.end_map();
        s.key("queries");
        s.begin_map();
        for (id, q) in &self.graph.queries {
            s.key(id);
            write_query(s, q);
        }
        s.end_map();
    }

    /// The edges: `sorted`, or the index's rows.
    fn write_edges<'g>(
        &self,
        s: &mut Serializer<'_>,
        sorted: Option<impl Iterator<Item = EdgeRef<'g>>>,
    ) {
        s.key("edges");
        s.begin_seq();
        match (self.index, sorted) {
            (_, Some(edges)) => {
                for e in edges {
                    write_edge(s, e.from, e.to, e.kind);
                }
            }
            (Some(index), None) => {
                let name = |c: u32| {
                    let c = ColumnId::from_index(c as usize);
                    (index.relation_name(index.column_relation(c)), index.column_name(c))
                };
                for from in 0..index.column_count() as u32 {
                    for &(to, kind) in index.out_edges(ColumnId::from_index(from as usize)) {
                        write_edge(s, name(from), name(to), kind);
                    }
                }
            }
            (None, None) => unreachable!("a report without an index sorts its edges"),
        }
        s.end_seq();
    }

    /// The run diagnostics and the stats, closing the document.
    fn write_end(&self, s: &mut Serializer<'_>) {
        s.field("diagnostics", &*self.diagnostics);
        s.field("stats", self.stats());
        s.end_map();
    }
}

impl Serialize for ReportV2<'_> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        let _timer = crate::infer::batch_metrics().serialize_us.time();
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        self.render(s, cpus > 1);
    }
}

/// Two edge lists, each sorted by `(from, to)` and sharing no pair (see
/// [`sorted_edges`]), as one sorted sequence.
fn merge_sorted<'g>(
    first: Vec<EdgeRef<'g>>,
    second: Vec<EdgeRef<'g>>,
) -> impl Iterator<Item = EdgeRef<'g>> {
    let (mut first, mut second) = (first.into_iter().peekable(), second.into_iter().peekable());
    std::iter::from_fn(move || match (first.peek(), second.peek()) {
        (Some(a), Some(b)) if (b.from, b.to) < (a.from, a.to) => second.next(),
        (Some(_), _) => first.next(),
        (None, _) => second.next(),
    })
}

/// A `table.column` name on the wire, written without joining it first.
struct Dotted<'a>(&'a str, &'a str);

impl Serialize for Dotted<'_> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.str_parts(&[self.0, ".", self.1]);
    }
}

fn dotted(c: &SourceColumn) -> Dotted<'_> {
    Dotted(&c.table, &c.column)
}

/// One query's record: kind, scanned relations, outputs in projection
/// order with their `C_con` sources, `C_ref`, `C_both`, the partial flag
/// and the query's own diagnostics.
fn write_query(s: &mut Serializer<'_>, q: &QueryLineage) {
    s.begin_map();
    s.field("kind", query_kind_label(&q.kind));
    s.field("tables", &q.tables);
    s.key("outputs");
    s.begin_seq();
    for out in &q.outputs {
        s.element();
        s.begin_map();
        s.field("name", &out.name);
        s.key("sources");
        s.seq(out.ccon.iter().map(dotted));
        s.end_map();
    }
    s.end_seq();
    s.key("referenced");
    s.seq(q.cref.iter().map(dotted));
    s.key("both");
    s.seq(q.both_sources().map(dotted));
    s.field("partial", &q.partial);
    s.field("diagnostics", &q.diagnostics);
    s.end_map();
}

fn write_edge(s: &mut Serializer<'_>, from: (&str, &str), to: (&str, &str), kind: EdgeKind) {
    s.element();
    s.begin_map();
    s.field("from", &Dotted(from.0, from.1));
    s.field("to", &Dotted(to.0, to.1));
    s.field("kind", edge_kind_label(kind));
    s.end_map();
}

/// One column-level edge on the wire.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct EdgeRecord {
    /// `table.column` source.
    pub from: String,
    /// `table.column` target.
    pub to: String,
    /// `contribute` / `reference` / `both`.
    pub kind: String,
}

/// The schema-version-2 envelope for one graph-query answer — what
/// `lineagex query … --format json` emits.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct QueryReport {
    /// Always [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The direction that was walked (`downstream` / `upstream`).
    pub direction: String,
    /// Resolved origins as `table.column` strings (bare relation names
    /// at table granularity).
    pub origins: Vec<String>,
    /// Columns reached, sorted by `(distance, column)`.
    pub columns: Vec<QueryColumnRecord>,
    /// Relations reached (origins at distance 0), sorted by
    /// `(distance, name)`.
    pub relations: Vec<QueryRelationRecord>,
    /// The shortest path to the requested target, when one was set and
    /// reachable.
    pub path: Option<Vec<QueryPathRecord>>,
    /// Touched relations whose lineage is *partial* (lenient mode
    /// degraded part of it) — the answer should not be read as
    /// authoritative for these. Populated by
    /// [`QueryReport::with_context`].
    pub partial_relations: Vec<String>,
    /// Run-level diagnostics of the extraction the query ran over.
    /// Populated by [`QueryReport::with_context`].
    pub diagnostics: Vec<Diagnostic>,
    /// The renderable traversal cone.
    pub subgraph: SubgraphRecord,
}

/// One reached column on the wire.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct QueryColumnRecord {
    /// `table.column`.
    pub column: String,
    /// Merged edge kind into it.
    pub kind: String,
    /// Hops from the nearest origin.
    pub distance: usize,
}

/// One reached relation on the wire.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct QueryRelationRecord {
    /// Relation name.
    pub name: String,
    /// Hops from the nearest origin.
    pub distance: usize,
}

/// One path hop on the wire.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct QueryPathRecord {
    /// `table.column` stepped onto.
    pub column: String,
    /// Kind of the edge into it.
    pub kind: String,
}

/// The traversal cone on the wire.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct SubgraphRecord {
    /// Touched relations (column lists restricted to touched columns).
    pub relations: BTreeMap<String, TableRecord>,
    /// Edges between touched columns.
    pub edges: Vec<EdgeRecord>,
}

impl QueryReport {
    /// Build the wire envelope from a typed answer.
    pub fn from_answer(answer: &QueryAnswer) -> Self {
        let origins = answer
            .origins
            .iter()
            .map(|o| if o.column.is_empty() { o.table.clone() } else { o.to_string() })
            .collect();
        let columns = answer
            .columns
            .iter()
            .map(|m| QueryColumnRecord {
                column: m.column.to_string(),
                kind: edge_kind_label(m.kind).to_string(),
                distance: m.distance,
            })
            .collect();
        let relations = answer
            .relations
            .iter()
            .map(|r| QueryRelationRecord { name: r.name.clone(), distance: r.distance })
            .collect();
        let path = answer.path.as_ref().map(|steps| {
            steps
                .iter()
                .map(|s| QueryPathRecord {
                    column: s.column.to_string(),
                    kind: edge_kind_label(s.kind).to_string(),
                })
                .collect()
        });
        let subgraph = SubgraphRecord {
            relations: answer
                .subgraph
                .nodes
                .iter()
                .map(|(name, node)| {
                    (
                        name.clone(),
                        TableRecord {
                            kind: node_kind_label(node.kind).to_string(),
                            columns: node.columns.clone(),
                        },
                    )
                })
                .collect(),
            edges: answer
                .subgraph
                .edges
                .iter()
                .map(|e| EdgeRecord {
                    from: e.from.to_string(),
                    to: e.to.to_string(),
                    kind: edge_kind_label(e.kind).to_string(),
                })
                .collect(),
        };
        QueryReport {
            schema_version: SCHEMA_VERSION,
            direction: answer.direction.as_str().to_string(),
            origins,
            columns,
            relations,
            path,
            partial_relations: Vec::new(),
            diagnostics: Vec::new(),
            subgraph,
        }
    }

    /// Attach the extraction context: run-level diagnostics and the
    /// partial flags of the touched relations, so a lenient run's
    /// degraded lineage is never silently presented as authoritative.
    pub fn with_context(mut self, graph: &LineageGraph, run_diagnostics: &[Diagnostic]) -> Self {
        self.partial_relations = self
            .relations
            .iter()
            .filter(|r| graph.queries.get(&r.name).is_some_and(|q| q.partial))
            .map(|r| r.name.clone())
            .collect();
        self.diagnostics = run_diagnostics.to_vec();
        self
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }
}

/// The [`QueryReport`] document of one query, written straight from the
/// traversal's id-level cone: every name is borrowed from the
/// [`GraphIndex`] while the document serialises, and no
/// [`QueryAnswer`] or [`QueryReport`] is built. Its bytes equal
/// `QueryReport::from_answer(&spec.run_with(index))` with the same
/// context. This is how `lineagex serve` answers `query`.
#[derive(Debug, Clone)]
pub struct ConeReport<'a> {
    cone: Cone<'a>,
    graph: Option<&'a LineageGraph>,
    partial_queries: usize,
    diagnostics: &'a [Diagnostic],
}

impl<'a> ConeReport<'a> {
    /// Run `spec` over `index`, keeping the cone it reaches.
    pub fn new(spec: &QuerySpec, index: &'a GraphIndex) -> Self {
        ConeReport { cone: spec.cone(index), graph: None, partial_queries: 0, diagnostics: &[] }
    }

    /// Attach the extraction context, as [`QueryReport::with_context`]
    /// does: `graph` must be the graph `index` was built from, and
    /// `partial_queries` the number of its queries whose lineage is
    /// partial (a session engine publishes it as
    /// `EngineSnapshot::partial_queries`). At zero, `partial_relations`
    /// is written without looking any relation up.
    pub fn with_context(
        mut self,
        graph: &'a LineageGraph,
        partial_queries: usize,
        run_diagnostics: &'a [Diagnostic],
    ) -> Self {
        self.graph = Some(graph);
        self.partial_queries = partial_queries;
        self.diagnostics = run_diagnostics;
        self
    }
}

impl Serialize for ConeReport<'_> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        let cone = &self.cone;
        s.begin_map();
        s.field("schema_version", &SCHEMA_VERSION);
        s.field("direction", cone.direction().as_str());
        s.key("origins");
        s.begin_seq();
        for (table, column) in cone.origins() {
            s.element();
            if column.is_empty() {
                s.str(table);
            } else {
                Dotted(table, column).serialize(s);
            }
        }
        s.end_seq();
        s.key("columns");
        s.begin_seq();
        for ((table, column), kind, distance) in cone.columns() {
            s.element();
            s.begin_map();
            s.field("column", &Dotted(table, column));
            s.field("kind", edge_kind_label(kind));
            s.field("distance", &distance);
            s.end_map();
        }
        s.end_seq();
        s.key("relations");
        s.begin_seq();
        for (name, distance) in cone.relations() {
            s.element();
            s.begin_map();
            s.field("name", name);
            s.field("distance", &distance);
            s.end_map();
        }
        s.end_seq();
        s.key("path");
        match cone.path() {
            None => s.null(),
            Some(hops) => {
                s.begin_seq();
                for ((table, column), kind) in hops {
                    s.element();
                    s.begin_map();
                    s.field("column", &Dotted(table, column));
                    s.field("kind", edge_kind_label(kind));
                    s.end_map();
                }
                s.end_seq();
            }
        }
        s.key("partial_relations");
        s.begin_seq();
        if let Some(graph) = self.graph.filter(|_| self.partial_queries > 0) {
            for (name, _) in cone.relations() {
                if graph.queries.get(name).is_some_and(|q| q.partial) {
                    s.element();
                    s.str(name);
                }
            }
        }
        s.end_seq();
        s.field("diagnostics", self.diagnostics);
        s.key("subgraph");
        s.begin_map();
        s.key("relations");
        s.begin_map();
        for (name, kind, columns) in cone.nodes() {
            s.key(name);
            s.begin_map();
            s.field("kind", node_kind_label(kind));
            s.key("columns");
            s.seq(columns);
            s.end_map();
        }
        s.end_map();
        s.key("edges");
        s.begin_seq();
        for (from, to, kind) in cone.edges() {
            write_edge(s, from, to, kind);
        }
        s.end_seq();
        s.end_map();
        s.end_map();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::InferenceEngine;
    use crate::model::tests::reference_edges;
    use crate::options::ExtractOptions;
    use crate::preprocess::QueryDict;
    use crate::query::QuerySpec;
    use lineagex_catalog::Catalog;
    use lineagex_datasets::{generator::generate, GeneratorConfig};
    use proptest::prelude::*;

    fn graph() -> LineageGraph {
        let qd = QueryDict::from_sql(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a FROM t WHERE b > 0;",
        )
        .unwrap();
        InferenceEngine::new(qd, Catalog::new(), ExtractOptions::default()).run().unwrap().graph
    }

    #[test]
    fn report_structure() {
        let report = JsonReport::from_graph(&graph());
        let v = &report.queries["v"];
        assert_eq!(v.tables, vec!["t"]);
        assert_eq!(v.columns["a"], vec!["t.a"]);
        assert_eq!(v.referenced, vec!["t.b"]);
        assert!(v.both.is_empty());
        assert_eq!(report.tables["t"].kind, "base_table");
        assert_eq!(report.tables["v"].kind, "view");
        assert_eq!(report.processing_order, vec!["v"]);
    }

    #[test]
    fn serialises_to_json() {
        let report = JsonReport::from_graph(&graph());
        let json = report.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["queries"]["v"]["tables"][0], "t");
        assert_eq!(parsed["queries"]["v"]["columns"]["a"][0], "t.a");
    }

    #[test]
    fn both_set_appears() {
        let qd = QueryDict::from_sql(
            "CREATE TABLE t (a int);
             CREATE VIEW v AS SELECT a FROM t WHERE a > 0;",
        )
        .unwrap();
        let graph = InferenceEngine::new(qd, Catalog::new(), ExtractOptions::default())
            .run()
            .unwrap()
            .graph;
        let report = JsonReport::from_graph(&graph);
        assert_eq!(report.queries["v"].both, vec!["t.a"]);
    }

    #[test]
    fn report_v2_structure() {
        let g = graph();
        let json = ReportV2::from_graph(&g, &[]).to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["schema_version"], 2);
        assert_eq!(parsed["relations"]["t"]["kind"], "base_table");
        let v = &parsed["queries"]["v"];
        assert_eq!(v["kind"], "view");
        assert_eq!(v["outputs"][0]["name"], "a");
        assert_eq!(v["outputs"][0]["sources"][0], "t.a");
        assert_eq!(v["referenced"][0], "t.b");
        assert_eq!(v["partial"], false);
        assert_eq!(parsed["edges"].as_array().unwrap().len(), 2);
        assert_eq!(parsed["stats"]["queries"], 1);
        assert_eq!(parsed["stats"]["relations"], 2);
    }

    #[test]
    fn report_v2_is_deterministic_and_orderless() {
        // Same graph value, different processing order: identical bytes.
        let mut g1 = graph();
        let mut g2 = graph();
        g1.order = vec!["v".into()].into();
        g2.order = vec!["v".into(), "v".into()].into();
        assert_eq!(
            ReportV2::from_graph(&g1, &[]).to_json(),
            ReportV2::from_graph(&g2, &[]).to_json()
        );
    }

    /// The owned v2 builder the borrowed renderer replaced, kept as its
    /// oracle: every string copied into a derived-`Serialize` document,
    /// edges from the map-keyed edge merge.
    fn reference_report(graph: &LineageGraph, run_diagnostics: &[Diagnostic]) -> ReferenceReport {
        let mut relations = BTreeMap::new();
        for (name, node) in &graph.nodes {
            relations.insert(
                name.clone(),
                TableRecord {
                    kind: node_kind_label(node.kind).to_string(),
                    columns: node.columns.clone(),
                },
            );
        }
        let mut queries = BTreeMap::new();
        for (id, q) in &graph.queries {
            queries.insert(
                id.clone(),
                ReferenceQuery {
                    kind: query_kind_label(&q.kind).to_string(),
                    tables: q.tables.iter().cloned().collect(),
                    outputs: q
                        .outputs
                        .iter()
                        .map(|out| ReferenceOutput {
                            name: out.name.clone(),
                            sources: out.ccon.iter().map(SourceColumn::to_string).collect(),
                        })
                        .collect(),
                    referenced: q.cref.iter().map(SourceColumn::to_string).collect(),
                    both: q.cboth().iter().map(SourceColumn::to_string).collect(),
                    partial: q.partial,
                    diagnostics: q.diagnostics.clone(),
                },
            );
        }
        let edges = reference_edges(graph)
            .into_iter()
            .map(|e| EdgeRecord {
                from: e.from.to_string(),
                to: e.to.to_string(),
                kind: edge_kind_label(e.kind).to_string(),
            })
            .collect();
        ReferenceReport {
            schema_version: SCHEMA_VERSION,
            relations,
            queries,
            edges,
            diagnostics: run_diagnostics.to_vec(),
            stats: graph.stats(),
        }
    }

    #[derive(Serialize)]
    struct ReferenceReport {
        schema_version: u32,
        relations: BTreeMap<String, TableRecord>,
        queries: BTreeMap<String, ReferenceQuery>,
        edges: Vec<EdgeRecord>,
        diagnostics: Vec<Diagnostic>,
        stats: GraphStats,
    }

    #[derive(Serialize)]
    struct ReferenceQuery {
        kind: String,
        tables: Vec<String>,
        outputs: Vec<ReferenceOutput>,
        referenced: Vec<String>,
        both: Vec<String>,
        partial: bool,
        diagnostics: Vec<Diagnostic>,
    }

    #[derive(Serialize)]
    struct ReferenceOutput {
        name: String,
        sources: Vec<String>,
    }

    /// Statements the generator never writes, each picked by one bit:
    /// same-named outputs, a self-join, repeated `INSERT`/`UPDATE`
    /// writers of one table (the `sink#2` ids), an external read, and,
    /// in lenient mode, an unresolvable column (a partial record), a
    /// noise statement and a parse error (run diagnostics).
    const EXTRAS: [&str; 8] = [
        "CREATE VIEW dup_out AS SELECT a AS x, b AS x, c FROM ext_base WHERE c > 0;",
        "CREATE VIEW self_join AS SELECT l.a, r.b FROM ext_base l JOIN ext_base r ON l.a = r.b;",
        "INSERT INTO sink SELECT a, b FROM ext_base; INSERT INTO sink SELECT c, a FROM ext_base;",
        "UPDATE sink SET y = e.b FROM ext_base e WHERE sink.x = e.a;",
        "CREATE VIEW ext_reader AS SELECT k.id, k.val FROM outside k WHERE k.id > 1;",
        "CREATE VIEW partial_v AS SELECT ghost FROM ext_base;",
        "SET search_path = lineage;",
        "CREATE VIEW broken AS SELEC;",
    ];

    /// The extras reach the graph as intended, so the proptest below
    /// covers each case.
    #[test]
    fn extras_cover_the_shapes_the_generator_never_writes() {
        let sql = format!(
            "CREATE TABLE ext_base (a int, b int, c int); CREATE TABLE sink (x int, y int);\n{}",
            EXTRAS.join("\n")
        );
        let result = crate::LineageX::new().lenient().run(&sql).unwrap();
        let g = &result.graph;
        let dup = &g.queries["dup_out"];
        assert_eq!(dup.output_names(), vec!["x", "x", "c"]);
        assert!(g.queries["self_join"].tables.contains("ext_base"));
        assert!(g.queries.contains_key("sink#2") && g.queries.contains_key("sink#3"));
        assert_eq!(g.nodes["outside"].kind, NodeKind::External);
        assert!(g.queries["partial_v"].partial);
        assert!(result.diagnostics.len() >= 2, "{:?}", result.diagnostics);
        let json = ReportV2::from_graph(g, &result.diagnostics).to_json();
        assert_eq!(
            json,
            serde_json::to_string_pretty(&reference_report(g, &result.diagnostics)).unwrap()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The borrowed renderer writes the owned builder's bytes, pretty
        /// and compact, with edges from the sort-merge and from a
        /// traversal index, on generated logs mixed with the extras.
        #[test]
        fn borrowed_report_matches_the_owned_builder(
            seed in 0u64..10_000,
            shuffled in any::<bool>(),
            extras in 0u8..=255,
            lenient in any::<bool>(),
        ) {
            let workload = generate(&GeneratorConfig {
                views: 20,
                shuffle_statements: shuffled,
                ..GeneratorConfig::seeded(seed)
            });
            let mut sql = workload.full_sql();
            sql.push_str("\nCREATE TABLE ext_base (a int, b int, c int);");
            sql.push_str("\nCREATE TABLE sink (x int, y int);");
            // Strict mode rejects the last three extras outright.
            let usable = if lenient { EXTRAS.len() } else { 5 };
            for (bit, extra) in EXTRAS.iter().enumerate().take(usable) {
                if extras & (1 << bit) != 0 {
                    sql.push('\n');
                    sql.push_str(extra);
                }
            }
            let extractor = if lenient { crate::LineageX::new().lenient() } else { crate::LineageX::new() };
            let result = extractor.run(&sql).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let (graph, diagnostics) = (&result.graph, &result.diagnostics);
            let reference = reference_report(graph, diagnostics);
            let index = GraphIndex::build(graph);
            for report in [
                ReportV2::from_graph(graph, diagnostics),
                ReportV2::from_graph(graph, diagnostics).with_index(&index),
            ] {
                prop_assert_eq!(report.to_json(), serde_json::to_string_pretty(&reference).unwrap());
                prop_assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    serde_json::to_string(&reference).unwrap()
                );
            }
            let stats = graph.stats();
            prop_assert_eq!(
                ReportV2::from_graph(graph, diagnostics).with_stats(&stats).to_json(),
                serde_json::to_string_pretty(&reference).unwrap()
            );
        }
    }

    /// A report rendered with (`true`) or without the helper thread.
    struct Rendered<'r, 'a>(&'r ReportV2<'a>, bool);

    impl Serialize for Rendered<'_, '_> {
        fn serialize(&self, s: &mut Serializer<'_>) {
            self.0.render(s, self.1);
        }
    }

    #[test]
    fn the_helper_thread_writes_the_one_thread_bytes() {
        use lineagex_sqlparse::DialectKind;
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let read = |path: String| std::fs::read_to_string(path).unwrap();
        let mut logs = vec![(read(format!("{corpus}/messy_log.sql")), DialectKind::Ansi)];
        for dialect in DialectKind::ALL {
            logs.push((read(format!("{corpus}/dialects/{}.sql", dialect.name())), dialect));
        }
        let generated = generate(&GeneratorConfig {
            views: 2_000,
            shuffle_statements: true,
            ..GeneratorConfig::seeded(5)
        });
        logs.push((generated.full_sql(), DialectKind::Ansi));
        for (sql, dialect) in &logs {
            for lenient in [false, true] {
                let extractor = crate::LineageX::new().dialect(*dialect);
                let extractor = if lenient { extractor.lenient() } else { extractor };
                // The strict messy log does not extract.
                let Ok(result) = extractor.run(sql) else { continue };
                let (graph, diagnostics) = (&result.graph, &result.diagnostics);
                let (index, stats) = (GraphIndex::build(graph), graph.stats());
                for (with_index, with_stats) in [(false, false), (false, true), (true, false)] {
                    let report = || {
                        let report = ReportV2::from_graph(graph, diagnostics);
                        let report = if with_index { report.with_index(&index) } else { report };
                        if with_stats {
                            report.with_stats(&stats)
                        } else {
                            report
                        }
                    };
                    let (one, two) = (report(), report());
                    let (one, two) = (Rendered(&one, false), Rendered(&two, true));
                    let case = format!("{dialect:?} lenient {lenient} index {with_index}");
                    assert_eq!(
                        serde_json::to_string_pretty(&one).unwrap(),
                        serde_json::to_string_pretty(&two).unwrap(),
                        "{case}"
                    );
                    let (one, two) = (report(), report());
                    let (one, two) = (Rendered(&one, false), Rendered(&two, true));
                    assert_eq!(
                        serde_json::to_string(&one).unwrap(),
                        serde_json::to_string(&two).unwrap(),
                        "{case}"
                    );
                }
            }
        }
    }

    /// A writer that keeps the bytes it takes and counts its calls; with
    /// `fail_after`, a call that would take it past that many bytes fails.
    #[derive(Default)]
    struct Recording {
        bytes: Vec<u8>,
        writes: usize,
        fail_after: Option<usize>,
    }

    impl std::io::Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.fail_after.is_some_and(|limit| self.bytes.len() + buf.len() > limit) {
                return Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "disk full"));
            }
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_report_written_to_a_writer_has_the_rendered_bytes() {
        let generated = generate(&GeneratorConfig {
            views: 3_000,
            shuffle_statements: true,
            ..GeneratorConfig::seeded(7)
        });
        let result = crate::LineageX::new().run(&generated.full_sql()).unwrap();
        let (graph, diagnostics) = (&result.graph, &result.diagnostics);
        let index = GraphIndex::build(graph);
        for with_index in [false, true] {
            let report = || {
                let report = ReportV2::from_graph(graph, diagnostics);
                if with_index {
                    report.with_index(&index)
                } else {
                    report
                }
            };
            let pretty = report().to_json();
            let mut written = Recording::default();
            serde_json::to_writer_pretty(&mut written, &report()).unwrap();
            // 1 MiB at a time, and then the rest.
            assert!(written.writes >= 3, "{} writes of {} bytes", written.writes, pretty.len());
            assert!(written.bytes == pretty.as_bytes(), "index {with_index}");
            let compact = serde_json::to_string(&report()).unwrap();
            let mut written = Recording::default();
            serde_json::to_writer(&mut written, &report()).unwrap();
            assert!(written.writes >= 2, "{} writes of {} bytes", written.writes, compact.len());
            assert!(written.bytes == compact.as_bytes(), "index {with_index}");
            // A writer that fails part way is an error, not a panic, and
            // takes nothing after its first failure.
            for limit in [0, 1, 1 << 20, pretty.len() - 1] {
                let mut failing = Recording { fail_after: Some(limit), ..Recording::default() };
                let error = serde_json::to_writer_pretty(&mut failing, &report()).unwrap_err();
                assert_eq!(error.to_string(), "disk full");
                assert!(
                    failing.bytes.len() <= limit && pretty.as_bytes().starts_with(&failing.bytes)
                );
            }
        }
    }

    #[test]
    fn a_rendered_report_keeps_the_stats_it_computed() {
        let g = graph();
        let report = ReportV2::from_graph(&g, &[]);
        let json = report.to_json();
        assert_eq!(report.stats(), &g.stats());
        assert!(json.contains("\"max_pipeline_depth\": 1"), "{json}");
    }

    #[test]
    fn query_report_envelope() {
        let g = graph();
        let answer = QuerySpec::new().from("t.a").downstream().run_on(&g);
        let report = QueryReport::from_answer(&answer);
        assert_eq!(report.schema_version, 2);
        assert_eq!(report.direction, "downstream");
        assert_eq!(report.origins, vec!["t.a"]);
        assert_eq!(report.columns[0].column, "v.a");
        assert_eq!(report.columns[0].kind, "contribute");
        assert_eq!(report.relations[0].name, "t");
        assert!(report.path.is_none());
        assert_eq!(report.subgraph.relations["t"].columns, vec!["a"]);
        let parsed: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(parsed["schema_version"], 2);
        assert_eq!(parsed["columns"][0]["distance"], 1);
    }
}
