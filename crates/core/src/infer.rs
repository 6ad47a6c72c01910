//! Table/View Auto-Inference (paper §III).
//!
//! Queries are processed in log order, but a query that scans a relation
//! defined by a *later* (or otherwise unprocessed) Query-Dictionary entry
//! cannot be resolved yet: its `SELECT *` cannot be expanded and its
//! prefix-less columns cannot be attributed. The paper's answer is a LIFO
//! deferral stack: the current traversal is pushed, the missing dependency
//! is processed first, then the deferred query is popped and resumed.
//!
//! [`run_deferral_stack`] implements exactly that protocol, with cycle
//! detection on top, for every extraction in the workspace:
//! [`InferenceEngine::run`] runs it over each connected component of the
//! log and merges the components into the one-stack result (the deferral
//! log is exposed for inspection), the session engine over each dirty
//! component, and connected mode over the log it binds. The result is
//! order-independent: shuffling the input statements never changes the
//! extracted lineage, which the property tests assert.

use crate::diagnostics::{Diagnostic, DiagnosticCode};
use crate::error::LineageError;
use crate::extract::{rename_outputs, Extractor};
use crate::model::{LineageGraph, Node, NodeKind, OutputColumn, QueryKind, QueryLineage};
use crate::options::ExtractOptions;
use crate::preprocess::{QueryDict, QueryEntry};
use crate::schedule::{ComponentRun, Extracted};
use crate::shared::{SharedMap, SortedSet};
use crate::trace::TraceLog;
use lineagex_catalog::Catalog;
use lineagex_obs::Histogram;
use lineagex_sqlparse::ast::Ident;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

/// The outcome of a full extraction run.
#[derive(Debug, Clone, Default)]
pub struct LineageResult {
    /// The combined lineage graph.
    pub graph: LineageGraph,
    /// Per-query traversal traces (only when tracing was enabled).
    pub traces: BTreeMap<String, TraceLog>,
    /// The deferral log: `(deferred query, missing dependency)` pairs in
    /// the order the stack mechanism fired.
    pub deferrals: Vec<(String, String)>,
    /// Usage-inferred schemas of external tables.
    pub inferred: BTreeMap<String, BTreeSet<String>>,
    /// What each query's extraction added to `inferred`, when it added
    /// something; a session retracts them with their query.
    pub inferred_by_query: BTreeMap<String, InferredSchemas>,
    /// Run-level diagnostics: skipped statements, noise, and — in lenient
    /// mode — parse errors and duplicate ids. Per-query findings live on
    /// each [`QueryLineage::diagnostics`].
    pub diagnostics: Vec<Diagnostic>,
    /// Build-once cache for the interned traversal index
    /// ([`crate::graph::GraphIndex`]); populated lazily by the first
    /// query through [`crate::LineageView`]. Call
    /// [`crate::graph::GraphIndexCache::invalidate`] after mutating
    /// [`LineageResult::graph`] in place.
    pub index: crate::graph::GraphIndexCache,
}

/// Drives extraction over a whole Query Dictionary.
///
/// The catalog is held as a [`Cow`]: borrow it with
/// [`InferenceEngine::over`] and a query-only log (no in-log DDL) runs
/// without ever deep-copying the caller's — possibly very large —
/// catalog. Only a log that actually carries `CREATE TABLE` statements
/// pays a clone, when the DDL schemas are merged in.
///
/// [`InferenceEngine::run`] splits the dictionary into the connected
/// components whose stacks share nothing ([`crate::schedule::components`])
/// and runs them on up to [`InferenceEngine::jobs`] threads; the merged
/// result is the one-stack result, whatever the setting.
pub struct InferenceEngine<'a> {
    qd: QueryDict,
    catalog: Cow<'a, Catalog>,
    options: ExtractOptions,
    jobs: usize,
}

impl InferenceEngine<'static> {
    /// Create an engine that owns its catalog. Schemas found as DDL in
    /// the log are merged into the catalog.
    pub fn new(qd: QueryDict, user_catalog: Catalog, options: ExtractOptions) -> Self {
        InferenceEngine::build(qd, Cow::Owned(user_catalog), options)
    }
}

impl<'a> InferenceEngine<'a> {
    /// Create an engine *borrowing* the user catalog: repeated runs over
    /// the same catalog (the [`crate::LineageX`] façade's pattern) pay no
    /// deep copy. The catalog is cloned lazily, and only when the log
    /// itself defines schemas that must be merged in.
    pub fn over(qd: QueryDict, user_catalog: &'a Catalog, options: ExtractOptions) -> Self {
        InferenceEngine::build(qd, Cow::Borrowed(user_catalog), options)
    }

    fn build(qd: QueryDict, catalog: Cow<'a, Catalog>, options: ExtractOptions) -> Self {
        let catalog = merge_log_ddl(&qd, catalog);
        let jobs = std::thread::available_parallelism().map_or(1, usize::from);
        InferenceEngine { qd, catalog, options, jobs }
    }

    /// Extract on up to `jobs` threads (default: the available
    /// parallelism). At `0`/`1` one stack runs over the whole log on the
    /// calling thread; above, the log's components run on a scoped pool.
    /// Every setting gives the same result.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Process every entry on the deferral stack ([`run_deferral_stack`]),
    /// each connected component on its own stack rooted in log order, and
    /// assemble the graph. The components' extractions and deferrals are
    /// merged by the log position of the root whose stack made them,
    /// which gives one stack's processing order, deferral log, traces,
    /// inferred schemas and first strict error.
    pub fn run(self) -> Result<LineageResult, LineageError> {
        let metrics = batch_metrics();
        let _timer = metrics.infer_us.time();
        let InferenceEngine { mut qd, catalog, options, jobs } = self;
        let diagnostics = std::mem::take(&mut qd.diagnostics);
        let entries = qd.into_entries();
        let qd_ids: BTreeSet<String> = entries.iter().map(|e| e.id.clone()).collect();
        let catalog = catalog.as_ref();
        let comps = if jobs > 1 {
            let ids: Vec<&str> = entries.iter().map(|e| e.id.as_str()).collect();
            let mut comps = crate::schedule::components(
                &ids,
                |i, visit| crate::deps::for_each_relation(entries[i].query(), visit),
                |_| false,
                catalog,
            );
            // The largest first, for the calling thread; the merge below
            // restores log order.
            comps.sort_by_key(|members| std::cmp::Reverse(members.len()));
            comps
        } else {
            vec![(0..entries.len()).collect()]
        };
        metrics.components.record(comps.len() as u64);
        // Each component owns its members' entries, with their log
        // positions, so the worker that extracts them also frees them.
        let mut component_of = vec![0; entries.len()];
        for (c, members) in comps.iter().enumerate() {
            members.iter().for_each(|&i| component_of[i] = c);
        }
        let mut owned: Vec<Vec<(u64, QueryEntry)>> =
            comps.iter().map(|members| Vec::with_capacity(members.len())).collect();
        let count = entries.len();
        for (i, entry) in entries.into_iter().enumerate() {
            owned[component_of[i]].push((i as u64, entry));
        }
        let owned: Vec<Mutex<Vec<(u64, QueryEntry)>>> = owned.into_iter().map(Mutex::new).collect();
        let runs = crate::schedule::run_tasks(owned.len(), jobs, |c| {
            let members = std::mem::take(&mut *owned[c].lock().expect("each task takes its own"));
            let members_iter = members.iter().map(|(pos, entry)| (*pos, entry));
            let mut run = ComponentRun::new(
                members_iter,
                &qd_ids,
                catalog,
                &options,
                BTreeMap::new(),
                BTreeMap::new(),
            );
            let failure = run.run().err();
            let ComponentRun { processed, inferred, extracted, deferrals, .. } = run;
            ((processed, inferred, extracted, deferrals), failure)
        });
        // The first failure one stack would meet: the earliest failing root.
        let failure = runs.iter().filter_map(|(_, failure)| failure.as_ref()).min_by_key(|f| f.0);
        if let Some((_, error)) = failure {
            return Err(error.clone());
        }
        let (mut queries, mut extracted) = (Vec::with_capacity(count), Vec::new());
        let (mut deferrals, mut inferred) = (Vec::new(), InferredSchemas::new());
        for ((processed, run_inferred, run_extracted, run_deferrals), _) in runs {
            // A batch run seeds nothing: its lineage is its members'.
            queries.extend(processed);
            extracted.extend(run_extracted);
            deferrals.extend(run_deferrals);
            for (relation, columns) in run_inferred {
                inferred.entry(relation).or_default().extend(columns);
            }
        }
        // Each run lists its events in root order: a stable sort by root
        // interleaves the components as one stack would have.
        extracted.sort_by_key(|e| e.root);
        deferrals.sort_by_key(|d| d.0);
        let (mut traces, mut inferred_by_query) = (BTreeMap::new(), BTreeMap::new());
        let order = extracted.into_iter().map(|Extracted { id, trace, delta, .. }| {
            if let Some(trace) = trace {
                traces.insert(id.clone(), trace);
            }
            if !delta.is_empty() {
                inferred_by_query.insert(id.clone(), delta);
            }
            id
        });
        let order = order.collect();
        let graph = assemble_graph(catalog, queries.into_iter().collect(), &inferred, order);
        Ok(LineageResult {
            graph,
            traces,
            deferrals: deferrals.into_iter().map(|(_, id, dependency)| (id, dependency)).collect(),
            inferred,
            inferred_by_query,
            diagnostics,
            index: Default::default(),
        })
    }
}

/// `catalog` with the log's own DDL schemas (plain `CREATE TABLE`)
/// merged in, each replacing a relation of the same name. A log without
/// DDL leaves a borrowed catalog uncopied.
pub fn merge_log_ddl<'a>(qd: &QueryDict, mut catalog: Cow<'a, Catalog>) -> Cow<'a, Catalog> {
    if qd.ddl_catalog.relations().next().is_some() {
        let merged = catalog.to_mut();
        for schema in qd.ddl_catalog.relations() {
            merged.add_or_replace(schema.clone());
        }
    }
    catalog
}

/// Batch-pipeline handles into the process-wide metrics registry.
pub(crate) struct BatchMetrics {
    /// [`QueryDict::from_sql_dialect`] wall time, µs.
    pub(crate) dict_us: Histogram,
    /// [`InferenceEngine::run`] wall time, µs.
    pub(crate) infer_us: Histogram,
    /// Components per [`InferenceEngine::run`] (1 when one stack ran).
    pub(crate) components: Histogram,
    /// One whole [`crate::ReportV2`] render, µs.
    pub(crate) serialize_us: Histogram,
}

pub(crate) fn batch_metrics() -> &'static BatchMetrics {
    static METRICS: OnceLock<BatchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = lineagex_obs::registry();
        BatchMetrics {
            dict_us: registry.histogram("core.dict_us"),
            infer_us: registry.histogram("core.infer_us"),
            components: registry.histogram("core.components"),
            serialize_us: registry.histogram("core.serialize_us"),
        }
    })
}

/// Idempotently register the batch pipeline's metric names
/// (`core.dict_us`, `core.infer_us`, `core.components`,
/// `core.serialize_us`), so metric snapshots have a stable shape before
/// the first batch run. A session engine registers them at construction.
pub fn register_metrics() {
    let _ = batch_metrics();
}

/// An extraction driven by [`run_deferral_stack`]: the stack chooses
/// the order, the implementor extracts and records. One connected
/// component of the batch run or of a session refresh
/// ([`crate::schedule::ComponentRun`]) and connected mode
/// ([`crate::ExplainPathExtractor`]) implement it.
pub trait StackExtraction {
    /// Whether `id` is already extracted (or stubbed).
    fn is_done(&self, id: &str) -> bool;

    /// Extract `id` and record the result. A
    /// [`LineageError::MissingDependency`] naming an unprocessed entry
    /// defers `id`; any other error ends the run.
    fn attempt(&mut self, id: &str) -> Result<(), LineageError>;

    /// `id` waits behind `dependency`, which the stack pushes next. An
    /// error refuses the push and ends the run.
    fn defer(&mut self, id: &str, dependency: &str) -> Result<(), LineageError>;

    /// `id` closed the dependency cycle `path` (`[a, .., id, a]`): record
    /// a stub for it, or refuse with an error. By default a cycle is the
    /// strict [`LineageError::DependencyCycle`].
    fn break_cycle(&mut self, _id: &str, path: Vec<String>) -> Result<(), LineageError> {
        Err(LineageError::DependencyCycle(path))
    }
}

/// The Table/View Auto-Inference stack (paper §III), the one extraction
/// order of the workspace: each root, in the order given, is pushed
/// and attempted; an attempt that hits an unprocessed dependency stays
/// on the stack (deferred) while the dependency is pushed on top, and
/// is popped back and resumed once the dependency is extracted. A
/// dependency already on the stack closes a cycle, broken at the entry
/// that closed it (the top of the stack). Iterative, so even
/// pathologically deep view chains cannot overflow the call stack.
pub fn run_deferral_stack(
    extraction: &mut impl StackExtraction,
    roots: impl IntoIterator<Item = String>,
) -> Result<(), LineageError> {
    for root in roots {
        let mut stack = vec![root];
        while let Some(id) = stack.last() {
            if extraction.is_done(id) {
                stack.pop();
                continue;
            }
            match extraction.attempt(id) {
                Ok(()) => {
                    stack.pop();
                }
                Err(LineageError::MissingDependency { dependency, .. }) => {
                    match stack.iter().position(|x| *x == dependency) {
                        Some(start) => {
                            let mut path = stack[start..].to_vec();
                            path.push(dependency);
                            let id = stack.pop().expect("the stack holds the attempted id");
                            extraction.break_cycle(&id, path)?;
                        }
                        None => {
                            extraction.defer(id, &dependency)?;
                            stack.push(dependency);
                        }
                    }
                }
                Err(other) => return Err(other),
            }
        }
    }
    Ok(())
}

/// The lineage stub recorded for an entry whose extraction lenient mode
/// had to abandon: declared output names (when any were written) with no
/// sources, no referenced columns, and a diagnostic explaining why.
fn failure_stub(entry: &QueryEntry, diagnostic: Diagnostic) -> QueryLineage {
    QueryLineage {
        id: entry.id.clone(),
        kind: entry.kind.clone(),
        outputs: entry
            .declared_columns
            .iter()
            .map(|name| OutputColumn::new(name, SortedSet::new()))
            .collect(),
        cref: SortedSet::new(),
        tables: SortedSet::new(),
        diagnostics: vec![diagnostic],
        partial: true,
    }
}

/// The stub breaking a dependency cycle in lenient mode: declared output
/// names with no sources, marked partial, carrying a
/// [`DiagnosticCode::DependencyCycle`] diagnostic with the cycle path.
/// Both the batch pipeline and the session engine stub the entry that
/// *closed* the cycle, the top of [`run_deferral_stack`]'s stack.
pub fn cycle_stub(entry: &QueryEntry, path: &[String]) -> QueryLineage {
    failure_stub(
        entry,
        Diagnostic::new(
            DiagnosticCode::DependencyCycle,
            format!("dependency cycle: {}", path.join(" -> ")),
        )
        .for_statement(&entry.id)
        .with_span(entry.span),
    )
}

/// Usage-inferred schemas of external relations: each relation with the
/// columns its scans showed.
pub type InferredSchemas = BTreeMap<String, BTreeSet<String>>;

/// Extract one Query-Dictionary entry in isolation.
///
/// This is the unit of work the [`InferenceEngine`] drives via its
/// deferral stack, exposed so a long-lived session engine
/// (`lineagex-engine`) can re-extract a single view without re-running
/// the whole log. `processed` must already contain the lineage of every
/// dictionary entry this one scans, or the call returns
/// [`LineageError::MissingDependency`]. `inferred` accumulates
/// usage-inferred schemas of external relations: an extraction returns
/// what it added there (the relations it created, each with the columns
/// it added) as the third item, and an attempt that fails, a deferred
/// one included, takes its additions back out, so its retry reports
/// them again.
pub fn extract_entry(
    entry: &QueryEntry,
    qd_ids: &BTreeSet<String>,
    processed: &BTreeMap<String, Arc<QueryLineage>>,
    catalog: &Catalog,
    options: &ExtractOptions,
    inferred: &mut InferredSchemas,
) -> Result<(QueryLineage, Option<TraceLog>, InferredSchemas), LineageError> {
    let mut extractor =
        Extractor::new(entry.id.clone(), qd_ids, processed, catalog, options, inferred);
    let extracted = extractor.extract(entry.query()).and_then(|outputs| {
        Ok(QueryLineage {
            id: entry.id.clone(),
            kind: entry.kind.clone(),
            outputs: apply_output_names(entry, outputs, catalog)?,
            cref: std::mem::take(&mut extractor.cref).into(),
            tables: std::mem::take(&mut extractor.tables).into(),
            diagnostics: std::mem::take(&mut extractor.diagnostics),
            partial: extractor.partial,
        })
    });
    let (trace, added) = (extractor.trace.take(), std::mem::take(&mut extractor.inferred_added));
    drop(extractor); // release &mut inferred
    let extracted = match extracted {
        Ok(lineage) => Ok((lineage, trace)),
        // The deferral/scheduling machinery consumes this one; it must
        // propagate even in lenient mode.
        Err(error @ LineageError::MissingDependency { .. }) => Err(error),
        Err(error) if options.lenient => {
            // Anything else degrades to a partial stub so one broken
            // query cannot poison the batch.
            let diagnostic = Diagnostic::new(
                DiagnosticCode::ExtractionFailed,
                format!("lineage extraction failed: {error}"),
            )
            .for_statement(&entry.id)
            .with_span(entry.span);
            Ok((failure_stub(entry, diagnostic), None))
        }
        Err(error) => Err(error),
    };
    match extracted {
        Ok((lineage, trace)) => {
            let mut delta = InferredSchemas::new();
            for (relation, column) in added {
                delta.entry(relation).or_default().extend(column);
            }
            Ok((lineage, trace, delta))
        }
        Err(error) => {
            for (relation, column) in added.into_iter().rev() {
                match column {
                    Some(column) => {
                        inferred.get_mut(&relation).map(|columns| columns.remove(&column));
                    }
                    None => {
                        inferred.remove(&relation);
                    }
                }
            }
            Err(error)
        }
    }
}

/// Rename outputs by the declared column list (`CREATE VIEW v(a, b)`,
/// `INSERT INTO t (a, b)`); an INSERT without a list takes the target
/// table's column names when the catalog knows them. Both kinds of name
/// are taken as stored: the parser already folded the unquoted ones.
fn apply_output_names(
    entry: &QueryEntry,
    outputs: Vec<OutputColumn>,
    catalog: &Catalog,
) -> Result<Vec<OutputColumn>, LineageError> {
    let verbatim = |name: &String| Ident::quoted(name.as_str());
    if !entry.declared_columns.is_empty() {
        let idents: Vec<Ident> = entry.declared_columns.iter().map(verbatim).collect();
        return rename_outputs(outputs, &idents, &entry.id);
    }
    if matches!(entry.kind, QueryKind::Insert) {
        let target = entry.id.split('#').next().unwrap_or(&entry.id);
        if let Some(schema) = catalog.get(target) {
            if schema.columns.len() == outputs.len() {
                let idents: Vec<Ident> = schema.columns.iter().map(|c| verbatim(&c.name)).collect();
                return rename_outputs(outputs, &idents, &entry.id);
            }
        }
    }
    Ok(outputs)
}

/// The node rule of every lineage graph: settle the relation node of
/// each key in `keys`, and of its base relation and the base's `base#N`
/// writers, on `nodes`. A key's node comes from the first source that
/// has it:
///
/// 1. its query in `queries`: the query's node kind and output columns.
///    An INSERT/UPDATE touches a subset of its target's columns, so its
///    node extends the base's columns (the base's query node, else the
///    base's catalog relation) with its own;
/// 2. a catalog relation of exactly that name: a base-table or view node;
/// 3. a usage-inferred external in `inferred`: an external node;
///
/// and a key none of them has loses its node. Settling every key
/// (catalog relations, queries and inferred externals) on an empty map
/// assembles a graph's node map ([`assemble_graph`]); a session settles
/// only the keys its writes touched.
pub fn assemble_nodes<'a>(
    nodes: &mut SharedMap<String, Arc<Node>>,
    keys: impl IntoIterator<Item = &'a str>,
    catalog: &Catalog,
    queries: &'a SharedMap<String, Arc<QueryLineage>>,
    inferred: &BTreeMap<String, BTreeSet<String>>,
) {
    let base_of = |key: &'a str| key.split('#').next().unwrap_or(key);
    let mut settle: Vec<&str> = Vec::new();
    for key in keys {
        settle.push(key);
        if base_of(key) != key {
            settle.push(base_of(key));
        }
    }
    settle.sort_unstable();
    settle.dedup();
    for key in settle {
        // One lookup finds the key's query and, right after it, its
        // writers: the ids that continue `key` with `#` (ids continuing
        // it with a lower byte sort in between).
        let mut following = queries.range_from(key).peekable();
        let query = following.next_if(|(id, _)| id.as_str() == key).map(|(_, lineage)| lineage);
        if base_of(key) != key {
            // A writer's query settles with its base, below.
            if query.is_none() {
                settle_node(nodes, key, None, catalog, queries, inferred);
            }
            continue;
        }
        settle_node(nodes, key, query, catalog, queries, inferred);
        let writers = following
            .take_while(|(id, _)| {
                id.strip_prefix(key).and_then(|rest| rest.bytes().next()).is_some_and(|b| b <= b'#')
            })
            .filter(|(id, _)| id.as_bytes()[key.len()] == b'#');
        for (writer, lineage) in writers {
            settle_node(nodes, writer, Some(lineage), catalog, queries, inferred);
        }
    }
}

/// Settle one key's node under [`assemble_nodes`]' rule; a writer's base
/// must be settled first.
fn settle_node(
    nodes: &mut SharedMap<String, Arc<Node>>,
    key: &str,
    query: Option<&Arc<QueryLineage>>,
    catalog: &Catalog,
    queries: &SharedMap<String, Arc<QueryLineage>>,
    inferred: &BTreeMap<String, BTreeSet<String>>,
) {
    let catalog_relation = |name: &str| catalog.get(name).filter(|schema| schema.name == name);
    let node = if let Some(lineage) = query {
        let mut columns: Vec<String> = lineage.outputs.iter().map(|o| o.name.clone()).collect();
        if matches!(lineage.kind, QueryKind::Insert | QueryKind::Update) {
            let base = key.split('#').next().unwrap_or(key);
            let target = if base != key && queries.contains_key(base) {
                nodes.get(base).map(|node| node.columns.clone())
            } else {
                catalog_relation(base)
                    .map(|schema| schema.column_names().map(String::from).collect())
            };
            if let Some(mut target) = target {
                for column in columns {
                    if !target.contains(&column) {
                        target.push(column);
                    }
                }
                columns = target;
            }
        }
        Some(Node { name: key.to_string(), kind: NodeKind::for_query(&lineage.kind), columns })
    } else if let Some(schema) = catalog_relation(key) {
        let kind = if schema.is_view() { NodeKind::View } else { NodeKind::BaseTable };
        Some(Node {
            name: schema.name.clone(),
            kind,
            columns: schema.column_names().map(String::from).collect(),
        })
    } else {
        inferred.get(key).map(|columns| Node {
            name: key.to_string(),
            kind: NodeKind::External,
            columns: columns.iter().cloned().collect(),
        })
    };
    match node {
        Some(node) => {
            nodes.insert(key.to_string(), Arc::new(node));
        }
        None => {
            nodes.remove(key);
        }
    }
}

/// Assemble a full [`LineageGraph`] from extracted per-query lineage,
/// settling the node of every catalog relation, query and inferred
/// external ([`assemble_nodes`]).
///
/// `order` must list the keys of `processed` in a dependency-consistent
/// order (upstream before downstream); both the one-shot pipeline and the
/// incremental engine guarantee that by construction.
pub fn assemble_graph(
    catalog: &Catalog,
    processed: SharedMap<String, Arc<QueryLineage>>,
    inferred: &BTreeMap<String, BTreeSet<String>>,
    order: Vec<String>,
) -> LineageGraph {
    let mut nodes = SharedMap::new();
    let keys = catalog.relations().map(|schema| schema.name.as_str());
    let keys = keys.chain(processed.keys().map(String::as_str));
    assemble_nodes(
        &mut nodes,
        keys.chain(inferred.keys().map(String::as_str)),
        catalog,
        &processed,
        inferred,
    );
    LineageGraph { nodes, queries: processed, order: order.into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceColumn;

    fn run_sql(sql: &str) -> LineageResult {
        let qd = QueryDict::from_sql(sql).unwrap();
        InferenceEngine::new(qd, Catalog::new(), ExtractOptions::default()).run().unwrap()
    }

    #[test]
    fn processes_in_dependency_order_with_stack() {
        // v2 comes first in the log but depends on v1: the stack defers v2.
        let result = run_sql(
            "CREATE TABLE base (a int, b int);
             CREATE VIEW v2 AS SELECT * FROM v1;
             CREATE VIEW v1 AS SELECT a, b FROM base;",
        );
        assert_eq!(result.graph.order, vec!["v1", "v2"]);
        assert_eq!(result.deferrals, vec![("v2".to_string(), "v1".to_string())]);
        // SELECT * through the deferred dependency expands fully.
        let v2 = &result.graph.queries["v2"];
        assert_eq!(v2.output_names(), vec!["a", "b"]);
        assert_eq!(v2.outputs[0].ccon, BTreeSet::from([SourceColumn::new("v1", "a")]));
    }

    #[test]
    fn deep_dependency_chain_defers_transitively() {
        let result = run_sql(
            "CREATE TABLE t (x int);
             CREATE VIEW d AS SELECT * FROM c;
             CREATE VIEW c AS SELECT * FROM b;
             CREATE VIEW b AS SELECT * FROM a;
             CREATE VIEW a AS SELECT x FROM t;",
        );
        assert_eq!(result.graph.order, vec!["a", "b", "c", "d"]);
        assert_eq!(result.deferrals.len(), 3);
        // LIFO: d deferred on c, then c on b, then b on a.
        assert_eq!(result.deferrals[0].0, "d");
        assert_eq!(result.deferrals[1].0, "c");
        assert_eq!(result.deferrals[2].0, "b");
        let d = &result.graph.queries["d"];
        assert_eq!(d.output_names(), vec!["x"]);
    }

    #[test]
    fn cycle_is_reported_with_path() {
        let qd = QueryDict::from_sql(
            "CREATE VIEW a AS SELECT * FROM b;
             CREATE VIEW b AS SELECT * FROM a;",
        )
        .unwrap();
        let err =
            InferenceEngine::new(qd, Catalog::new(), ExtractOptions::default()).run().unwrap_err();
        match err {
            LineageError::DependencyCycle(path) => {
                assert_eq!(path, vec!["a", "b", "a"]);
            }
            other => panic!("expected cycle, got {other}"),
        }
    }

    #[test]
    fn external_tables_are_inferred() {
        let result = run_sql("CREATE VIEW v AS SELECT w.page FROM web w");
        assert!(result.inferred["web"].contains("page"));
        let node = &result.graph.nodes["web"];
        assert_eq!(node.kind, NodeKind::External);
        assert_eq!(node.columns, vec!["page"]);
    }

    #[test]
    fn declared_view_columns_rename_outputs() {
        let result = run_sql(
            "CREATE TABLE t (a int);
             CREATE VIEW v(renamed) AS SELECT a FROM t;",
        );
        assert_eq!(result.graph.queries["v"].output_names(), vec!["renamed"]);
    }

    #[test]
    fn insert_takes_target_column_names() {
        let result = run_sql(
            "CREATE TABLE src (x int, y int);
             CREATE TABLE dst (a int, b int);
             INSERT INTO dst SELECT x, y FROM src;",
        );
        let ins = &result.graph.queries["dst"];
        assert_eq!(ins.output_names(), vec!["a", "b"]);
        assert_eq!(ins.outputs[0].ccon, BTreeSet::from([SourceColumn::new("src", "x")]));
    }

    #[test]
    fn order_independence_of_input() {
        let forward = run_sql(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v1 AS SELECT a FROM t;
             CREATE VIEW v2 AS SELECT * FROM v1;",
        );
        let shuffled = run_sql(
            "CREATE VIEW v2 AS SELECT * FROM v1;
             CREATE VIEW v1 AS SELECT a FROM t;
             CREATE TABLE t (a int, b int);",
        );
        assert_eq!(forward.graph.queries, shuffled.graph.queries);
        assert_eq!(forward.graph.nodes, shuffled.graph.nodes);
    }

    #[test]
    fn an_insert_takes_its_targets_quoted_column_names_as_declared() {
        let result = run_sql(
            r#"CREATE TABLE dst ("Page" int, cid int); CREATE TABLE src (x int, y int);
               INSERT INTO dst SELECT x, y FROM src;"#,
        );
        assert_eq!(result.graph.queries["dst"].output_names(), vec!["Page", "cid"]);
        assert_eq!(result.graph.nodes["dst"].columns, vec!["Page", "cid"]);
    }

    #[test]
    fn a_declared_quoted_view_column_keeps_its_spelling() {
        let result = run_sql(
            r#"CREATE TABLE t (x int, y int); CREATE VIEW v("Page", y) AS SELECT x, y FROM t;
               CREATE VIEW w AS SELECT "Page" FROM v;"#,
        );
        assert_eq!(result.graph.queries["v"].output_names(), vec!["Page", "y"]);
        let w = &result.graph.queries["w"];
        assert_eq!(w.outputs[0].ccon, BTreeSet::from([SourceColumn::new("v", "Page")]));
        assert!(!w.partial);
    }

    /// A batch run's graph, deferrals, traces, inferred schemas and run
    /// diagnostics, or its strict error's text.
    type Outcome = Result<
        (
            LineageGraph,
            Vec<(String, String)>,
            BTreeMap<String, TraceLog>,
            InferredSchemas,
            Vec<Diagnostic>,
        ),
        String,
    >;

    fn outcome(sql: &str, options: ExtractOptions, jobs: usize) -> Outcome {
        let qd = QueryDict::from_sql_with(sql, options.lenient).map_err(|e| e.to_string())?;
        let result = InferenceEngine::new(qd, Catalog::new(), options)
            .jobs(jobs)
            .run()
            .map_err(|e| e.to_string())?;
        Ok((result.graph, result.deferrals, result.traces, result.inferred, result.diagnostics))
    }

    /// Statements the generator never writes, each picked by one bit: a
    /// cycle, an unknown external scanned from three components, repeat
    /// writers of one table (`sink#2`, `sink#3`), and a view deferred
    /// behind a later one while it scans the external too.
    const PARITY_EXTRAS: [&str; 4] = [
        "CREATE VIEW cyc_a AS SELECT x FROM cyc_b; CREATE VIEW cyc_b AS SELECT x FROM cyc_a;",
        "CREATE VIEW ext_1 AS SELECT page FROM web_ext; \
         CREATE VIEW ext_2 AS SELECT w.page, w.cid FROM web_ext w; \
         CREATE VIEW ext_3 AS SELECT cid FROM web_ext WHERE reg;",
        "CREATE TABLE sink (x int, y int); CREATE TABLE src_t (a int, b int); \
         INSERT INTO sink SELECT a, b FROM src_t; INSERT INTO sink SELECT b, a FROM src_t; \
         UPDATE sink SET y = s.b FROM src_t s WHERE sink.x = s.a;",
        "CREATE VIEW late_reader AS SELECT e.page, l.x FROM web_ext e JOIN late_src l ON e.cid = l.x; \
         CREATE VIEW late_src AS SELECT 1 AS x;",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Components on a pool give one stack's result: the graph with
        /// its processing order, the deferral log, traces, inferred
        /// schemas and diagnostics, or the same strict error.
        #[test]
        fn batch_run_is_identical_across_jobs(
            seed in 0u64..10_000,
            shuffled in proptest::prelude::any::<bool>(),
            extras in 0u8..16,
            extras_first in proptest::prelude::any::<bool>(),
            lenient in proptest::prelude::any::<bool>(),
            auto_inference in proptest::prelude::any::<bool>(),
            trace in proptest::prelude::any::<bool>(),
        ) {
            use lineagex_datasets::{generator::generate, GeneratorConfig};
            let workload = generate(&GeneratorConfig {
                views: 30,
                shuffle_statements: shuffled,
                ..GeneratorConfig::seeded(seed)
            });
            let picked: Vec<&str> = PARITY_EXTRAS
                .iter()
                .enumerate()
                .filter(|(bit, _)| extras & (1 << bit) != 0)
                .map(|(_, extra)| *extra)
                .collect();
            let (generated, extra) = (workload.full_sql(), picked.join("\n"));
            let sql = if extras_first {
                format!("{extra}\n{generated}")
            } else {
                format!("{generated}\n{extra}")
            };
            let options = ExtractOptions { lenient, auto_inference, trace, ..ExtractOptions::default() };
            let one_stack = outcome(&sql, options, 1);
            for jobs in [2, 4] {
                proptest::prop_assert_eq!(&outcome(&sql, options, jobs), &one_stack, "jobs {}", jobs);
            }
        }
    }

    /// Nested `depth` levels deep: derived tables in `FROM`, or
    /// parentheses around an expression.
    fn nested_from(depth: usize) -> String {
        let mut query = "SELECT x FROM t".to_string();
        for _ in 0..depth {
            query = format!("SELECT x FROM ({query}) AS d");
        }
        format!("CREATE VIEW deep AS {query};")
    }

    fn nested_expression(depth: usize) -> String {
        format!(
            "CREATE VIEW deep AS SELECT {}x{} AS y FROM t;",
            "(".repeat(depth),
            ")".repeat(depth)
        )
    }

    #[test]
    fn pool_workers_extract_the_deepest_queries_the_parser_accepts() {
        // Parsing (and dropping) these trees needs a main thread's stack;
        // the extraction runs on a pool worker.
        let main_sized = std::thread::Builder::new().stack_size(8 << 20);
        let body = || {
            for deep in [nested_from(98), nested_expression(95)] {
                // A larger second component, which the calling thread
                // takes, so the deep view goes to a worker.
                let sql = format!(
                    "CREATE TABLE t (x int); {deep} CREATE VIEW a AS SELECT x FROM t; \
                     CREATE VIEW b AS SELECT x FROM a;"
                );
                let qd = QueryDict::from_sql(&sql).unwrap();
                let result = InferenceEngine::new(qd, Catalog::new(), ExtractOptions::default())
                    .jobs(2)
                    .run();
                assert_eq!(result.unwrap().graph.order, vec!["deep", "a", "b"]);
            }
        };
        main_sized.spawn(body).unwrap().join().unwrap();
    }

    #[test]
    fn traces_recorded_when_enabled() {
        let qd = QueryDict::from_sql(
            "CREATE TABLE t (a int); CREATE VIEW v AS SELECT a FROM t WHERE a > 0",
        )
        .unwrap();
        let result = InferenceEngine::new(qd, Catalog::new(), ExtractOptions::new().with_trace())
            .run()
            .unwrap();
        let trace = &result.traces["v"];
        assert!(!trace.steps.is_empty());
        let rendered = trace.to_string();
        assert!(rendered.contains("FROM (Table/View)"), "{rendered}");
    }
}
