//! The long-lived session [`Engine`].

use crate::stats::{EngineStats, IngestAction, PublishSplit, StmtId};
use lineagex_catalog::Catalog;
use lineagex_core::schedule::{components, run_tasks, ComponentRun, Extracted};
use lineagex_core::{
    assemble_graph, assemble_nodes, preprocess_statement, referenced_relations, Diagnostic,
    DiagnosticCode, ExtractOptions, GraphIndex, GraphIndexCache, GraphSnapshot, ImpactReport,
    LineageError, LineageGraph, LineageResult, LineageView, PreprocessedStatement, QueryDict,
    QueryEntry, QueryKind, QueryLineage, QuerySpec, ReportV2, SnapshotEntry, SourceColumn,
    TraceLog,
};
use lineagex_obs::{Counter, Gauge, Histogram};
use lineagex_sqlparse::ast::{SpannedStatement, Statement};
use lineagex_sqlparse::parse_statements_recovering_with;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Engine-layer handles into the process-wide metrics registry. Created
/// at engine construction (so snapshots have a stable shape from the
/// first one) and shared by name across every engine in the process.
#[derive(Debug, Clone)]
struct EngineMetrics {
    /// [`Engine::ingest`] / [`Engine::ingest_dict`] wall time, µs.
    ingest_us: Histogram,
    /// Non-empty [`Engine::refresh`] wall time, µs.
    refresh_us: Histogram,
    /// [`Engine::publish`] wall time (refresh + index + snapshot), µs.
    publish_us: Histogram,
    /// Copy-on-write copies of the settled graph (the first mutation
    /// after a publish shares it), µs.
    graph_clone_us: Histogram,
    /// Traversal-index updates to a new settled revision, µs.
    index_update_us: Histogram,
    /// Entries re-extracted per refresh (the closed dirty cone).
    dirty_cone_size: Histogram,
    /// High-water mark of the published graph + index heap estimate.
    peak_graph_bytes: Gauge,
    /// Wall time of the most recent [`Engine::load_snapshot`], µs.
    snapshot_load_us: Gauge,
    /// The session's pinned SQL dialect, as its stable id
    /// ([`lineagex_sqlparse::DialectKind::id`]), set at construction.
    dialect: Gauge,
    /// Dialect constructs the parser recognised but preprocessing
    /// skipped ([`DiagnosticCode::DialectFallback`] receipts, e.g.
    /// `MERGE` bodies).
    dialect_fallbacks: Counter,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        // The batch pipeline's names too: a session that serves metrics
        // lists them from its first snapshot.
        lineagex_core::infer::register_metrics();
        let registry = lineagex_obs::registry();
        EngineMetrics {
            ingest_us: registry.histogram("engine.ingest_us"),
            refresh_us: registry.histogram("engine.refresh_us"),
            publish_us: registry.histogram("engine.publish_us"),
            graph_clone_us: registry.histogram("engine.graph_clone_us"),
            index_update_us: registry.histogram("engine.index_update_us"),
            dirty_cone_size: registry.histogram("engine.dirty_cone_size"),
            peak_graph_bytes: registry.gauge("engine.peak_graph_bytes"),
            snapshot_load_us: registry.gauge("engine.snapshot_load_us"),
            dialect: registry.gauge("engine.dialect"),
            dialect_fallbacks: registry.counter("sqlparse.dialect_fallbacks"),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads for [`Engine::refresh`]. `0`/`1` extract on the
    /// calling thread. Higher values extract unrelated components of the
    /// dirty cone in parallel; a cone of one component extracts on the
    /// calling thread whatever the value.
    pub jobs: usize,
    /// Per-query extraction options (ambiguity policy, tracing, ...).
    pub extract: ExtractOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { jobs: 1, extract: ExtractOptions::default() }
    }
}

/// One live Query-Dictionary entry plus its statically-discovered
/// dependencies (the engine's edge set of the view dependency DAG).
#[derive(Debug, Clone)]
struct EntryState {
    slot: EntrySlot,
    /// The entry's ingest position: where its first definition arrived.
    /// A redefinition keeps it, like the one-shot dictionary's slot, so
    /// the deferral stack roots each component in log order.
    pos: u64,
    /// Relations the defining query scans, as written (matches
    /// dictionary ids case-sensitively, like the extractor).
    deps: BTreeSet<String>,
    /// The same, normalised for invalidation matching against catalog
    /// relations (which are case-insensitive).
    deps_norm: BTreeSet<String>,
}

/// An entry's definition: parsed (live ingests) or cold SQL text
/// (snapshot-loaded). Cold entries carry everything scheduling needs —
/// the dependency sets live on [`EntryState`] — and are hydrated
/// (re-parsed and re-preprocessed) only when they actually become dirty,
/// so loading a 100k-view snapshot parses nothing. The parsed entry
/// stays boxed (as the preprocessor hands it over) so a cold dictionary
/// costs one `String` per entry, not a `QueryEntry`-sized slot.
#[derive(Debug, Clone)]
enum EntrySlot {
    Parsed(Box<QueryEntry>),
    Cold { sql: String },
}

impl EntryState {
    /// Whether this entry's definition is the same statement, without
    /// hydrating: cold entries compare the incoming statement's canonical
    /// rendering against the stored text (which is itself a rendering).
    fn same_statement(&self, statement: &Statement) -> bool {
        match &self.slot {
            EntrySlot::Parsed(entry) => entry.statement == *statement,
            EntrySlot::Cold { sql } => *sql == statement.to_string(),
        }
    }

    /// The parsed entry; panics if the entry is still cold. Every dirty
    /// entry is hydrated at the top of a refresh, so extraction-side
    /// callers can rely on this.
    fn parsed(&self) -> &QueryEntry {
        match &self.slot {
            EntrySlot::Parsed(entry) => entry,
            EntrySlot::Cold { .. } => unreachable!("dirty entries are hydrated before extraction"),
        }
    }

    /// The definition's SQL text, rendering when parsed.
    fn sql_text(&self) -> String {
        match &self.slot {
            EntrySlot::Parsed(entry) => entry.statement.to_string(),
            EntrySlot::Cold { sql } => sql.clone(),
        }
    }
}

/// An immutable, revision-stamped view of a settled engine, published by
/// [`Engine::publish`].
///
/// Everything is behind an `Arc`, so cloning a snapshot is O(1) and a
/// clone stays valid (and internally consistent — graph, index, and
/// diagnostics all describe the same `revision`) no matter what the
/// engine does afterwards. This is what a concurrent server hands to
/// reader threads. The graph shares its untouched leaves with the
/// revisions before and after it, so holding an old snapshot keeps
/// alive only the leaves later writes replaced.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The settled-graph revision this snapshot was published at.
    pub revision: u64,
    /// The settled lineage graph.
    pub graph: Arc<LineageGraph>,
    /// The interned traversal index over `graph`.
    pub index: Arc<GraphIndex>,
    /// Session-level diagnostics at publish time.
    pub diagnostics: Arc<Vec<Diagnostic>>,
    /// Session counters at publish time.
    pub stats: EngineStats,
    /// Live Query-Dictionary entries at publish time.
    pub entries: usize,
    /// How many of `graph`'s queries are partial (lenient mode degraded
    /// their lineage). At zero, a query reply lists no partial relation
    /// without looking any up.
    pub partial_queries: usize,
}

/// An incremental, parallel lineage engine for long-lived sessions.
///
/// Where [`lineagex_core::LineageX`] is batch-oriented — one call reads a
/// whole query log and extracts everything — an `Engine` accepts a
/// *stream* of statements over time and maintains the lineage graph
/// continuously:
///
/// * [`Engine::ingest`] parses, classifies, and registers statements,
///   maintaining the catalog and a view dependency DAG with dirty
///   tracking: redefining or dropping one view marks only its downstream
///   cone for re-extraction;
/// * [`Engine::refresh`] settles the dirty set: each connected component
///   of it extracts on the paper's deferral stack, rooted in ingest
///   order, and unrelated components run concurrently on up to `jobs`
///   scoped worker threads;
/// * [`Engine::graph`], [`Engine::lineage_of`], and [`Engine::impact_of`]
///   answer lineage questions between ingests (refreshing lazily).
///
/// For fully-defined logs (every scanned relation defined in-log or in
/// the provided catalog), the settled graph's nodes and per-query lineage
/// are identical to a one-shot [`lineagex_core::LineageX::run`] over the
/// same statements, and parallel extraction is byte-identical to
/// sequential — the workspace property tests assert both invariants. The
/// graph's `order` is a dependency-consistent processing order: the
/// one-shot deferral order within each component, but components need
/// not interleave as the log does. Two deliberate semantic
/// differences from the one-shot pipeline: re-defining an existing view
/// *replaces* it (the batch dictionary rejects duplicate ids), and `DROP`
/// *retracts* (the batch pipeline records it as skipped).
/// [`Engine::ingest_dict`] instead takes a one-shot log's dictionary
/// whole, one-shot rules included.
///
/// ```
/// use lineagex_engine::Engine;
///
/// let mut engine = Engine::new();
/// engine.ingest("CREATE TABLE web (cid int, page text);").unwrap();
/// engine.ingest("CREATE VIEW v AS SELECT page FROM web WHERE cid > 0;").unwrap();
/// let graph = engine.graph().unwrap();
/// assert_eq!(graph.queries["v"].output_names(), vec!["page"]);
/// ```
#[derive(Debug, Default)]
pub struct Engine {
    options: EngineOptions,
    catalog: Catalog,
    entries: BTreeMap<String, EntryState>,
    /// Mirror of `entries`' key set, maintained on every insert/remove so
    /// a refresh doesn't re-collect 100k ids just to pass them to the
    /// extractor.
    qd_ids: BTreeSet<String>,
    /// Reverse dependency index: normalised relation name → ids of the
    /// entries scanning it. Turns dirty-cone closure into a worklist walk
    /// proportional to the cone, instead of a fixpoint over the whole
    /// entry table.
    rdeps: BTreeMap<String, BTreeSet<String>>,
    /// The settled graph, copy-on-write: [`Engine::publish`] and
    /// [`Engine::load_snapshot`] share this `Arc` with served snapshots
    /// for free, and the first mutation after a share copies the
    /// graph's container pointers, two per container
    /// ([`Engine::unshare_graph`]). The containers are structurally
    /// shared, so the refresh's edits then copy each leaf table's
    /// pointers plus the leaves they touch; lineage records and nodes
    /// are shared until a refresh replaces them.
    graph: Arc<LineageGraph>,
    /// Usage-inferred external schemas, attributed per inferring query so
    /// retraction can take them back out.
    inferred_by_query: BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
    traces: BTreeMap<String, TraceLog>,
    /// Entries awaiting (re-)extraction.
    dirty_entries: BTreeSet<String>,
    /// Relations (normalised) whose definition changed since the last
    /// refresh; their dependents get invalidated transitively.
    dirty_relations: BTreeSet<String>,
    /// Session-level diagnostics: skipped statements, noise, no-match
    /// drops, and (lenient) parse failures. Per-query extraction
    /// diagnostics live on the graph and are retracted with their query.
    /// Shared with published snapshots like the graph: a publish hands
    /// out the `Arc`, and the next new diagnostic copies the list once.
    session_diagnostics: Arc<Vec<Diagnostic>>,
    /// Ids (re-)extracted or stubbed by the most recent refresh, in
    /// completion order — what a UI should report as fresh.
    last_refresh_ids: Vec<String>,
    /// The interned traversal index over `indexed_graph`. Maintained,
    /// never rebuilt: when `graph` has moved on, [`Engine::settle_index`]
    /// derives the next index from this one by diffing the two graphs
    /// ([`GraphIndex::updated`]), so the update costs the changed
    /// entries plus integer passes, not a rebuild from strings.
    index: Arc<GraphIndex>,
    /// The settled graph `index` describes (pointer-equal to `graph`
    /// while the index is current).
    indexed_graph: Arc<LineageGraph>,
    /// [`LineageGraph::approx_bytes`] of `indexed_graph`, carried from
    /// revision to revision so the `engine.peak_graph_bytes` probe
    /// measures only changed entries.
    indexed_bytes: usize,
    /// Monotonic settled-graph revision, bumped at every graph mutation.
    graph_revision: u64,
    /// The revision whose `engine.peak_graph_bytes` probe already ran,
    /// so repeat [`Engine::publish`] calls on one revision skip it.
    /// Revision 0 is a fresh engine's empty graph, which needs no probe.
    probed_revision: u64,
    stats: EngineStats,
    /// Shared handles into the process-wide metrics registry; recording
    /// never touches engine state, so instrumentation is invisible to
    /// the incremental ≡ batch and `jobs`-independence invariants.
    metrics: EngineMetrics,
    /// Graph-copy and index-update time since the last publish, and the
    /// split the last publish settled ([`Engine::last_publish_split`]).
    pending_split: PublishSplit,
    last_split: PublishSplit,
    /// Running total of per-query extraction diagnostics on the settled
    /// graph, maintained through [`Engine::merge_lineage`] /
    /// [`Engine::retract_lineage`] so diagnostic accounting never walks
    /// the whole query map.
    graph_diag_count: u64,
    /// Running count of partial queries on the settled graph, kept the
    /// same way and published with each snapshot.
    partial_queries: usize,
    /// Node-map keys a write changed outside the dirty cone: catalog
    /// relations added, replaced or removed (both spellings of a
    /// replacement that differs only in case), `DROP`ped entries and the
    /// externals they inferred. The next refresh settles them with the
    /// cone and the inferred-schema keys it touched ([`assemble_nodes`]).
    dirty_nodes: BTreeSet<String>,
    anon_counter: usize,
    seq: u64,
    /// The ingest position the next new entry takes.
    next_pos: u64,
}

impl Engine {
    /// A fresh engine with default options and an empty catalog.
    pub fn new() -> Self {
        Engine::with_options(EngineOptions::default())
    }

    /// A fresh engine with the given options. The extraction options'
    /// [`DialectKind`](lineagex_sqlparse::DialectKind) is pinned here for
    /// the session's lifetime: the parser, the stats surface, and the
    /// `engine.dialect` gauge all reflect it from the first statement.
    pub fn with_options(options: EngineOptions) -> Self {
        let dialect = options.extract.dialect;
        let mut engine = Engine { options, ..Engine::default() };
        engine.stats.dialect = dialect.name().to_string();
        engine.metrics.dialect.set(dialect.id() as i64);
        engine
    }

    /// Provide base-table schemas up front.
    pub fn with_catalog(mut self, catalog: Catalog) -> Self {
        let old = std::mem::replace(&mut self.catalog, catalog);
        let names = old.relations().chain(self.catalog.relations()).map(|s| s.name.clone());
        self.dirty_nodes.extend(names);
        self
    }

    /// Merge base-table schemas into the live session catalog (the
    /// incoming definition wins on collision), dirtying dependents of
    /// every merged relation. This is how a snapshot-restored server
    /// applies a preload catalog *on top of* the snapshot's own catalog
    /// instead of clobbering it.
    pub fn merge_catalog(&mut self, catalog: Catalog) {
        for schema in catalog.relations() {
            self.dirty_relations.insert(normalize(&schema.name));
            self.dirty_nodes.insert(schema.name.clone());
            if let Some(old) = self.catalog.add_or_replace(schema.clone()) {
                self.dirty_nodes.insert(old.name);
            }
        }
    }

    /// Ingest a `;`-separated script: parse it under the session's
    /// dialect, classify each statement, update the catalog and
    /// dependency DAG, and mark whatever the statements invalidated as
    /// dirty. Re-ingesting an unchanged definition is a no-op
    /// ([`IngestAction::Unchanged`]). Extraction itself is deferred to
    /// the next [`Engine::refresh`] (or lineage query), so a burst of
    /// ingests pays for its re-extractions once.
    ///
    /// Returns one receipt per statement saying what the engine did.
    /// In lenient mode ([`ExtractOptions::lenient`]) unparsable regions
    /// of the script do not fail the call: each becomes a receipt with
    /// [`IngestAction::Failed`] carrying a span-tagged parse diagnostic,
    /// and every healthy statement is still ingested.
    pub fn ingest(&mut self, sql: &str) -> Result<Vec<StmtId>, LineageError> {
        let _timer = self.metrics.ingest_us.time();
        let sql = sql.trim();
        let script = parse_statements_recovering_with(sql, self.options.extract.dialect);
        if !self.options.extract.lenient {
            if let Some(error) = script.errors.first() {
                return Err(LineageError::Parse(error.to_string()));
            }
        }
        Ok(self.apply_script(script, sql))
    }

    /// Ingest a whole one-shot log in one bulk write: the Query
    /// Dictionary [`QueryDict::from_sql_dialect`] built from it, so the
    /// log keeps the one-shot rules (`DROP` skipped, strict duplicates
    /// rejected, lenient last definition wins, noise skipped) exactly as
    /// [`lineagex_core::LineageX::run`] applies them.
    ///
    /// Each entry is linked like an [`Engine::ingest`]ed definition and
    /// counts as one ingested statement; the log's DDL is merged with
    /// [`Engine::merge_catalog`]; the dictionary's diagnostics become
    /// session diagnostics (parse errors also count as parse failures);
    /// and the session's anonymous ids continue after the log's, so the
    /// next bare `SELECT` ingested is `query_{n + 1}`. No receipts are
    /// issued. Extraction waits for the next [`Engine::refresh`].
    pub fn ingest_dict(&mut self, mut dict: QueryDict) {
        let _timer = self.metrics.ingest_us.time();
        self.merge_catalog(std::mem::take(&mut dict.ddl_catalog));
        let diagnostics = std::mem::take(&mut dict.diagnostics);
        self.stats.parse_failures +=
            diagnostics.iter().filter(|d| d.code == DiagnosticCode::ParseError).count() as u64;
        Arc::make_mut(&mut self.session_diagnostics).extend(diagnostics);
        self.anon_counter = self.anon_counter.max(dict.anonymous_count());
        for entry in dict.into_entries() {
            self.seq += 1;
            self.stats.statements += 1;
            self.define(Box::new(entry));
        }
        self.settle_diagnostic_count();
    }

    /// Apply a recovered script: route statements through preprocessing
    /// and turn unparsable regions into [`IngestAction::Failed`]
    /// receipts, all interleaved back into source order so receipts read
    /// like the script.
    fn apply_script(
        &mut self,
        script: lineagex_sqlparse::RecoveredScript,
        source: &str,
    ) -> Vec<StmtId> {
        enum Item {
            Stmt(Box<SpannedStatement>),
            Failed(lineagex_sqlparse::ParseError),
        }
        let mut items: Vec<(usize, Item)> = script
            .statements
            .into_iter()
            .map(|s| (s.span.start, Item::Stmt(Box::new(s))))
            .chain(script.errors.into_iter().map(|e| (e.span.start, Item::Failed(e))))
            .collect();
        items.sort_by_key(|(start, _)| *start);
        let mut receipts = Vec::with_capacity(items.len());
        for (_, item) in items {
            self.seq += 1;
            self.stats.statements += 1;
            match item {
                Item::Stmt(stmt) => {
                    let (target, action, diagnostics) = self.apply_statement(*stmt, source);
                    receipts.push(StmtId { seq: self.seq, target, action, diagnostics });
                }
                Item::Failed(error) => {
                    self.stats.parse_failures += 1;
                    let diagnostic =
                        Diagnostic::new(DiagnosticCode::ParseError, error.message.clone())
                            .with_span(error.span)
                            .with_excerpt_from(source);
                    Arc::make_mut(&mut self.session_diagnostics).push(diagnostic.clone());
                    receipts.push(StmtId {
                        seq: self.seq,
                        target: "<unparsable>".into(),
                        action: IngestAction::Failed,
                        diagnostics: vec![diagnostic],
                    });
                }
            }
        }
        self.settle_diagnostic_count();
        receipts
    }

    /// Route one parsed statement through the shared preprocessing rules
    /// and apply its session effect. Returns the receipt's target, the
    /// action taken, and any diagnostics the statement produced.
    fn apply_statement(
        &mut self,
        stmt: SpannedStatement,
        source: &str,
    ) -> (String, IngestAction, Vec<Diagnostic>) {
        // Catalog effects first (plain DDL adds/replaces, DROP removes),
        // via the catalog's own incremental API; every reported change
        // seeds relation-level dirt and dirties its node.
        let catalog_changes = self.catalog.apply_statement(&stmt.statement);
        for change in &catalog_changes {
            self.dirty_relations.insert(normalize(change.relation()));
            self.dirty_nodes.insert(change.relation().to_string());
        }
        let preprocessed = {
            let entries = &self.entries;
            preprocess_statement(stmt, None, &mut self.anon_counter, &mut |id| {
                entries.contains_key(id)
            })
        };
        match preprocessed {
            PreprocessedStatement::Entry(entry) => {
                let (id, span) = (entry.id.clone(), entry.span);
                let action = self.define(entry);
                let diagnostics = if action == IngestAction::Redefined {
                    // Redefinition is first-class in a session; the
                    // notice still surfaces so receipts match the batch
                    // pipeline's lenient diagnostics.
                    vec![Diagnostic::new(
                        DiagnosticCode::DuplicateQueryId,
                        format!("duplicate query identifier \"{id}\": last definition wins"),
                    )
                    .for_statement(&id)
                    .with_span(span)
                    .with_excerpt_from(source)]
                } else {
                    Vec::new()
                };
                (id, action, diagnostics)
            }
            // The catalog side already happened above; this arm only
            // acknowledges the statement.
            PreprocessedStatement::Schema(schema) => {
                (schema.name, IngestAction::Schema, Vec::new())
            }
            PreprocessedStatement::Drop(names, span) => {
                let mut touched = catalog_changes.len() as u64;
                let mut dropped = BTreeSet::new();
                for name in &names {
                    if let Some(old) = self.entries.remove(name) {
                        touched += 1;
                        self.unlink_entry(name, &old);
                        // The retraction below mutates the settled graph
                        // directly (no refresh will run unless something
                        // is dirty): a new revision.
                        self.graph_revision += 1;
                        self.dirty_nodes.insert(name.clone());
                        self.traces.remove(name);
                        if let Some(delta) = self.inferred_by_query.remove(name) {
                            self.dirty_nodes.extend(delta.into_keys());
                        }
                        self.dirty_entries.remove(name);
                        self.dirty_relations.insert(normalize(name));
                        dropped.insert(name.clone());
                    }
                }
                if !dropped.is_empty() {
                    self.retract_lineage(&dropped);
                }
                self.stats.drops += touched;
                let target = names.join(", ");
                if touched == 0 {
                    let diagnostic = Diagnostic::new(
                        DiagnosticCode::SkippedStatement,
                        format!("DROP {target} matched nothing"),
                    )
                    .with_span(span)
                    .with_excerpt_from(source);
                    Arc::make_mut(&mut self.session_diagnostics).push(diagnostic.clone());
                    (target, IngestAction::Skipped, vec![diagnostic])
                } else {
                    (target, IngestAction::Dropped, Vec::new())
                }
            }
            PreprocessedStatement::Skipped(diagnostic) => {
                if diagnostic.code == DiagnosticCode::DialectFallback {
                    self.metrics.dialect_fallbacks.inc();
                }
                let diagnostic = diagnostic.with_excerpt_from(source);
                let target = diagnostic.message.clone();
                Arc::make_mut(&mut self.session_diagnostics).push(diagnostic.clone());
                (target, IngestAction::Skipped, vec![diagnostic])
            }
        }
    }

    /// Link one dictionary entry into the session: a new id is
    /// defined, a changed definition replaces the live one, and an
    /// identical one is a no-op. Whatever changed is marked dirty, with
    /// its dependency edges, for the next refresh.
    fn define(&mut self, entry: Box<QueryEntry>) -> IngestAction {
        let id = entry.id.clone();
        let (action, pos) = match self.entries.get(&id) {
            Some(old) if old.same_statement(&entry.statement) => {
                self.stats.unchanged += 1;
                return IngestAction::Unchanged;
            }
            Some(old) => {
                self.stats.redefinitions += 1;
                (IngestAction::Redefined, old.pos)
            }
            None => {
                self.stats.defined += 1;
                self.next_pos += 1;
                (IngestAction::Defined, self.next_pos - 1)
            }
        };
        let mut deps = referenced_relations(entry.query());
        if matches!(entry.kind, QueryKind::Insert | QueryKind::Update) {
            // A write's output names come from the target table's catalog
            // schema (`apply_output_names`), so the target is a real
            // dependency: its redefinition must re-extract this entry.
            deps.insert(id.split('#').next().unwrap_or(&id).to_string());
        }
        let deps_norm: BTreeSet<String> = deps.iter().map(|d| normalize(d)).collect();
        let state = EntryState { slot: EntrySlot::Parsed(entry), pos, deps, deps_norm };
        self.link_entry(id.clone(), state);
        self.dirty_relations.insert(normalize(&id));
        self.dirty_entries.insert(id);
        action
    }

    /// Settle all pending invalidations: close the dirty set over the
    /// reverse-dependency index (downstream cones of every changed
    /// relation), partition it into connected components with the batch
    /// run's rule ([`components`]: members link to the members they scan
    /// and to the members that scan the same unknown external), and
    /// (re-)extract each component on the deferral stack
    /// ([`ComponentRun`]), rooted in ingest order — unrelated components
    /// in parallel when `jobs > 1`. Returns the
    /// number of extractions performed; deferred attempts do not count.
    ///
    /// Every step is proportional to the touched cone, never the whole
    /// catalog: closure walks the reverse-dependency index, the stack
    /// walks only the cone, and node settling re-derives only the nodes
    /// of the cone, of the inferred-schema keys it touched, and of the
    /// keys catalog changes and drops dirtied.
    ///
    /// On error, successfully extracted entries are kept and the failing
    /// ones (plus anything the stack had not reached) stay dirty, so a
    /// correcting ingest can retry.
    pub fn refresh(&mut self) -> Result<usize, LineageError> {
        if !self.has_pending_work() {
            return Ok(0);
        }
        let _timer = self.metrics.refresh_us.time();
        self.last_refresh_ids.clear();
        // Everything below mutates the settled graph (retractions, cycle
        // stubs, merges, node assembly): a new revision, whose traversal
        // index the next query or publish derives from the last one.
        self.graph_revision += 1;
        self.unshare_graph();

        // 1. Close the dirty set: an entry is dirty when marked directly
        //    or when any (transitive) upstream relation changed.
        let dirty = self.close_over_dependents(self.dirty_entries.clone(), {
            let mut changed = self.dirty_relations.clone();
            changed.extend(self.dirty_entries.iter().map(|id| normalize(id)));
            changed
        });
        self.metrics.dirty_cone_size.record(dirty.len() as u64);

        // 2. Hydrate snapshot-loaded entries on first dirt: cold slots
        //    re-parse their stored definition here, and only here, so a
        //    loaded session pays parsing per touched entry, not per
        //    catalog entry.
        let cold: Vec<String> = dirty
            .iter()
            .filter(|id| matches!(self.entries[id.as_str()].slot, EntrySlot::Cold { .. }))
            .cloned()
            .collect();
        for id in &cold {
            self.hydrate(id)?;
        }

        // 3. Retract everything about to be re-extracted so stale lineage
        //    can never leak into a dependent's extraction (one pass over
        //    the processing order for the whole cone). Inferred-schema
        //    keys the retractions touched feed the node settle below.
        self.retract_lineage(&dirty);
        let mut inferred_touched: BTreeSet<String> = BTreeSet::new();
        for id in &dirty {
            self.traces.remove(id);
            if let Some(delta) = self.inferred_by_query.remove(id) {
                inferred_touched.extend(delta.into_keys());
            }
        }

        // 4. Partition the cone into connected components and extract
        //    each on the deferral stack; clean upstreams are already
        //    settled in the graph. A component reads only settled
        //    lineage, its members' and the inferred schemas of the
        //    externals only its members scan, so the workers run across
        //    components, one task each.
        let members: Vec<&str> = dirty.iter().map(String::as_str).collect();
        let auto_inference = self.options.extract.auto_inference;
        let comps = components(
            &members,
            |i, visit| self.entries[members[i]].deps.iter().for_each(|dep| visit(dep)),
            // A clean entry is read as settled lineage, except under the
            // ablation, where one ingested after its scanner reads as an
            // unknown external and so links its scanners like one.
            |dep| auto_inference && self.entries.contains_key(dep),
            &self.catalog,
        );
        let mut inferred = self.merged_inferred();
        let outcomes = {
            let (comps, members) = (&comps, &members);
            let entries = &self.entries;
            let settled = &self.graph.queries;
            let qd_ids = &self.qd_ids;
            let catalog = &self.catalog;
            let options = &self.options.extract;
            let base_inferred = &inferred;
            run_tasks(comps.len(), self.options.jobs, move |ci| {
                // Each member's clean direct dependencies (extraction
                // only looks up a query's direct dependencies); under the
                // ablation only those ingested before the member, as the
                // one-shot log would have processed them.
                let mut processed = BTreeMap::new();
                for &i in &comps[ci] {
                    let state = &entries[members[i]];
                    for dep in &state.deps {
                        let Some(lineage) = settled.get(dep) else { continue };
                        let member = members.binary_search(&dep.as_str()).is_ok();
                        if !member
                            && (auto_inference
                                || entries.get(dep).is_some_and(|d| d.pos < state.pos))
                        {
                            processed.entry(dep.clone()).or_insert_with(|| Arc::clone(lineage));
                        }
                    }
                }
                let mut roots: Vec<&EntryState> =
                    comps[ci].iter().map(|&i| &entries[members[i]]).collect();
                roots.sort_by_key(|state| state.pos);
                let roots = roots.into_iter().map(|state| (state.pos, state.parsed()));
                let mut run = ComponentRun::new(
                    roots,
                    qd_ids,
                    catalog,
                    options,
                    processed,
                    base_inferred.clone(),
                );
                let failure = run.run().err();
                (run.extracted, failure)
            })
        };
        let mut extracted = 0u64;
        // The failure a log-order run meets first: the one whose
        // failing root comes first in ingest order.
        let mut failure: Option<(u64, LineageError)> = None;
        for (done, error) in outcomes {
            for Extracted { id, lineage, trace, delta, .. } in done {
                extracted += 1;
                self.dirty_entries.remove(&id);
                self.merge_lineage(lineage);
                if let Some(trace) = trace {
                    self.traces.insert(id.clone(), trace);
                }
                if !delta.is_empty() {
                    for (relation, columns) in &delta {
                        inferred_touched.insert(relation.clone());
                        inferred
                            .entry(relation.clone())
                            .or_default()
                            .extend(columns.iter().cloned());
                    }
                    self.inferred_by_query.insert(id.clone(), delta);
                }
                self.last_refresh_ids.push(id);
            }
            if let Some((pos, error)) = error {
                if failure.as_ref().is_none_or(|(first, _)| pos < *first) {
                    failure = Some((pos, error));
                }
            }
        }

        // 5. Settle the nodes this refresh and the writes before it could
        //    have changed (`inferred` is now the merged inferred schemas).
        let dirty_nodes = std::mem::take(&mut self.dirty_nodes);
        self.unshare_graph();
        let graph = Arc::get_mut(&mut self.graph).expect("unshared above");
        let keys = dirty.iter().chain(&inferred_touched).chain(&dirty_nodes);
        assemble_nodes(
            &mut graph.nodes,
            keys.map(String::as_str),
            &self.catalog,
            &graph.queries,
            &inferred,
        );
        debug_assert_eq!(
            self.graph.nodes,
            assemble_graph(&self.catalog, self.graph.queries.clone(), &inferred, Vec::new()).nodes,
            "the maintained node map must match a settle of every key"
        );
        debug_assert_eq!(
            self.graph_diag_count,
            self.graph.queries.values().map(|q| q.diagnostics.len() as u64).sum::<u64>(),
            "running diagnostic count must match a recount"
        );
        debug_assert_eq!(
            self.partial_queries,
            self.graph.queries.values().filter(|q| q.partial).count(),
            "running partial-query count must match a recount"
        );
        self.stats.extractions += extracted;
        self.stats.last_refresh_extractions = extracted;
        self.stats.refreshes += 1;
        self.settle_diagnostic_count();

        match failure {
            None => {
                self.dirty_entries.clear();
                self.dirty_relations.clear();
                Ok(extracted as usize)
            }
            Some((_, error)) => {
                self.dirty_entries =
                    dirty.into_iter().filter(|id| !self.graph.queries.contains_key(id)).collect();
                self.dirty_relations.clear();
                Err(error)
            }
        }
    }

    /// Re-parse a snapshot-loaded (cold) entry's stored definition into a
    /// live [`QueryEntry`]. No-op for already-parsed entries.
    fn hydrate(&mut self, id: &str) -> Result<(), LineageError> {
        let sql = match &self.entries[id].slot {
            EntrySlot::Parsed(_) => return Ok(()),
            EntrySlot::Cold { sql } => sql.clone(),
        };
        let statements =
            lineagex_sqlparse::parse_sql_spanned_with(&sql, self.options.extract.dialect).map_err(
                |e| {
                    LineageError::Snapshot(format!("snapshot entry \"{id}\" no longer parses: {e}"))
                },
            )?;
        let stmt = statements
            .into_iter()
            .next()
            .ok_or_else(|| LineageError::Snapshot(format!("snapshot entry \"{id}\" is empty")))?;
        // The stored text is one statement rendered from one entry, so
        // preprocessing is deterministic; the anonymous counter and the
        // duplicate-id probe are irrelevant here because the id is
        // pinned to the dictionary key afterwards.
        let mut counter = 0usize;
        match preprocess_statement(stmt, None, &mut counter, &mut |_| false) {
            PreprocessedStatement::Entry(mut entry) => {
                entry.id = id.to_string();
                self.entries.get_mut(id).expect("hydrating a live entry").slot =
                    EntrySlot::Parsed(entry);
                Ok(())
            }
            _ => Err(LineageError::Snapshot(format!(
                "snapshot entry \"{id}\" is not a lineage query"
            ))),
        }
    }

    /// The settled lineage graph (refreshing first if needed). Cloning
    /// it copies six pointers; the clone shares every leaf with the
    /// session until a later refresh replaces the leaf on the session's
    /// side.
    pub fn graph(&mut self) -> Result<&LineageGraph, LineageError> {
        self.refresh()?;
        Ok(&self.graph)
    }

    /// The interned traversal index ([`GraphIndex`]) over the settled
    /// graph, refreshing first if needed. Repeated queries between
    /// ingests share one index; after the graph changed, the first call
    /// derives the next index from the previous one
    /// ([`GraphIndex::updated`]).
    pub fn graph_index(&mut self) -> Result<Arc<GraphIndex>, LineageError> {
        self.refresh()?;
        Ok(self.settle_index())
    }

    /// Bring the traversal index up to the settled graph: a pointer
    /// compare when nothing changed, otherwise one
    /// [`GraphIndex::updated`] from the last indexed graph, timed into
    /// `engine.index_update_us`.
    fn settle_index(&mut self) -> Arc<GraphIndex> {
        if !Arc::ptr_eq(&self.indexed_graph, &self.graph) {
            let started = Instant::now();
            let index = self.index.updated(&self.indexed_graph, &self.graph);
            let us = started.elapsed().as_micros() as u64;
            self.metrics.index_update_us.record(us);
            self.pending_split.index_update_us += us;
            self.index = Arc::new(index);
            self.indexed_bytes =
                self.graph.approx_bytes_from(&self.indexed_graph, self.indexed_bytes);
            self.indexed_graph = Arc::clone(&self.graph);
        }
        Arc::clone(&self.index)
    }

    /// Make the settled graph unique before mutating it. Copy-on-write:
    /// while a published snapshot (or the index's base graph) shares
    /// it, the first mutation copies the graph's container pointers,
    /// two per container — never a leaf, an entry or the lineage —
    /// timed into `engine.graph_clone_us`. The edits that follow copy
    /// the leaves they touch.
    fn unshare_graph(&mut self) {
        if Arc::get_mut(&mut self.graph).is_none() {
            let started = Instant::now();
            self.graph = Arc::new((*self.graph).clone());
            let us = started.elapsed().as_micros() as u64;
            self.metrics.graph_clone_us.record(us);
            self.pending_split.graph_clone_us += us;
        }
    }

    /// The settled graph, unshared for mutation.
    fn graph_mut(&mut self) -> &mut LineageGraph {
        self.unshare_graph();
        Arc::get_mut(&mut self.graph).expect("unshared above")
    }

    /// A point-in-time clone of the settled graph that survives further
    /// ingests.
    pub fn snapshot(&mut self) -> Result<LineageGraph, LineageError> {
        self.refresh()?;
        Ok((*self.graph).clone())
    }

    /// The current settled-graph revision. Monotonic: every graph
    /// mutation (refresh extraction, `DROP` retraction) bumps it, so two
    /// equal revisions always denote the identical settled graph.
    pub fn revision(&self) -> u64 {
        self.graph_revision
    }

    /// Settle pending work and publish an immutable, shareable
    /// [`EngineSnapshot`]: the revision-stamped graph, its interned
    /// traversal index, and the session diagnostics, all behind `Arc`s.
    ///
    /// This is the engine half of the serving layer's swap-on-refresh
    /// protocol: a server thread calls `publish` after each settled
    /// write and swaps the snapshot into a shared slot; readers clone
    /// the `Arc`s and answer lock-free while the engine keeps mutating.
    /// Publishing twice without an intervening mutation reuses the same
    /// graph, index and diagnostics `Arc`s (pointer compares, no copy).
    /// A new revision's index is derived from the previous one. On error
    /// the previous snapshot stays valid — nothing is published for a
    /// refresh that failed to settle.
    pub fn publish(&mut self) -> Result<EngineSnapshot, LineageError> {
        let _timer = self.metrics.publish_us.time();
        self.refresh()?;
        let index = self.settle_index();
        self.last_split = std::mem::take(&mut self.pending_split);
        if self.probed_revision != self.graph_revision {
            // A fresh revision is the natural high-water-mark probe: the
            // estimate covers exactly what a server now retains (settled
            // graph + interned index).
            self.probed_revision = self.graph_revision;
            self.record_peak_bytes();
        }
        Ok(EngineSnapshot {
            revision: self.graph_revision,
            // Copy-on-write: every graph mutation also bumps the
            // revision, and the next one copies the leaves it edits, not
            // this publish.
            graph: Arc::clone(&self.graph),
            index,
            diagnostics: Arc::clone(&self.session_diagnostics),
            stats: self.stats.clone(),
            entries: self.entries.len(),
            partial_queries: self.partial_queries,
        })
    }

    /// Where the last [`Engine::publish`]'s write time went outside
    /// extraction: the copy-on-write graph copies and the index update
    /// since the publish before it. What a slow-write log prints.
    pub fn last_publish_split(&self) -> PublishSplit {
        self.last_split
    }

    /// Settle pending work and persist the whole session — catalog,
    /// settled graph, interned traversal index, session diagnostics,
    /// inferred schemas, dictionary entries, revision, and counters — to
    /// `path` in the versioned binary snapshot format
    /// ([`lineagex_core::snapshot`]).
    ///
    /// A session restored with [`Engine::load_snapshot`] answers every
    /// query identically to this one without re-parsing or re-extracting
    /// anything: entry definitions are stored as SQL text and re-parsed
    /// lazily, only if a later ingest actually dirties them. Traversal
    /// traces are the one thing deliberately not persisted (they are a
    /// debugging aid, unbounded, and reproducible by re-extracting).
    pub fn save_snapshot(&mut self, path: &Path) -> Result<(), LineageError> {
        self.refresh()?;
        let index = self.settle_index();
        // Entries go out in ingest order, which a load renumbers from.
        let mut states: Vec<(&String, &EntryState)> = self.entries.iter().collect();
        states.sort_by_key(|(_, state)| state.pos);
        let entries = states
            .into_iter()
            .map(|(id, state)| SnapshotEntry {
                id: id.clone(),
                sql: state.sql_text(),
                deps: state.deps.iter().cloned().collect(),
                deps_norm: state.deps_norm.iter().cloned().collect(),
            })
            .collect();
        let snapshot = GraphSnapshot {
            catalog: self.catalog.clone(),
            graph: (*self.graph).clone(),
            index: (*index).clone(),
            diagnostics: (*self.session_diagnostics).clone(),
            inferred: self.inferred_by_query.clone(),
            entries,
            revision: self.graph_revision,
            counters: self.counters_out(),
            dialect: self.options.extract.dialect.name().to_string(),
        };
        lineagex_core::write_snapshot_file(path, &snapshot)?;
        Ok(())
    }

    /// Restore a session persisted by [`Engine::save_snapshot`]: decode,
    /// rebuild the in-memory indexes (reverse dependencies, id mirror),
    /// and adopt the stored traversal index as current — no
    /// SQL is parsed and nothing is extracted, so cold-start cost is
    /// decode-bound. Corrupted, truncated, or version-mismatched files
    /// fail with a typed [`LineageError::Snapshot`], never a panic.
    ///
    /// The snapshot records the SQL dialect its session parsed under;
    /// this strict loader refuses to restore it when `options` request a
    /// *different* dialect — entry definitions would re-hydrate under
    /// grammar rules that never produced them. Callers with no explicit
    /// dialect preference should use [`Engine::load_snapshot_adopting`].
    pub fn load_snapshot(path: &Path, options: EngineOptions) -> Result<Engine, LineageError> {
        Engine::load_snapshot_inner(path, options, false)
    }

    /// Like [`Engine::load_snapshot`], but adopt the snapshot's recorded
    /// dialect instead of requiring `options` to match it. This is the
    /// right loader when the caller did not pin a dialect explicitly
    /// (e.g. a server restart without `--dialect`).
    pub fn load_snapshot_adopting(
        path: &Path,
        options: EngineOptions,
    ) -> Result<Engine, LineageError> {
        Engine::load_snapshot_inner(path, options, true)
    }

    fn load_snapshot_inner(
        path: &Path,
        mut options: EngineOptions,
        adopt_dialect: bool,
    ) -> Result<Engine, LineageError> {
        let start = std::time::Instant::now();
        let snapshot = lineagex_core::read_snapshot_file(path)?;
        let Some(snapshot_dialect) = lineagex_sqlparse::DialectKind::parse(&snapshot.dialect)
        else {
            return Err(LineageError::Snapshot(format!(
                "snapshot records dialect {:?}, which this build does not know",
                snapshot.dialect
            )));
        };
        if adopt_dialect {
            options.extract.dialect = snapshot_dialect;
        } else if options.extract.dialect != snapshot_dialect {
            return Err(LineageError::Snapshot(format!(
                "snapshot was built under dialect \"{snapshot_dialect}\" but \"{}\" was \
                 requested; drop the explicit dialect to adopt the snapshot's, or re-extract \
                 the log under the new dialect",
                options.extract.dialect
            )));
        }
        let mut engine = Engine::with_options(options);
        engine.catalog = snapshot.catalog;
        engine.graph = Arc::new(snapshot.graph);
        engine.session_diagnostics = Arc::new(snapshot.diagnostics);
        engine.inferred_by_query = snapshot.inferred;
        // Bulk-build the dictionary and its reverse-dependency index:
        // collecting pairs and building each tree once beats 10k+
        // `link_entry` rebalances. Entries arrive in ingest order, so
        // their list positions are their ingest positions.
        let mut rdep_pairs: Vec<(String, String)> = Vec::new();
        let mut states: Vec<(String, EntryState)> = Vec::with_capacity(snapshot.entries.len());
        for (pos, entry) in snapshot.entries.into_iter().enumerate() {
            let SnapshotEntry { id, sql, deps, deps_norm } = entry;
            let state = EntryState {
                slot: EntrySlot::Cold { sql },
                pos: pos as u64,
                deps: deps.into_iter().collect(),
                deps_norm: deps_norm.into_iter().collect(),
            };
            for dep in &state.deps_norm {
                rdep_pairs.push((dep.clone(), id.clone()));
            }
            states.push((id, state));
        }
        engine.next_pos = states.len() as u64;
        engine.qd_ids = states.iter().map(|(id, _)| id.clone()).collect();
        engine.entries = states.into_iter().collect();
        rdep_pairs.sort();
        let mut rdeps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (dep, id) in rdep_pairs {
            rdeps.entry(dep).or_default().insert(id);
        }
        engine.rdeps = rdeps;
        engine.graph_revision = snapshot.revision;
        engine.probed_revision = snapshot.revision;
        engine.index = Arc::new(snapshot.index);
        engine.indexed_graph = Arc::clone(&engine.graph);
        engine.indexed_bytes = engine.graph.approx_bytes();
        engine.record_peak_bytes();
        for (name, value) in snapshot.counters {
            engine.restore_counter(&name, value);
        }
        for query in engine.graph.queries.values() {
            engine.graph_diag_count += query.diagnostics.len() as u64;
            engine.partial_queries += usize::from(query.partial);
        }
        engine.settle_diagnostic_count();
        engine.metrics.snapshot_load_us.set(start.elapsed().as_micros() as i64);
        Ok(engine)
    }

    /// Raise `engine.peak_graph_bytes` to the indexed graph plus its
    /// index, if that is a new high-water mark.
    fn record_peak_bytes(&self) {
        let bytes = (self.indexed_bytes + self.index.approx_bytes()) as i64;
        if bytes > self.metrics.peak_graph_bytes.get() {
            self.metrics.peak_graph_bytes.set(bytes);
        }
    }

    /// The session counters as stable-named pairs for the snapshot codec.
    fn counters_out(&self) -> Vec<(String, u64)> {
        vec![
            ("stats.statements".into(), self.stats.statements),
            ("stats.defined".into(), self.stats.defined),
            ("stats.redefinitions".into(), self.stats.redefinitions),
            ("stats.unchanged".into(), self.stats.unchanged),
            ("stats.drops".into(), self.stats.drops),
            ("stats.parse_failures".into(), self.stats.parse_failures),
            ("stats.diagnostics".into(), self.stats.diagnostics),
            ("stats.extractions".into(), self.stats.extractions),
            ("stats.last_refresh_extractions".into(), self.stats.last_refresh_extractions),
            ("stats.refreshes".into(), self.stats.refreshes),
            ("engine.anon_counter".into(), self.anon_counter as u64),
            ("engine.seq".into(), self.seq),
        ]
    }

    /// Restore one snapshot counter by name. Unknown names are ignored, so
    /// old engines load snapshots from newer writers of the same format
    /// version, and snapshots carrying counters this engine retired still
    /// load.
    fn restore_counter(&mut self, name: &str, value: u64) {
        match name {
            "stats.statements" => self.stats.statements = value,
            "stats.defined" => self.stats.defined = value,
            "stats.redefinitions" => self.stats.redefinitions = value,
            "stats.unchanged" => self.stats.unchanged = value,
            "stats.drops" => self.stats.drops = value,
            "stats.parse_failures" => self.stats.parse_failures = value,
            "stats.diagnostics" => self.stats.diagnostics = value,
            "stats.extractions" => self.stats.extractions = value,
            "stats.last_refresh_extractions" => self.stats.last_refresh_extractions = value,
            "stats.refreshes" => self.stats.refreshes = value,
            "engine.anon_counter" => self.anon_counter = value as usize,
            "engine.seq" => self.seq = value,
            _ => {}
        }
    }

    /// Full lineage of one output column, `C_con(c) ∪ C_ref(Q)`.
    pub fn lineage_of(
        &mut self,
        table: &str,
        column: &str,
    ) -> Result<Option<BTreeSet<SourceColumn>>, LineageError> {
        self.refresh()?;
        Ok(self.graph.queries.get(table).and_then(|q| q.lineage_of(column)))
    }

    /// Transitive impact analysis from one column (the paper's §IV demo
    /// question), over the settled graph's cached traversal index.
    pub fn impact_of(&mut self, table: &str, column: &str) -> Result<ImpactReport, LineageError> {
        let index = self.graph_index()?;
        let answer = QuerySpec::new().from_column(table, column).downstream().run_with(&index);
        Ok(ImpactReport::from_answer(SourceColumn::new(table, column), answer))
    }

    /// Package the session state as a one-shot-style [`LineageResult`]
    /// (with an empty deferral log: the stack runs per component, and
    /// component order is not log order).
    pub fn result(&mut self) -> Result<LineageResult, LineageError> {
        self.refresh()?;
        Ok(LineageResult {
            graph: (*self.graph).clone(),
            traces: self.traces.clone(),
            deferrals: Vec::new(),
            inferred: self.merged_inferred(),
            diagnostics: (*self.session_diagnostics).clone(),
            index: GraphIndexCache::new(),
        })
    }

    /// Mark every entry dirty, forcing the next refresh to re-extract the
    /// whole dictionary (benchmarking aid, and escape hatch after
    /// out-of-band catalog edits).
    pub fn invalidate_all(&mut self) {
        self.dirty_entries.extend(self.entries.keys().cloned());
    }

    /// Entries directly scanning `relation` (one dirty-propagation hop).
    pub fn dependents_of(&self, relation: &str) -> BTreeSet<String> {
        self.rdeps.get(&normalize(relation)).cloned().unwrap_or_default()
    }

    /// `relation` plus everything transitively downstream of it — the set
    /// a redefinition of `relation` re-extracts.
    pub fn downstream_cone(&self, relation: &str) -> BTreeSet<String> {
        let mut seed = BTreeSet::new();
        if self.entries.contains_key(relation) {
            seed.insert(relation.to_string());
        }
        self.close_over_dependents(seed, BTreeSet::from([normalize(relation)]))
    }

    /// Closure over the dependency DAG: grow `entries` with every entry
    /// depending (transitively) on a relation in `changed`, treating each
    /// newly-added entry's own relation as changed too. A worklist walk
    /// over the reverse-dependency index, so cost is proportional to the
    /// resulting cone — not to the size of the dictionary.
    fn close_over_dependents(
        &self,
        mut entries: BTreeSet<String>,
        changed: BTreeSet<String>,
    ) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = changed;
        let mut queue: Vec<String> = seen.iter().cloned().collect();
        while let Some(relation) = queue.pop() {
            if let Some(dependents) = self.rdeps.get(&relation) {
                for id in dependents {
                    if entries.insert(id.clone()) {
                        let norm = normalize(id);
                        if seen.insert(norm.clone()) {
                            queue.push(norm);
                        }
                    }
                }
            }
        }
        entries
    }

    /// Register (or re-register) a dictionary entry, keeping the id
    /// mirror and the reverse-dependency index in sync.
    fn link_entry(&mut self, id: String, state: EntryState) {
        if let Some(old) = self.entries.remove(&id) {
            self.unlink_entry(&id, &old);
        }
        for dep in &state.deps_norm {
            self.rdeps.entry(dep.clone()).or_default().insert(id.clone());
        }
        self.qd_ids.insert(id.clone());
        self.entries.insert(id, state);
    }

    /// Drop a (already removed) entry's edges from the id mirror and the
    /// reverse-dependency index.
    fn unlink_entry(&mut self, id: &str, old: &EntryState) {
        for dep in &old.deps_norm {
            if let Some(dependents) = self.rdeps.get_mut(dep) {
                dependents.remove(id);
                if dependents.is_empty() {
                    self.rdeps.remove(dep);
                }
            }
        }
        self.qd_ids.remove(id);
    }

    /// Merge per-query lineage into the settled graph, keeping the
    /// running diagnostic and partial-query totals current.
    fn merge_lineage(&mut self, lineage: impl Into<Arc<QueryLineage>>) {
        let lineage = lineage.into();
        self.graph_diag_count += lineage.diagnostics.len() as u64;
        self.partial_queries += usize::from(lineage.partial);
        self.graph_mut().merge_query(lineage);
    }

    /// Retract the lineage of every query in `ids` from the settled
    /// graph, keeping the running diagnostic and partial-query totals
    /// current.
    fn retract_lineage(&mut self, ids: &BTreeSet<String>) {
        for old in self.graph_mut().retract_queries(ids) {
            self.graph_diag_count -= old.diagnostics.len() as u64;
            self.partial_queries -= usize::from(old.partial);
        }
    }

    /// Session counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Session-level diagnostics (skipped statements, noise, no-match
    /// drops, lenient parse failures). Per-query extraction diagnostics
    /// live on [`LineageGraph::queries`] and are retracted with their
    /// query on redefinition or `DROP`.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.session_diagnostics
    }

    /// The query ids the most recent refresh (re-)extracted or stubbed,
    /// in completion order. Lets a caller surface only the *fresh*
    /// extraction diagnostics after a refresh instead of re-reporting
    /// the whole session's history.
    pub fn last_refresh_ids(&self) -> &[String] {
        &self.last_refresh_ids
    }

    /// Settle the live diagnostic total (session-level plus per-query)
    /// into [`EngineStats::diagnostics`]. O(1): the per-query half is a
    /// running count maintained by [`Engine::merge_lineage`] /
    /// [`Engine::retract_lineage`].
    fn settle_diagnostic_count(&mut self) {
        self.stats.diagnostics = self.session_diagnostics.len() as u64 + self.graph_diag_count;
    }

    /// Traversal traces, when tracing is enabled in the options.
    pub fn traces(&self) -> &BTreeMap<String, TraceLog> {
        &self.traces
    }

    /// The current catalog (user schemas plus ingested DDL).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of live dictionary entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether the next refresh has work to do.
    pub fn has_pending_work(&self) -> bool {
        !self.dirty_entries.is_empty()
            || !self.dirty_relations.is_empty()
            || !self.dirty_nodes.is_empty()
    }

    /// Merge the per-query inferred-schema deltas into one map.
    fn merged_inferred(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut merged: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for delta in self.inferred_by_query.values() {
            for (table, columns) in delta {
                merged.entry(table.clone()).or_default().extend(columns.iter().cloned());
            }
        }
        merged
    }
}

/// The engine is the *session* backend of the unified query surface:
/// everything written against [`LineageView`] — the [`GraphQuery`]
/// builder, [`ReportV2`] serialisation, stats — runs unchanged over a
/// live session, settling pending work first.
///
/// [`GraphQuery`]: lineagex_core::GraphQuery
/// [`ReportV2`]: lineagex_core::ReportV2
///
/// ```
/// use lineagex_engine::Engine;
/// use lineagex_core::LineageView;
///
/// let mut engine = Engine::new();
/// engine.ingest("CREATE TABLE web (cid int, page text);").unwrap();
/// engine.ingest("CREATE VIEW v AS SELECT page FROM web;").unwrap();
/// let answer = engine.query().from("web.page").downstream().run().unwrap();
/// assert_eq!(answer.columns[0].column.to_string(), "v.page");
/// ```
impl LineageView for Engine {
    fn settled_graph(&mut self) -> Result<&LineageGraph, LineageError> {
        self.graph()
    }

    fn run_diagnostics(&self) -> Vec<Diagnostic> {
        (*self.session_diagnostics).clone()
    }

    fn backend_name(&self) -> &'static str {
        "session"
    }

    fn settled_index(&mut self) -> Result<Arc<GraphIndex>, LineageError> {
        self.graph_index()
    }

    /// The report over the settled graph, borrowing the session
    /// diagnostics and taking its edges from the maintained index.
    fn report_v2(&mut self) -> Result<ReportV2<'_>, LineageError> {
        self.refresh()?;
        self.settle_index();
        Ok(ReportV2::from_graph(&self.graph, &self.session_diagnostics).with_index(&self.index))
    }
}

/// Strip any schema qualifier and lower-case, mirroring the catalog's
/// name normalisation.
fn normalize(name: &str) -> String {
    name.rsplit('.').next().unwrap_or(name).to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The settled node map, checked against a settle of every key on an
    /// empty map.
    fn settled_nodes(
        engine: &mut Engine,
    ) -> lineagex_core::SharedMap<String, Arc<lineagex_core::Node>> {
        let nodes = engine.graph().unwrap().nodes.clone();
        let (queries, inferred) = (engine.graph.queries.clone(), engine.merged_inferred());
        assert_eq!(nodes, assemble_graph(&engine.catalog, queries, &inferred, Vec::new()).nodes);
        nodes
    }

    #[test]
    fn a_catalog_table_respelled_in_another_case_moves_its_node() {
        let mut engine = Engine::new();
        engine.ingest(r#"CREATE TABLE "Web" (cid int, page text);"#).unwrap();
        engine.ingest("CREATE VIEW v AS SELECT page FROM web;").unwrap();
        assert_eq!(settled_nodes(&mut engine)["Web"].columns, vec!["cid", "page"]);
        engine.ingest("CREATE TABLE web (cid int, page text, reg boolean);").unwrap();
        let nodes = settled_nodes(&mut engine);
        assert!(!nodes.contains_key("Web"));
        assert_eq!(nodes["web"].kind, lineagex_core::NodeKind::BaseTable);
        assert_eq!(nodes["web"].columns, vec!["cid", "page", "reg"]);
    }

    #[test]
    fn dropping_a_scanned_table_leaves_an_external_node() {
        let mut engine = Engine::new();
        engine.ingest("CREATE TABLE web (cid int, page text);").unwrap();
        engine.ingest("CREATE VIEW v AS SELECT w.page FROM web w;").unwrap();
        assert_eq!(settled_nodes(&mut engine)["web"].kind, lineagex_core::NodeKind::BaseTable);
        engine.ingest("DROP TABLE web;").unwrap();
        let nodes = settled_nodes(&mut engine);
        assert_eq!(nodes["web"].kind, lineagex_core::NodeKind::External);
        assert_eq!(nodes["web"].columns, vec!["page"]);
        assert_eq!(engine.stats().last_refresh_extractions, 1);
    }
}
