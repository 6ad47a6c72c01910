//! The SQL Preprocessing Module (paper §III).
//!
//! Scans a query log and records the mapping from each query's identifier
//! to its defining `SELECT` body, producing the **Query Dictionary** (QD):
//!
//! * `CREATE VIEW v AS ...` / `CREATE TABLE t AS ...` → identifier `v`/`t`;
//! * `INSERT INTO t ...` → identifier `t` (suffixed `t#2`, `t#3`, ... for
//!   repeat writers);
//! * bare `SELECT` → a generated identifier `query_N` (the paper uses a
//!   random id; we number deterministically for reproducibility), or the
//!   source name when the log comes from named files (the paper's
//!   dbt-style wrapper, footnote 1);
//! * plain `CREATE TABLE` DDL carries no lineage but contributes schema,
//!   collected into [`QueryDict::ddl_catalog`];
//! * `DROP` statements are skipped with a diagnostic;
//! * log noise (`EXPLAIN`, `SET`, transaction control, `ANALYZE`) is
//!   skipped with a typed [`Diagnostic`] instead of tripping the parser.
//!
//! In **lenient** mode ([`QueryDict::from_sql_lenient`]) the dictionary is
//! built with the recovering parser — unparsable statements become
//! span-tagged [`DiagnosticCode::ParseError`] diagnostics — and duplicate
//! identifiers resolve last-definition-wins (matching the session
//! engine's redefinition semantics) instead of aborting the run.

use crate::diagnostics::{Diagnostic, DiagnosticCode};
use crate::error::LineageError;
use crate::model::QueryKind;
use lineagex_catalog::{Catalog, Column, TableSchema};
use lineagex_sqlparse::ast::{Query, SpannedStatement, Statement};
use lineagex_sqlparse::{
    parse_sql_spanned_with, parse_statements_recovering_with, DialectKind, RecoveredScript, Span,
};
use std::collections::HashMap;

/// One entry of the Query Dictionary.
#[derive(Debug, Clone)]
pub struct QueryEntry {
    /// The query identifier (relation name or generated id).
    pub id: String,
    /// Statement kind for the lineage record.
    pub kind: QueryKind,
    /// The full parsed statement.
    pub statement: Statement,
    /// The source span the statement occupies in its script.
    pub span: Span,
    /// Explicit output column names (`CREATE VIEW v(a, b)` / INSERT column
    /// list), empty when none were written.
    pub declared_columns: Vec<String>,
    /// The `SELECT` synthesised for an `UPDATE` (see
    /// [`Statement::update_as_query`]); `None` for every other kind, whose
    /// defining query lives inside `statement` and is never copied.
    update_query: Option<Box<Query>>,
}

impl QueryEntry {
    /// The defining query: the statement's `SELECT` body, or the
    /// synthesised equivalent for `UPDATE`.
    pub fn query(&self) -> &Query {
        match &self.update_query {
            Some(query) => query,
            None => self.statement.defining_query().expect("entries hold query-bearing statements"),
        }
    }
}

/// What preprocessing turned one statement into.
///
/// [`preprocess_script`] classifies every statement of a script through
/// [`preprocess_statement`], for the Query Dictionary and for the
/// incremental engine (`lineagex-engine`) alike, so both paths share
/// exactly one set of preprocessing rules.
#[derive(Debug, Clone)]
pub enum PreprocessedStatement {
    /// A lineage-bearing Query-Dictionary entry (boxed: an entry is two
    /// orders of magnitude larger than the other variants).
    Entry(Box<QueryEntry>),
    /// Plain DDL: contributes schema, not lineage.
    Schema(TableSchema),
    /// A `DROP`: the dropped base names, as written, plus the statement's
    /// span. The one-shot pipeline records these as skipped; a session
    /// engine retracts them.
    Drop(Vec<String>, Span),
    /// A statement carrying neither lineage nor schema, with the typed
    /// diagnostic explaining why it was skipped.
    Skipped(Diagnostic),
}

/// Classify one statement exactly as the Query Dictionary does.
///
/// `source_name` is the dbt-style file name for bare `SELECT`s,
/// `anon_counter` numbers anonymous queries (`query_N`), and `taken`
/// reports identifiers already in use so repeat `INSERT`/`UPDATE` targets
/// disambiguate (`t`, `t#2`, ...). Duplicate-id handling is the caller's
/// job: the strict dictionary rejects duplicates, a lenient dictionary
/// and the session engine replace (last definition wins).
pub fn preprocess_statement(
    spanned: SpannedStatement,
    source_name: Option<&str>,
    anon_counter: &mut usize,
    taken: &mut dyn FnMut(&str) -> bool,
) -> PreprocessedStatement {
    let SpannedStatement { statement: stmt, span } = spanned;
    match stmt {
        Statement::CreateView { ref name, ref columns, materialized, .. } => {
            let id = name.base_name().to_string();
            let declared = columns.iter().map(|c| c.value.clone()).collect();
            PreprocessedStatement::Entry(Box::new(QueryEntry {
                id,
                kind: QueryKind::View { materialized },
                statement: stmt,
                span,
                declared_columns: declared,
                update_query: None,
            }))
        }
        Statement::CreateTable { ref name, ref columns, query: Some(_), .. } => {
            let id = name.base_name().to_string();
            let declared = columns.iter().map(|c| c.name.value.clone()).collect();
            PreprocessedStatement::Entry(Box::new(QueryEntry {
                id,
                kind: QueryKind::TableAs,
                statement: stmt,
                span,
                declared_columns: declared,
                update_query: None,
            }))
        }
        Statement::CreateTable { ref name, ref columns, query: None, .. } => {
            PreprocessedStatement::Schema(TableSchema::base_table(
                name.base_name().to_string(),
                columns
                    .iter()
                    .map(|c| Column::new(c.name.value.clone(), c.data_type.to_string()))
                    .collect(),
            ))
        }
        Statement::Insert { ref table, ref columns, .. } => {
            let id = unique_target_id(table.base_name(), taken);
            let declared = columns.iter().map(|c| c.value.clone()).collect();
            PreprocessedStatement::Entry(Box::new(QueryEntry {
                id,
                kind: QueryKind::Insert,
                statement: stmt,
                span,
                declared_columns: declared,
                update_query: None,
            }))
        }
        Statement::Update { ref table, .. } => {
            let id = unique_target_id(table.base_name(), taken);
            let query = stmt.update_as_query().expect("update synthesises");
            PreprocessedStatement::Entry(Box::new(QueryEntry {
                id,
                kind: QueryKind::Update,
                statement: stmt,
                span,
                declared_columns: Vec::new(),
                update_query: Some(Box::new(query)),
            }))
        }
        Statement::Query(_) => {
            let id = match source_name {
                Some(name) => name.to_string(),
                None => {
                    *anon_counter += 1;
                    format!("query_{anon_counter}")
                }
            };
            PreprocessedStatement::Entry(Box::new(QueryEntry {
                id,
                kind: QueryKind::Select,
                statement: stmt,
                span,
                declared_columns: Vec::new(),
                update_query: None,
            }))
        }
        Statement::Drop { ref names, .. } => PreprocessedStatement::Drop(
            names.iter().map(|n| n.base_name().to_string()).collect(),
            span,
        ),
        Statement::Delete { ref table, .. } => {
            // A DELETE creates no columns; only its target matters for
            // lineage, so it is recorded as skipped.
            PreprocessedStatement::Skipped(
                Diagnostic::new(
                    DiagnosticCode::SkippedStatement,
                    format!("skipped DELETE FROM {}", table.base_name()),
                )
                .with_span(span),
            )
        }
        Statement::Noise(noise) => PreprocessedStatement::Skipped(
            Diagnostic::new(
                DiagnosticCode::NoiseStatement,
                format!("skipped {} statement: {}", noise.kind.as_str(), noise.text),
            )
            .with_span(span),
        ),
        Statement::Merge(ref merge) => {
            // The parser recognises MERGE only under dialects that support
            // it, but does not model its WHEN clauses structurally, so the
            // statement degrades into a span-tagged fallback diagnostic
            // rather than pretending to know its lineage.
            let target = merge.target.base_name().to_string();
            PreprocessedStatement::Skipped(
                Diagnostic::new(
                    DiagnosticCode::DialectFallback,
                    format!("skipped MERGE INTO {target}: statement form not modelled for lineage"),
                )
                .for_statement(&target)
                .with_span(span),
            )
        }
    }
}

/// One item of a script, as [`preprocess_script`] hands it over.
#[derive(Debug)]
pub enum ScriptItem {
    /// A classified statement (a skipped one's diagnostic excerpted).
    Statement(PreprocessedStatement),
    /// An unparsable region's excerpted [`DiagnosticCode::ParseError`].
    ParseError(Diagnostic),
}

/// What a caller of [`preprocess_script`] does with each item: the
/// one-shot dictionary's rules or a session's.
pub trait ScriptRules {
    /// Whether `id` names an entry, so a repeat write target takes the
    /// next free id (`t#2`, ...).
    fn is_taken(&self, id: &str) -> bool;

    /// Apply one item of `source`, which excerpts the diagnostics the
    /// rules add.
    fn apply(&mut self, item: ScriptItem, source: &str) -> Result<(), LineageError>;
}

/// Walk a parsed script in source order, merging its statements and
/// parse errors (each list is sorted already): each parse error becomes
/// an excerpted `parse-error` diagnostic, each statement goes through
/// [`preprocess_statement`], and `rules` applies each item, the first
/// error ending the walk. A named source (`source_name`) names bare
/// `SELECT`s and prefixes its parse errors.
pub fn preprocess_script(
    script: RecoveredScript,
    source: &str,
    source_name: Option<&str>,
    anon_counter: &mut usize,
    rules: &mut impl ScriptRules,
) -> Result<(), LineageError> {
    use PreprocessedStatement::Skipped;
    let parse_error = |error: lineagex_sqlparse::ParseError| {
        let message = match source_name {
            Some(name) => format!("in {name}: {}", error.message),
            None => error.message,
        };
        let diagnostic = Diagnostic::new(DiagnosticCode::ParseError, message);
        ScriptItem::ParseError(diagnostic.with_span(error.span).with_excerpt_from(source))
    };
    let mut errors = script.errors.into_iter().peekable();
    for statement in script.statements {
        while let Some(error) = errors.next_if(|e| e.span.start < statement.span.start) {
            rules.apply(parse_error(error), source)?;
        }
        let taken = &mut |id: &str| rules.is_taken(id);
        let item = match preprocess_statement(statement, source_name, anon_counter, taken) {
            Skipped(d) => Skipped(d.with_excerpt_from(source)),
            item => item,
        };
        rules.apply(ScriptItem::Statement(item), source)?;
    }
    errors.try_for_each(|error| rules.apply(parse_error(error), source))
}

/// First free identifier for a write target: `base`, then `base#2`, ...
fn unique_target_id(base: &str, taken: &mut dyn FnMut(&str) -> bool) -> String {
    if !taken(base) {
        return base.to_string();
    }
    let mut n = 2;
    loop {
        let candidate = format!("{base}#{n}");
        if !taken(&candidate) {
            return candidate;
        }
        n += 1;
    }
}

/// The Query Dictionary: ordered entries plus the schema contributed by
/// plain DDL statements in the same log.
#[derive(Debug, Clone, Default)]
pub struct QueryDict {
    entries: Vec<QueryEntry>,
    /// Each entry's id → its index in `entries`, so lookups and the
    /// duplicate check stay O(1) however long the log is.
    slots: HashMap<String, usize>,
    /// Base-table schemas found in the log (plain `CREATE TABLE`).
    pub ddl_catalog: Catalog,
    /// Diagnostics produced during preprocessing: skipped statements,
    /// noise, and — in lenient mode — parse errors and duplicate ids.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `query_N` ids the log's bare `SELECT`s took.
    anonymous: usize,
}

impl QueryDict {
    /// Build the dictionary from a `;`-separated SQL script, strictly: the
    /// first parse error or duplicate identifier aborts.
    pub fn from_sql(sql: &str) -> Result<Self, LineageError> {
        Self::from_sql_with(sql, false)
    }

    /// Build the dictionary leniently: unparsable statements become
    /// [`DiagnosticCode::ParseError`] diagnostics (parsing resumes at the
    /// next `;`) and duplicate identifiers resolve last-definition-wins
    /// with a [`DiagnosticCode::DuplicateQueryId`] diagnostic.
    pub fn from_sql_lenient(sql: &str) -> Self {
        Self::from_sql_with(sql, true).expect("lenient preprocessing is infallible")
    }

    /// Build the dictionary with explicit strictness.
    pub fn from_sql_with(sql: &str, lenient: bool) -> Result<Self, LineageError> {
        Self::from_sql_dialect(sql, lenient, DialectKind::Ansi)
    }

    /// Build the dictionary under a specific SQL [`DialectKind`], with
    /// explicit strictness. Dialect selection only affects lexing and
    /// parsing; classification downstream of the parser is shared by every
    /// dialect.
    pub fn from_sql_dialect(
        sql: &str,
        lenient: bool,
        dialect: DialectKind,
    ) -> Result<Self, LineageError> {
        let _timer = crate::infer::batch_metrics().dict_us.time();
        let mut dict = QueryDict::default();
        dict.add_script(sql, None, lenient, dialect)?;
        Ok(dict)
    }

    /// Build the dictionary from named sources (dbt-style: one query per
    /// file, the file name is the identifier for bare `SELECT`s).
    pub fn from_named_sources<'a, I>(sources: I) -> Result<Self, LineageError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        Self::from_named_sources_with(sources, false)
    }

    /// Named-source variant with explicit strictness (lenient recovers
    /// per-file: a corrupt model file loses only its own statements).
    pub fn from_named_sources_with<'a, I>(sources: I, lenient: bool) -> Result<Self, LineageError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        Self::from_named_sources_dialect(sources, lenient, DialectKind::Ansi)
    }

    /// Named-source variant under a specific SQL [`DialectKind`].
    pub fn from_named_sources_dialect<'a, I>(
        sources: I,
        lenient: bool,
        dialect: DialectKind,
    ) -> Result<Self, LineageError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut dict = QueryDict::default();
        for (name, sql) in sources {
            dict.add_script(sql, Some(name), lenient, dialect)?;
        }
        Ok(dict)
    }

    /// Parse one script (strictly: the first error aborts) and walk it
    /// under the one-shot rules.
    fn add_script(
        &mut self,
        sql: &str,
        source_name: Option<&str>,
        lenient: bool,
        dialect: DialectKind,
    ) -> Result<(), LineageError> {
        let script = if lenient {
            parse_statements_recovering_with(sql, dialect)
        } else {
            let statements = parse_sql_spanned_with(sql, dialect)?;
            RecoveredScript { statements, errors: Vec::new() }
        };
        let mut anonymous = self.anonymous;
        let mut rules = OneShot { dict: self, lenient };
        preprocess_script(script, sql, source_name, &mut anonymous, &mut rules)?;
        self.anonymous = anonymous;
        Ok(())
    }

    /// Whether `id` names a dictionary entry.
    pub fn contains(&self, id: &str) -> bool {
        self.slots.contains_key(id)
    }

    /// Look an entry up by id.
    pub fn get(&self, id: &str) -> Option<&QueryEntry> {
        self.slots.get(id).map(|&slot| &self.entries[slot])
    }

    /// Entries in log order.
    pub fn entries(&self) -> &[QueryEntry] {
        &self.entries
    }

    /// Take the entries out, in log order (after taking `ddl_catalog`
    /// and `diagnostics`, this hands the whole dictionary over).
    pub fn into_entries(self) -> Vec<QueryEntry> {
        self.entries
    }

    /// How many generated `query_N` ids the log used: the next bare
    /// `SELECT` after it is `query_{n + 1}`. Named sources take no
    /// generated ids.
    pub fn anonymous_count(&self) -> usize {
        self.anonymous
    }

    /// All identifiers in log order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.id.as_str())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The one-shot rules: plain DDL feeds `ddl_catalog`, `DROP` is skipped,
/// and a duplicate id fails strictly or, leniently, replaces the entry in
/// its slot (log order; the auto-inference stack makes processing order
/// independent anyway), mirroring a session's redefinition.
struct OneShot<'a> {
    dict: &'a mut QueryDict,
    lenient: bool,
}

impl ScriptRules for OneShot<'_> {
    fn is_taken(&self, id: &str) -> bool {
        self.dict.slots.contains_key(id)
    }

    fn apply(&mut self, item: ScriptItem, source: &str) -> Result<(), LineageError> {
        let dict = &mut *self.dict;
        match item {
            ScriptItem::ParseError(diagnostic)
            | ScriptItem::Statement(PreprocessedStatement::Skipped(diagnostic)) => {
                dict.diagnostics.push(diagnostic)
            }
            ScriptItem::Statement(PreprocessedStatement::Entry(entry)) => {
                let Some(&slot) = dict.slots.get(&entry.id) else {
                    dict.slots.insert(entry.id.clone(), dict.entries.len());
                    dict.entries.push(*entry);
                    return Ok(());
                };
                if !self.lenient {
                    return Err(LineageError::DuplicateQueryId(entry.id));
                }
                dict.diagnostics.push(
                    Diagnostic::new(
                        DiagnosticCode::DuplicateQueryId,
                        format!(
                            "duplicate query identifier \"{}\": last definition wins",
                            entry.id
                        ),
                    )
                    .for_statement(&entry.id)
                    .with_span(entry.span)
                    .with_excerpt_from(source),
                );
                dict.entries[slot] = *entry;
            }
            ScriptItem::Statement(PreprocessedStatement::Schema(schema)) => {
                dict.ddl_catalog.add_or_replace(schema);
            }
            ScriptItem::Statement(PreprocessedStatement::Drop(names, span)) => {
                dict.diagnostics.push(
                    Diagnostic::new(
                        DiagnosticCode::SkippedStatement,
                        format!("skipped DROP {}", names.join(", ")),
                    )
                    .with_span(span)
                    .with_excerpt_from(source),
                )
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;

    #[test]
    fn keys_views_by_created_name() {
        let qd = QueryDict::from_sql(
            "CREATE VIEW webinfo AS SELECT cid FROM web;
             CREATE TABLE snap AS SELECT * FROM webinfo;",
        )
        .unwrap();
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["webinfo", "snap"]);
        assert!(matches!(qd.get("webinfo").unwrap().kind, QueryKind::View { .. }));
        assert!(matches!(qd.get("snap").unwrap().kind, QueryKind::TableAs));
    }

    #[test]
    fn generates_deterministic_ids_for_bare_selects() {
        let qd = QueryDict::from_sql("SELECT 1; SELECT 2").unwrap();
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["query_1", "query_2"]);
        assert_eq!(qd.anonymous_count(), 2);
        // Only bare SELECTs take generated ids; named sources take none.
        assert_eq!(QueryDict::from_sql("CREATE VIEW v AS SELECT 1").unwrap().anonymous_count(), 0);
        let named = QueryDict::from_named_sources([("m", "SELECT 1")]).unwrap();
        assert_eq!(named.anonymous_count(), 0);
    }

    #[test]
    fn named_sources_use_file_name() {
        let qd = QueryDict::from_named_sources([
            ("model_users", "SELECT cid FROM customers"),
            ("model_orders", "SELECT oid FROM orders"),
        ])
        .unwrap();
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["model_users", "model_orders"]);
    }

    #[test]
    fn plain_ddl_feeds_catalog_not_entries() {
        let qd = QueryDict::from_sql(
            "CREATE TABLE web (cid int, page text);
             CREATE VIEW v AS SELECT page FROM web;",
        )
        .unwrap();
        assert_eq!(qd.len(), 1);
        assert!(qd.ddl_catalog.contains("web"));
        assert_eq!(qd.ddl_catalog.get("web").unwrap().columns.len(), 2);
    }

    #[test]
    fn insert_ids_disambiguate() {
        let qd = QueryDict::from_sql(
            "INSERT INTO t SELECT 1; INSERT INTO t SELECT 2; INSERT INTO t SELECT 3",
        )
        .unwrap();
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["t", "t#2", "t#3"]);
    }

    #[test]
    fn duplicate_view_name_errors_strictly() {
        let err = QueryDict::from_sql("CREATE VIEW v AS SELECT 1; CREATE VIEW v AS SELECT 2")
            .unwrap_err();
        assert!(matches!(err, LineageError::DuplicateQueryId(id) if id == "v"));
    }

    #[test]
    fn duplicate_view_name_is_last_definition_wins_leniently() {
        let qd = QueryDict::from_sql_lenient(
            "CREATE VIEW v AS SELECT 1 AS a;\nCREATE VIEW v AS SELECT 2 AS b;",
        );
        assert_eq!(qd.len(), 1);
        // The later definition replaced the earlier one, in place.
        let entry = qd.get("v").unwrap();
        assert!(entry.statement.to_string().contains("AS b"), "{}", entry.statement);
        let dup = qd
            .diagnostics
            .iter()
            .find(|d| d.code == DiagnosticCode::DuplicateQueryId)
            .expect("duplicate diagnostic");
        assert_eq!(dup.statement.as_deref(), Some("v"));
        assert_eq!(dup.span.unwrap().line, 2);
    }

    #[test]
    fn lenient_replacement_keeps_its_slot_in_the_index() {
        let qd = QueryDict::from_sql_lenient(
            "CREATE VIEW v AS SELECT 1 AS a;\nCREATE VIEW w AS SELECT 2 AS c;\n\
             CREATE VIEW v AS SELECT 3 AS b;",
        );
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["v", "w"]);
        assert!(qd.contains("v") && qd.contains("w") && !qd.contains("b"));
        let v = qd.get("v").unwrap();
        assert!(std::ptr::eq(v, &qd.entries()[0]), "the replacement keeps slot 0");
        assert!(v.statement.to_string().contains("AS b"), "{}", v.statement);
        assert_eq!(v.span.location.line, 3);
        assert!(std::ptr::eq(qd.get("w").unwrap(), &qd.entries()[1]));
    }

    #[test]
    fn thousands_of_writers_of_one_table_number_in_log_order() {
        let sql: String = (1..=2000).map(|i| format!("INSERT INTO t SELECT {i};\n")).collect();
        let qd = QueryDict::from_sql(&sql).unwrap();
        let expected: Vec<String> =
            std::iter::once("t".to_string()).chain((2..=2000).map(|n| format!("t#{n}"))).collect();
        assert_eq!(qd.ids().collect::<Vec<_>>(), expected);
        for (line, id) in [(1, "t"), (2, "t#2"), (2000, "t#2000")] {
            assert_eq!(qd.get(id).unwrap().span.location.line, line, "{id}");
        }
    }

    #[test]
    fn query_borrows_the_statement_body_except_for_update() {
        let qd = QueryDict::from_sql(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a FROM t;
             CREATE TABLE c AS SELECT b FROM t;
             INSERT INTO t SELECT a, b FROM t;
             SELECT a FROM v;
             UPDATE t SET a = b WHERE b > 0;",
        )
        .unwrap();
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["v", "c", "t", "query_1", "t#2"]);
        for entry in qd.entries() {
            if matches!(entry.kind, QueryKind::Update) {
                assert!(entry.statement.defining_query().is_none());
                assert_eq!(*entry.query(), entry.statement.update_as_query().unwrap());
            } else {
                let body = entry.statement.defining_query().unwrap();
                assert!(std::ptr::eq(entry.query(), body), "{} copies its body", entry.id);
            }
        }
    }

    #[test]
    fn lenient_parse_errors_become_diagnostics() {
        let qd = QueryDict::from_sql_lenient(
            "CREATE VIEW good AS SELECT 1 AS x;\nSELECT FROM broken;\nSELECT 2 AS y;",
        );
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["good", "query_1"]);
        let parse = qd
            .diagnostics
            .iter()
            .find(|d| d.code == DiagnosticCode::ParseError)
            .expect("parse diagnostic");
        assert_eq!(parse.severity, Severity::Error);
        assert_eq!(parse.span.unwrap().line, 2);
        assert_eq!(parse.excerpt.as_deref(), Some("SELECT FROM broken;"));
    }

    #[test]
    fn drop_is_skipped_with_diagnostic() {
        let qd = QueryDict::from_sql("DROP VIEW old_v; SELECT 1").unwrap();
        assert_eq!(qd.len(), 1);
        let d = &qd.diagnostics[0];
        assert_eq!(d.code, DiagnosticCode::SkippedStatement);
        assert!(d.message.contains("old_v"), "{}", d.message);
        assert_eq!(d.span.unwrap().column, 1);
    }

    #[test]
    fn noise_is_skipped_with_typed_diagnostic() {
        let qd = QueryDict::from_sql(
            "BEGIN;\nSET search_path = analytics;\nCREATE VIEW v AS SELECT 1 AS a;\n\
             EXPLAIN SELECT * FROM v;\nCOMMIT;",
        )
        .unwrap();
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["v"]);
        let kinds: Vec<_> = qd.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(kinds, vec![DiagnosticCode::NoiseStatement; 4]);
        assert!(qd.diagnostics[1].message.contains("SET"), "{}", qd.diagnostics[1].message);
        assert_eq!(qd.diagnostics[1].span.unwrap().line, 2);
    }

    #[test]
    fn merge_degrades_to_dialect_fallback_diagnostic() {
        let qd = QueryDict::from_sql_dialect(
            "CREATE VIEW v AS SELECT 1 AS a;\n\
             MERGE INTO tgt USING src ON tgt.id = src.id WHEN MATCHED THEN UPDATE SET x = 1;",
            false,
            DialectKind::Snowflake,
        )
        .unwrap();
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["v"]);
        let d = &qd.diagnostics[0];
        assert_eq!(d.code, DiagnosticCode::DialectFallback);
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.statement.as_deref(), Some("tgt"));
        assert_eq!(d.span.unwrap().line, 2);
        assert!(d.message.contains("MERGE INTO tgt"), "{}", d.message);
    }

    #[test]
    fn dialect_constructor_parses_dialect_forms() {
        let qd = QueryDict::from_sql_dialect(
            "# comment style\nCREATE VIEW v AS SELECT a FROM `raw tbl` QUALIFY a = 1",
            false,
            DialectKind::BigQuery,
        )
        .unwrap();
        assert_eq!(qd.ids().collect::<Vec<_>>(), vec!["v"]);
        // The same text is a hard error under the strict ANSI default.
        assert!(QueryDict::from_sql(
            "# comment style\nCREATE VIEW v AS SELECT a FROM `raw tbl` QUALIFY a = 1"
        )
        .is_err());
    }

    #[test]
    fn declared_columns_recorded() {
        let qd = QueryDict::from_sql("CREATE VIEW v(a, b) AS SELECT 1, 2").unwrap();
        assert_eq!(qd.get("v").unwrap().declared_columns, vec!["a", "b"]);
    }

    #[test]
    fn entries_carry_statement_spans() {
        let sql = "SELECT 1;\nCREATE VIEW v AS SELECT 2;";
        let qd = QueryDict::from_sql(sql).unwrap();
        assert_eq!(qd.get("query_1").unwrap().span.location.line, 1);
        let v = qd.get("v").unwrap();
        assert_eq!(v.span.location.line, 2);
        assert_eq!(v.span.slice(sql), "CREATE VIEW v AS SELECT 2");
    }

    #[test]
    fn preprocess_statement_classifies_each_kind() {
        let mut anon = 0usize;
        let classify = |sql: &str, anon: &mut usize| {
            let stmt = lineagex_sqlparse::parse_sql_spanned(sql).unwrap().remove(0);
            preprocess_statement(stmt, None, anon, &mut |_| false)
        };
        assert!(matches!(
            classify("CREATE VIEW v AS SELECT 1", &mut anon),
            PreprocessedStatement::Entry(e) if e.id == "v"
        ));
        assert!(matches!(
            classify("CREATE TABLE t (a int)", &mut anon),
            PreprocessedStatement::Schema(s) if s.name == "t"
        ));
        assert!(matches!(
            classify("DROP VIEW a, b", &mut anon),
            PreprocessedStatement::Drop(names, _) if names == vec!["a", "b"]
        ));
        assert!(matches!(
            classify("DELETE FROM t", &mut anon),
            PreprocessedStatement::Skipped(d) if d.code == DiagnosticCode::SkippedStatement
        ));
        assert!(matches!(
            classify("BEGIN", &mut anon),
            PreprocessedStatement::Skipped(d) if d.code == DiagnosticCode::NoiseStatement
        ));
        assert!(matches!(
            classify("SELECT 1", &mut anon),
            PreprocessedStatement::Entry(e) if e.id == "query_1"
        ));
        // A taken insert target disambiguates with a #N suffix.
        let stmt =
            lineagex_sqlparse::parse_sql_spanned("INSERT INTO t SELECT 1").unwrap().remove(0);
        let mut t_taken = |id: &str| id == "t";
        assert!(matches!(
            preprocess_statement(stmt, None, &mut anon, &mut t_taken),
            PreprocessedStatement::Entry(e) if e.id == "t#2"
        ));
    }
}
