//! Connected mode — "when the database connection is available" (paper
//! §III).
//!
//! The paper's connected mode uses a live database's `EXPLAIN` only as a
//! metadata oracle: each query's names resolve against full metadata,
//! and an `UndefinedTable` error for a view the log defines later drives
//! the same create-views-first stack, whose deferral defers the current
//! query, **creates the dependency's view first**, and resumes. The
//! Table I rules then give the lineage the static path gives.
//!
//! So connected mode resolves names through the static extractor
//! ([`extract_entry`]) under Postgres's rules: strict, with
//! [`AmbiguityPolicy::Error`], on the deferral stack
//! ([`run_deferral_stack`]), where an extracted view or
//! `CREATE TABLE … AS` is the created relation the next extraction reads.
//! A writer (`INSERT`, `UPDATE`) or a bare `SELECT` creates nothing, so a
//! reader of its target reads the catalog's table, and a view or table
//! the catalog already holds is created only by `OR REPLACE`. One
//! closed-world check stands in for full metadata: a query that scans a
//! relation neither the catalog nor the log defines fails with the
//! database's `relation "x" does not exist` ([`LineageError::Database`])
//! instead of inferring it. Every query's traversal trace is recorded,
//! since this is the mode that explains.

use crate::error::LineageError;
use crate::infer::{
    assemble_graph, extract_entry, merge_log_ddl, run_deferral_stack, InferredSchemas,
    LineageResult, StackExtraction,
};
use crate::model::QueryLineage;
use crate::options::{AmbiguityPolicy, ExtractOptions};
use crate::preprocess::{QueryDict, QueryEntry};
use crate::trace::TraceLog;
use lineagex_catalog::{Catalog, DbError};
use lineagex_sqlparse::ast::Statement;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Extract lineage the way a database connection resolves names.
pub struct ExplainPathExtractor {
    qd: QueryDict,
    qd_ids: BTreeSet<String>,
    catalog: Catalog,
    options: ExtractOptions,
    /// Every extracted entry, for the graph.
    processed: BTreeMap<String, Arc<QueryLineage>>,
    /// The relations the log has created so far: what the next
    /// extraction reads.
    created: BTreeMap<String, Arc<QueryLineage>>,
    order: Vec<String>,
    traces: BTreeMap<String, TraceLog>,
    deferrals: Vec<(String, String)>,
}

impl ExplainPathExtractor {
    /// Create an extractor over a dictionary and the connection's
    /// metadata: a catalog holding the base tables. Schemas the log
    /// defines as DDL are merged in, as in every other extraction.
    pub fn new(qd: QueryDict, catalog: Catalog) -> Self {
        let catalog = merge_log_ddl(&qd, Cow::Owned(catalog)).into_owned();
        let qd_ids = qd.ids().map(String::from).collect();
        ExplainPathExtractor {
            qd,
            qd_ids,
            catalog,
            options: ExtractOptions::new().with_ambiguity(AmbiguityPolicy::Error).with_trace(),
            processed: BTreeMap::new(),
            created: BTreeMap::new(),
            order: Vec::new(),
            traces: BTreeMap::new(),
            deferrals: Vec::new(),
        }
    }

    /// Run extraction over every entry, in log order, on the deferral
    /// stack ([`run_deferral_stack`]), and assemble the graph: every
    /// catalog relation and every query settles under the node rule
    /// ([`assemble_graph`]).
    pub fn run(mut self) -> Result<LineageResult, LineageError> {
        let ids: Vec<String> = self.qd.ids().map(String::from).collect();
        run_deferral_stack(&mut self, ids)?;
        let inferred = InferredSchemas::new();
        let graph = assemble_graph(&self.catalog, self.processed.into(), &inferred, self.order);
        Ok(LineageResult {
            graph,
            traces: self.traces,
            deferrals: self.deferrals,
            inferred,
            diagnostics: self.qd.diagnostics,
            ..Default::default()
        })
    }

    /// Resolve the entry's defining query (the synthesised `SELECT` for
    /// an `UPDATE`) against the catalog and the relations created so far,
    /// like `EXPLAIN` on the connection.
    fn try_bind(&self, entry: &QueryEntry) -> Result<(QueryLineage, TraceLog), LineageError> {
        let missing = |relation: &str| {
            LineageError::Database(format!("relation \"{relation}\" does not exist"))
        };
        let mut inferred = InferredSchemas::new();
        let (lineage, trace, delta) = match extract_entry(
            entry,
            &self.qd_ids,
            &self.created,
            &self.catalog,
            &self.options,
            &mut inferred,
        ) {
            // An entry already extracted that created no relation.
            Err(LineageError::MissingDependency { dependency, .. })
                if self.processed.contains_key(&dependency) =>
            {
                return Err(missing(&dependency));
            }
            extracted => extracted?,
        };
        match delta.into_keys().next() {
            Some(relation) => Err(missing(&relation)),
            None => Ok((lineage, trace.expect("connected mode traces"))),
        }
    }

    /// Whether the entry creates a relation, failing as the database does
    /// when the name is taken and `OR REPLACE` is not given.
    fn creates(&self, entry: &QueryEntry) -> Result<bool, LineageError> {
        let (Statement::CreateView { or_replace, .. } | Statement::CreateTable { or_replace, .. }) =
            &entry.statement
        else {
            return Ok(false);
        };
        if !or_replace && self.catalog.contains(&entry.id) {
            let taken = DbError::DuplicateTable(entry.id.to_lowercase());
            return Err(LineageError::Database(taken.to_string()));
        }
        Ok(true)
    }
}

/// The log on the deferral stack: the extractor's
/// [`LineageError::MissingDependency`] for an unprocessed dictionary
/// entry is the database's `UndefinedTable`, and defers the current query
/// while the dependency's view is created first. A cycle stays a strict
/// error.
impl StackExtraction for ExplainPathExtractor {
    fn is_done(&self, id: &str) -> bool {
        self.processed.contains_key(id)
    }

    fn attempt(&mut self, id: &str) -> Result<(), LineageError> {
        let entry = self.qd.get(id).expect("id from dictionary");
        let (lineage, trace) = self.try_bind(entry)?;
        let lineage = Arc::new(lineage);
        if self.creates(entry)? {
            self.created.insert(id.to_string(), Arc::clone(&lineage));
        }
        self.processed.insert(id.to_string(), lineage);
        self.traces.insert(id.to_string(), trace);
        self.order.push(id.to_string());
        Ok(())
    }

    fn defer(&mut self, id: &str, dependency: &str) -> Result<(), LineageError> {
        self.deferrals.push((id.to_string(), dependency.to_string()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceColumn;
    use crate::shared::SortedSet;

    const DDL: &str = "
        CREATE TABLE customers (cid int, name text, age int);
        CREATE TABLE orders (oid int, cid int, amount numeric);
        CREATE TABLE web (cid int, date date, page text, reg boolean);
    ";

    fn run(sql: &str) -> Result<LineageResult, LineageError> {
        let qd = QueryDict::from_sql(sql).unwrap();
        ExplainPathExtractor::new(qd, Catalog::from_ddl(DDL).unwrap()).run()
    }

    #[test]
    fn binds_and_creates_views_in_dependency_order() {
        let result = run("CREATE VIEW second AS SELECT wcid FROM first;
             CREATE VIEW first AS SELECT cid AS wcid FROM web;")
        .unwrap();
        assert_eq!(result.graph.order, vec!["first", "second"]);
        assert_eq!(result.deferrals, vec![("second".into(), "first".into())]);
        let second = &result.graph.queries["second"];
        assert_eq!(second.outputs[0].ccon, BTreeSet::from([SourceColumn::new("first", "wcid")]));
        // Every query is traced, in the one rendering `extract --trace`
        // prints.
        assert_eq!(result.traces.keys().collect::<Vec<_>>(), ["first", "second"]);
        assert!(result.traces["second"].to_string().contains("scan view first"));
    }

    #[test]
    fn missing_base_table_is_hard_error() {
        // Connected mode has full metadata; unknown relations are errors,
        // not inference targets.
        let err = run("CREATE VIEW v AS SELECT x FROM nope").unwrap_err();
        assert_eq!(err, LineageError::Database("relation \"nope\" does not exist".into()));
    }

    #[test]
    fn setop_branches_are_referenced() {
        let result =
            run("CREATE VIEW u AS SELECT cid FROM customers INTERSECT SELECT cid FROM web")
                .unwrap();
        let u = &result.graph.queries["u"];
        assert!(u.cref.contains(&SourceColumn::new("customers", "cid")));
        assert!(u.cref.contains(&SourceColumn::new("web", "cid")));
    }

    #[test]
    fn cycle_detected() {
        let err =
            run("CREATE VIEW a AS SELECT * FROM b; CREATE VIEW b AS SELECT * FROM a;").unwrap_err();
        assert!(matches!(err, LineageError::DependencyCycle(_)));
    }

    /// What a connected-mode run of one row's log gives.
    enum Expect {
        /// View `v`'s outputs, each with its sorted `C_con`, and its
        /// sorted `C_ref`.
        Lineage(&'static [(&'static str, &'static [&'static str])], &'static [&'static str]),
        /// The typed error the run fails with.
        Error(fn(&LineageError) -> bool),
    }

    /// Name resolution under Postgres's rules, one row per case: the SQL
    /// in, the lineage or the typed error out.
    #[test]
    fn resolution_cases() {
        use Expect::{Error, Lineage};
        let rows: &[(&str, &str, Expect)] = &[
            (
                "ambiguous column",
                "CREATE VIEW v AS SELECT cid FROM customers, orders",
                Error(
                    |e| matches!(e, LineageError::AmbiguousColumn { column, .. } if column == "cid"),
                ),
            ),
            (
                "ambiguous column over tables the log's own DDL defines",
                "CREATE TABLE c (cid int, x int); CREATE TABLE o (cid int, y int);
                 CREATE VIEW v AS SELECT cid FROM c, o",
                Error(|e| {
                    matches!(e, LineageError::AmbiguousColumn { candidates, .. }
                        if candidates == &["c", "o"])
                }),
            ),
            (
                "duplicate alias",
                "CREATE VIEW v AS SELECT 1 FROM customers, customers",
                Error(|e| {
                    matches!(e, LineageError::DuplicateBinding { binding, .. }
                        if binding == "customers")
                }),
            ),
            (
                "unknown qualifier",
                "CREATE VIEW v AS SELECT z.name FROM customers",
                Error(
                    |e| matches!(e, LineageError::UnknownQualifier { qualifier, .. } if qualifier == "z"),
                ),
            ),
            (
                "unknown bare column",
                "CREATE VIEW v AS SELECT missing FROM customers",
                Error(|e| {
                    matches!(e, LineageError::ColumnNotFound { column, relation: None, .. }
                        if column == "missing")
                }),
            ),
            (
                "unknown qualified column",
                "CREATE VIEW v AS SELECT customers.missing FROM customers",
                Error(|e| {
                    matches!(e, LineageError::ColumnNotFound { column, relation: Some(r), .. }
                        if column == "missing" && r == "customers")
                }),
            ),
            (
                "set-operation arity mismatch",
                "CREATE VIEW v AS SELECT cid FROM customers UNION SELECT cid, page FROM web",
                Error(|e| {
                    matches!(e, LineageError::SetOperationArityMismatch { left: 1, right: 2, .. })
                }),
            ),
            (
                "derived table without an alias",
                "CREATE VIEW v AS SELECT 1 FROM (SELECT name FROM customers)",
                Error(|e| matches!(e, LineageError::Unsupported(what) if what.contains("alias"))),
            ),
            (
                "alias column-count mismatch",
                "CREATE VIEW v AS SELECT x FROM customers AS c(x, y)",
                Error(|e| {
                    matches!(e, LineageError::ColumnCountMismatch { declared: 2, actual: 3, .. })
                }),
            ),
            (
                "sibling reference without LATERAL",
                "CREATE VIEW v AS SELECT top FROM customers c, (SELECT c.age AS top) AS l",
                Error(
                    |e| matches!(e, LineageError::UnknownQualifier { qualifier, .. } if qualifier == "c"),
                ),
            ),
            (
                "sibling reference with LATERAL",
                "CREATE VIEW v AS SELECT top FROM customers c, LATERAL (SELECT c.age AS top) AS l",
                Lineage(&[("top", &["customers.age"])], &[]),
            ),
            (
                "CTE shadowing a catalog table",
                "CREATE VIEW v AS WITH web AS (SELECT cid AS c2 FROM customers) SELECT c2 FROM web",
                Lineage(&[("c2", &["customers.cid"])], &[]),
            ),
            (
                "recursive CTE",
                "CREATE VIEW v AS WITH RECURSIVE r AS (
                     SELECT cid AS n FROM customers UNION ALL SELECT n FROM r WHERE n < 10)
                 SELECT n FROM r",
                Lineage(&[("n", &["customers.cid"])], &["customers.cid"]),
            ),
            (
                "VALUES",
                "CREATE VIEW v AS VALUES (1, 'a'), (2, 'b')",
                Lineage(&[("column1", &[]), ("column2", &[])], &[]),
            ),
            (
                "ORDER BY a position",
                "CREATE VIEW v AS SELECT name AS nm FROM customers ORDER BY 1",
                Lineage(&[("nm", &["customers.name"])], &["customers.name"]),
            ),
            (
                "ORDER BY an alias",
                "CREATE VIEW v AS SELECT name AS nm FROM customers ORDER BY nm",
                Lineage(&[("nm", &["customers.name"])], &["customers.name"]),
            ),
            (
                "USING join",
                "CREATE VIEW v AS SELECT name FROM customers JOIN orders USING (cid)",
                Lineage(&[("name", &["customers.name"])], &["customers.cid", "orders.cid"]),
            ),
            (
                "NATURAL join",
                "CREATE VIEW v AS SELECT name FROM customers NATURAL JOIN orders",
                Lineage(&[("name", &["customers.name"])], &["customers.cid", "orders.cid"]),
            ),
            (
                "nested join",
                "CREATE VIEW v AS SELECT page
                 FROM customers c JOIN (orders o JOIN web w ON o.cid = w.cid) ON c.cid = o.cid",
                Lineage(&[("page", &["web.page"])], &["customers.cid", "orders.cid", "web.cid"]),
            ),
            (
                "t.*",
                "CREATE VIEW v AS SELECT w.* FROM customers c JOIN web w ON c.cid = w.cid",
                Lineage(
                    &[
                        ("cid", &["web.cid"]),
                        ("date", &["web.date"]),
                        ("page", &["web.page"]),
                        ("reg", &["web.reg"]),
                    ],
                    &["customers.cid", "web.cid"],
                ),
            ),
            (
                "a reader of another column after an UPDATE",
                "UPDATE web SET page = 'x'; CREATE VIEW v AS SELECT cid FROM web",
                Lineage(&[("cid", &["web.cid"])], &[]),
            ),
            (
                "SELECT * after a partial INSERT",
                "INSERT INTO web (cid) SELECT cid FROM customers; CREATE VIEW v AS SELECT * FROM web",
                Lineage(
                    &[
                        ("cid", &["web.cid"]),
                        ("date", &["web.date"]),
                        ("page", &["web.page"]),
                        ("reg", &["web.reg"]),
                    ],
                    &[],
                ),
            ),
            (
                "a reader of an INSERT target the catalog lacks",
                "INSERT INTO t SELECT cid FROM customers; CREATE VIEW v AS SELECT cid FROM t",
                Error(|e| *e == LineageError::Database("relation \"t\" does not exist".into())),
            ),
            (
                "a view named like a catalog table",
                "CREATE VIEW web AS SELECT cid FROM customers; CREATE VIEW v AS SELECT cid FROM web",
                Error(|e| *e == LineageError::Database("relation \"web\" already exists".into())),
            ),
            (
                "CREATE TABLE AS named like a catalog table",
                "CREATE TABLE customers AS SELECT cid FROM web",
                Error(|e| {
                    *e == LineageError::Database("relation \"customers\" already exists".into())
                }),
            ),
            (
                "a reader before an OR REPLACE view of a catalog table",
                "CREATE VIEW v AS SELECT page FROM web;
                 CREATE OR REPLACE VIEW web AS SELECT name FROM customers",
                Lineage(&[("page", &["web.page"])], &[]),
            ),
            (
                "a reader after an OR REPLACE view of a catalog table",
                "CREATE OR REPLACE VIEW web AS SELECT name FROM customers;
                 CREATE VIEW v AS SELECT name FROM web",
                Lineage(&[("name", &["web.name"])], &[]),
            ),
            (
                "UPDATE of a missing table",
                "UPDATE missing SET x = 1",
                Error(|e| {
                    *e == LineageError::Database("relation \"missing\" does not exist".into())
                }),
            ),
        ];
        let names = |sources: &SortedSet<SourceColumn>| -> Vec<String> {
            sources.iter().map(SourceColumn::to_string).collect()
        };
        for (case, sql, expect) in rows {
            match (run(sql), expect) {
                (Ok(result), Lineage(outputs, cref)) => {
                    let v = &result.graph.queries["v"];
                    let got: Vec<(&str, Vec<String>)> =
                        v.outputs.iter().map(|o| (o.name.as_str(), names(&o.ccon))).collect();
                    let want: Vec<(&str, Vec<String>)> = outputs
                        .iter()
                        .map(|(name, sources)| {
                            (*name, sources.iter().map(|s| s.to_string()).collect())
                        })
                        .collect();
                    assert_eq!(got, want, "{case}: outputs");
                    assert_eq!(names(&v.cref), *cref, "{case}: C_ref");
                }
                (Err(error), Error(is_expected)) => assert!(is_expected(&error), "{case}: {error}"),
                (got, _) => panic!("{case}: unexpected {got:?}"),
            }
        }
    }
}
