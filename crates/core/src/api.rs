//! The public entry points, mirroring the Python library's one-call API
//! (`lineagex(sql=...)` in the paper's Fig. 5, step 1).

use crate::error::LineageError;
use crate::impact::ImpactReport;
use crate::infer::{InferenceEngine, LineageResult};
use crate::model::{LineageGraph, SourceColumn};
use crate::options::{AmbiguityPolicy, ExtractOptions};
use crate::preprocess::QueryDict;
use crate::query::QuerySpec;
use crate::report::JsonReport;
use lineagex_catalog::Catalog;

/// Builder-style façade over the extraction pipeline.
///
/// ```
/// use lineagex_core::LineageX;
///
/// let result = LineageX::new()
///     .run("CREATE TABLE web (cid int, page text);
///           CREATE VIEW v AS SELECT page FROM web WHERE cid > 0;")
///     .unwrap();
/// assert_eq!(result.graph.queries["v"].output_names(), vec!["page"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LineageX {
    catalog: Catalog,
    options: ExtractOptions,
}

impl LineageX {
    /// A fresh pipeline with an empty catalog and default options.
    pub fn new() -> Self {
        LineageX::default()
    }

    /// Provide base-table schemas as a catalog.
    pub fn with_catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Provide base-table schemas as a `CREATE TABLE` DDL script.
    pub fn with_ddl(mut self, ddl: &str) -> Result<Self, LineageError> {
        self.catalog = Catalog::from_ddl(ddl).map_err(|e| LineageError::Parse(e.to_string()))?;
        Ok(self)
    }

    /// Set the ambiguity policy.
    pub fn ambiguity(mut self, policy: AmbiguityPolicy) -> Self {
        self.options.ambiguity = policy;
        self
    }

    /// Record per-query traversal traces (Fig. 4).
    pub fn trace(mut self) -> Self {
        self.options.trace = true;
        self
    }

    /// Disable the table/view auto-inference stack (ablation mode: later
    /// definitions no longer resolve earlier queries' `SELECT *`).
    pub fn without_auto_inference(mut self) -> Self {
        self.options.auto_inference = false;
        self
    }

    /// Enable lenient mode: unparsable statements, duplicate ids,
    /// unresolvable columns, and dependency cycles degrade into
    /// span-tagged [`crate::Diagnostic`]s (the affected lineage is marked
    /// partial) instead of aborting the run — extraction over query logs
    /// *as they are*, per the paper's §III promise.
    pub fn lenient(mut self) -> Self {
        self.options.lenient = true;
        self
    }

    /// Select the SQL dialect the log is lexed and parsed under. Defaults
    /// to the permissive ANSI core; a named dialect unlocks its grammar
    /// extensions (`QUALIFY`, `TOP n`, `MERGE`, dialect comment styles)
    /// and tightens quoting to that engine's rules.
    pub fn dialect(mut self, dialect: lineagex_sqlparse::DialectKind) -> Self {
        self.options.dialect = dialect;
        self
    }

    /// Run over a `;`-separated SQL script (query-log style).
    ///
    /// The catalog is *borrowed* for the run ([`InferenceEngine::over`]):
    /// repeated runs over a large catalog never deep-copy it, and
    /// [`ExtractOptions`] is plain `Copy` data.
    pub fn run(&self, sql: &str) -> Result<LineageResult, LineageError> {
        let qd = QueryDict::from_sql_dialect(sql, self.options.lenient, self.options.dialect)?;
        InferenceEngine::over(qd, &self.catalog, self.options).run()
    }

    /// Run over named sources (dbt-style, file name = query id).
    pub fn run_named<'a, I>(&self, sources: I) -> Result<LineageResult, LineageError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let qd = QueryDict::from_named_sources_dialect(
            sources,
            self.options.lenient,
            self.options.dialect,
        )?;
        InferenceEngine::over(qd, &self.catalog, self.options).run()
    }
}

/// One-call lenient convenience: like [`lineagex`], but messy logs —
/// syntax errors, duplicate ids, noise statements — degrade into
/// diagnostics instead of errors.
pub fn lineagex_lenient(sql: &str) -> Result<LineageResult, LineageError> {
    LineageX::new().lenient().run(sql)
}

/// One-call convenience: extract a lineage graph from a SQL script with
/// default options (the paper's `lineagex(sql)`).
pub fn lineagex(sql: &str) -> Result<LineageResult, LineageError> {
    LineageX::new().run(sql)
}

impl LineageResult {
    /// The JSON document (the paper's `output.json`).
    pub fn to_json_report(&self) -> JsonReport {
        JsonReport::from_graph(&self.graph)
    }

    /// Impact analysis from one column (paper §IV, step 4): a downstream
    /// [`QuerySpec`] with no depth limit or filters.
    pub fn impact_of(&self, table: &str, column: &str) -> ImpactReport {
        let answer = QuerySpec::new().from_column(table, column).downstream().run_on(&self.graph);
        ImpactReport::from_answer(SourceColumn::new(table, column), answer)
    }

    /// Borrow the graph.
    pub fn graph(&self) -> &LineageGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_call_api() {
        let result = lineagex(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a FROM t WHERE b = 1;",
        )
        .unwrap();
        assert!(result.graph.queries.contains_key("v"));
        let report = result.to_json_report();
        assert_eq!(report.queries["v"].referenced, vec!["t.b"]);
    }

    #[test]
    fn builder_with_ddl() {
        let result = LineageX::new()
            .with_ddl("CREATE TABLE web (cid int, page text)")
            .unwrap()
            .run("CREATE VIEW v AS SELECT * FROM web")
            .unwrap();
        assert_eq!(result.graph.queries["v"].output_names(), vec!["cid", "page"]);
    }

    #[test]
    fn named_sources_api() {
        let result = LineageX::new()
            .run_named([
                ("base_model", "SELECT w.page AS p FROM web w"),
                ("derived_model", "SELECT p FROM base_model"),
            ])
            .unwrap();
        assert!(result.graph.queries.contains_key("base_model"));
        assert_eq!(
            result.graph.queries["derived_model"].tables,
            std::collections::BTreeSet::from(["base_model".to_string()])
        );
    }

    #[test]
    fn impact_from_result() {
        let result = lineagex(
            "CREATE TABLE t (a int);
             CREATE VIEW v AS SELECT a AS x FROM t;",
        )
        .unwrap();
        let report = result.impact_of("t", "a");
        assert!(report.contains(&SourceColumn::new("v", "x")));
    }

    #[test]
    fn dialect_selection_reaches_the_parser() {
        let sql = "CREATE TABLE t (a int, rn int);
                   CREATE VIEW v AS SELECT a FROM t QUALIFY rn = 1;";
        let result =
            LineageX::new().dialect(lineagex_sqlparse::DialectKind::Snowflake).run(sql).unwrap();
        // QUALIFY contributes a referenced (C_ref) column, like HAVING.
        assert_eq!(result.to_json_report().queries["v"].referenced, vec!["t.rn"]);
        // Under the default ANSI grammar the same log is a parse error.
        assert!(LineageX::new().run(sql).is_err());
    }

    #[test]
    fn strict_policy_errors_on_ambiguity() {
        let sql = "CREATE TABLE a (k int); CREATE TABLE b (k int);
                   CREATE VIEW v AS SELECT k FROM a, b;";
        let err = LineageX::new().ambiguity(AmbiguityPolicy::Error).run(sql).unwrap_err();
        assert!(matches!(err, LineageError::AmbiguousColumn { .. }));
        // Default policy attributes to all.
        let result = LineageX::new().run(sql).unwrap();
        assert_eq!(result.graph.queries["v"].outputs[0].ccon.len(), 2);
    }
}
