//! The unified read surface over every lineage backend.
//!
//! The workspace grew two front doors: the batch
//! [`LineageResult`] (one-shot extraction over a
//! whole log) and the incremental session engine (`lineagex-engine`'s
//! `Engine`). [`LineageView`] is the one contract both implement —
//! graph access, per-query lineage, diagnostics, stats, the
//! [`GraphQuery`] builder, and the versioned [`ReportV2`] wire document —
//! so application code is written once and runs against either backend,
//! the way SMOKE separates lineage *capture* from lineage *querying*.
//!
//! Methods take `&mut self` because an incremental backend settles lazily
//! (ingests are cheap; the first question after a burst pays for the
//! re-extraction). For the batch result settling is a no-op.

use crate::diagnostics::Diagnostic;
use crate::error::LineageError;
use crate::graph::GraphIndex;
use crate::infer::LineageResult;
use crate::model::{GraphStats, LineageGraph, SourceColumn};
use crate::query::GraphQuery;
use crate::report::ReportV2;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A queryable view over a settled lineage graph, implemented by both the
/// batch [`LineageResult`] and the session `Engine`.
pub trait LineageView {
    /// Settle the backend (re-extract anything pending) and borrow the
    /// lineage graph.
    fn settled_graph(&mut self) -> Result<&LineageGraph, LineageError>;

    /// Run-/session-level diagnostics: parse errors, skipped statements,
    /// duplicate ids. Per-query extraction diagnostics live on the
    /// graph's lineage records.
    fn run_diagnostics(&self) -> Vec<Diagnostic>;

    /// A short label for the backend (`"batch"`, `"session"`), for
    /// logging and UIs — deliberately *not* part of the wire documents,
    /// which must stay byte-identical across backends.
    fn backend_name(&self) -> &'static str;

    /// Settle the backend and return the interned traversal index
    /// ([`GraphIndex`]) over its graph — what [`GraphQuery::run`]
    /// traverses. The default builds a fresh index per call; both
    /// workspace backends override it (the batch result caches one
    /// behind a structural fingerprint, the session engine maintains
    /// one across revisions), so a burst of queries over one settled
    /// graph pays the build once.
    fn settled_index(&mut self) -> Result<Arc<GraphIndex>, LineageError> {
        Ok(Arc::new(GraphIndex::build(self.settled_graph()?)))
    }

    /// Start a composable [`GraphQuery`] over this view.
    ///
    /// ```
    /// use lineagex_core::{lineagex, LineageView};
    ///
    /// let mut result = lineagex(
    ///     "CREATE TABLE t (a int);
    ///      CREATE VIEW v AS SELECT a FROM t;",
    /// ).unwrap();
    /// let answer = result.query().from("t.a").downstream().run().unwrap();
    /// assert_eq!(answer.columns[0].column.to_string(), "v.a");
    /// ```
    fn query(&mut self) -> GraphQuery<'_, Self>
    where
        Self: Sized,
    {
        GraphQuery::new(self)
    }

    /// Full lineage of one output column, `C_con(c) ∪ C_ref(Q)`.
    fn column_lineage(
        &mut self,
        table: &str,
        column: &str,
    ) -> Result<Option<BTreeSet<SourceColumn>>, LineageError> {
        Ok(self.settled_graph()?.queries.get(table).and_then(|q| q.lineage_of(column)))
    }

    /// Summary statistics of the settled graph.
    fn graph_stats(&mut self) -> Result<GraphStats, LineageError> {
        Ok(self.settled_graph()?.stats())
    }

    /// The versioned wire document ([`ReportV2`], `schema_version: 2`)
    /// over the settled graph: graph, per-query lineage, embedded
    /// diagnostics, and stats, rendered when serialised. Byte-identical
    /// across backends for equal graphs and diagnostics. The default
    /// copies [`LineageView::run_diagnostics`]; both workspace backends
    /// override it to borrow them.
    fn report_v2(&mut self) -> Result<ReportV2<'_>, LineageError> {
        self.settled_graph()?;
        let diagnostics = self.run_diagnostics();
        let graph = self.settled_graph()?;
        Ok(ReportV2::new(graph, Cow::Owned(diagnostics)))
    }
}

impl LineageView for LineageResult {
    fn settled_graph(&mut self) -> Result<&LineageGraph, LineageError> {
        Ok(&self.graph)
    }

    fn run_diagnostics(&self) -> Vec<Diagnostic> {
        self.diagnostics.clone()
    }

    fn backend_name(&self) -> &'static str {
        "batch"
    }

    fn settled_index(&mut self) -> Result<Arc<GraphIndex>, LineageError> {
        Ok(self.index.get_or_build(&self.graph))
    }

    fn report_v2(&mut self) -> Result<ReportV2<'_>, LineageError> {
        Ok(ReportV2::from_graph(&self.graph, &self.diagnostics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::lineagex;

    fn result() -> LineageResult {
        lineagex(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a FROM t WHERE b > 0;",
        )
        .unwrap()
    }

    #[test]
    fn batch_result_is_a_view() {
        let mut view = result();
        assert_eq!(view.backend_name(), "batch");
        assert!(view.run_diagnostics().is_empty());
        let graph = view.settled_graph().unwrap();
        assert!(graph.queries.contains_key("v"));
        let stats = view.graph_stats().unwrap();
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn column_lineage_through_the_trait() {
        let mut view = result();
        let lineage = view.column_lineage("v", "a").unwrap().unwrap();
        assert!(lineage.contains(&SourceColumn::new("t", "a")));
        assert!(lineage.contains(&SourceColumn::new("t", "b")));
        assert!(view.column_lineage("v", "ghost").unwrap().is_none());
    }

    #[test]
    fn query_builder_through_the_trait() {
        let mut view = result();
        let answer = view.query().from("t.a").downstream().run().unwrap();
        assert_eq!(answer.columns.len(), 1);
    }

    #[test]
    fn report_v2_through_the_trait() {
        let mut view = result();
        let json = view.report_v2().unwrap().to_json();
        let expected = ReportV2::from_graph(&view.graph, &view.diagnostics).to_json();
        assert_eq!(json, expected);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["schema_version"], 2);
        assert_eq!(parsed["queries"]["v"]["kind"], "view");
    }

    #[test]
    fn batch_view_caches_its_index() {
        let mut view = result();
        let first = view.settled_index().unwrap();
        let second = view.settled_index().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "repeat queries must reuse the index");
        assert!(first.lookup_column("v", "a").is_some());
        // Builder answers come off the same index and stay correct.
        let answer = view.query().from("t.a").downstream().run().unwrap();
        assert_eq!(answer.columns[0].column, SourceColumn::new("v", "a"));
    }
}
