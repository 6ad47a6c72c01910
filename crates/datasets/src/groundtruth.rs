//! Ground-truth lineage records and scoring helpers.

use lineagex_core::{LineageGraph, SortedSet, SourceColumn};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// The expected lineage of one workload, in the same vocabulary as
/// [`lineagex_core::QueryLineage`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct GroundTruth {
    /// Per query id: output column → expected `C_con` sources.
    pub ccon: BTreeMap<String, BTreeMap<String, BTreeSet<SourceColumn>>>,
    /// Per query id: expected `C_ref`.
    pub cref: BTreeMap<String, BTreeSet<SourceColumn>>,
    /// Per query id: expected table lineage `T`.
    pub tables: BTreeMap<String, BTreeSet<String>>,
}

impl GroundTruth {
    /// Add one expected output column.
    pub fn expect_ccon(&mut self, query: &str, output: &str, sources: &[(&str, &str)]) {
        self.ccon.entry(query.to_string()).or_default().insert(
            output.to_string(),
            sources.iter().map(|(t, c)| SourceColumn::new(*t, *c)).collect(),
        );
    }

    /// Add expected referenced columns for a query.
    pub fn expect_cref(&mut self, query: &str, sources: &[(&str, &str)]) {
        self.cref
            .entry(query.to_string())
            .or_default()
            .extend(sources.iter().map(|(t, c)| SourceColumn::new(*t, *c)));
    }

    /// Add expected table lineage for a query.
    pub fn expect_tables(&mut self, query: &str, tables: &[&str]) {
        self.tables
            .entry(query.to_string())
            .or_default()
            .extend(tables.iter().map(|t| t.to_string()));
    }

    /// The expected contribute-edge set, for edge-level scoring.
    pub fn contribute_edges(&self) -> BTreeSet<(SourceColumn, SourceColumn)> {
        let mut out = BTreeSet::new();
        for (query, cols) in &self.ccon {
            for (output, sources) in cols {
                for src in sources {
                    out.insert((src.clone(), SourceColumn::new(query, output)));
                }
            }
        }
        out
    }

    /// Compare a graph against this ground truth, returning per-aspect
    /// exact-match failures (empty = perfect).
    pub fn diff(&self, graph: &LineageGraph) -> Vec<String> {
        let mut failures = Vec::new();
        for (query, expected_cols) in &self.ccon {
            let Some(actual) = graph.queries.get(query) else {
                failures.push(format!("missing query {query}"));
                continue;
            };
            let actual_cols: BTreeMap<&str, &SortedSet<SourceColumn>> =
                actual.outputs.iter().map(|o| (o.name.as_str(), &o.ccon)).collect();
            if actual.outputs.len() != expected_cols.len() {
                failures.push(format!(
                    "{query}: expected {} outputs, found {} ({:?})",
                    expected_cols.len(),
                    actual.outputs.len(),
                    actual.output_names(),
                ));
            }
            for (output, expected) in expected_cols {
                match actual_cols.get(output.as_str()) {
                    None => failures.push(format!("{query}.{output}: output missing")),
                    Some(actual) if *actual != expected => failures.push(format!(
                        "{query}.{output}: C_con mismatch\n  expected {expected:?}\n  actual   {actual:?}"
                    )),
                    _ => {}
                }
            }
        }
        for (query, expected) in &self.cref {
            if let Some(actual) = graph.queries.get(query) {
                if &actual.cref != expected {
                    failures.push(format!(
                        "{query}: C_ref mismatch\n  expected {expected:?}\n  actual   {:?}",
                        actual.cref
                    ));
                }
            }
        }
        for (query, expected) in &self.tables {
            if let Some(actual) = graph.queries.get(query) {
                if &actual.tables != expected {
                    failures.push(format!(
                        "{query}: table lineage mismatch\n  expected {expected:?}\n  actual   {:?}",
                        actual.tables
                    ));
                }
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_core::lineagex;

    #[test]
    fn diff_reports_perfect_match_as_empty() {
        let result = lineagex(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a FROM t WHERE b = 1;",
        )
        .unwrap();
        let mut gt = GroundTruth::default();
        gt.expect_ccon("v", "a", &[("t", "a")]);
        gt.expect_cref("v", &[("t", "b")]);
        gt.expect_tables("v", &["t"]);
        assert!(gt.diff(&result.graph).is_empty());
    }

    #[test]
    fn diff_detects_mismatches() {
        let result = lineagex(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a FROM t;",
        )
        .unwrap();
        let mut gt = GroundTruth::default();
        gt.expect_ccon("v", "a", &[("t", "b")]); // wrong on purpose
        let failures = gt.diff(&result.graph);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("C_con mismatch"));
    }

    #[test]
    fn contribute_edges_enumerate() {
        let mut gt = GroundTruth::default();
        gt.expect_ccon("v", "x", &[("t", "a"), ("t", "b")]);
        assert_eq!(gt.contribute_edges().len(), 2);
    }
}
