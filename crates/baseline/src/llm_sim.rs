//! A rule-based simulation of the paper's GPT-4o impact-analysis
//! comparison (§IV).
//!
//! The paper reports that GPT-4o, asked to analyse the impact of changing
//! `web.page`, "is able to correctly identify all contributing columns …
//! but it is not able to reveal the columns that are referenced (not
//! directly contributing)". That is a precise behavioural statement: the
//! LLM follows the value-flow (`C_con`) transitively and ignores `C_ref`.
//! [`llm_style_impact`] encodes exactly that, so the demo's comparison
//! can run offline.

use lineagex_core::{EdgeKind, LineageGraph, QuerySpec, SourceColumn};
use std::collections::BTreeSet;

/// Impact analysis the way the paper observed an LLM doing it: transitive
/// closure over *contribution* edges only — a downstream [`QuerySpec`]
/// that never crosses a referenced-only edge.
pub fn llm_style_impact(graph: &LineageGraph, origin: &SourceColumn) -> BTreeSet<SourceColumn> {
    QuerySpec::new()
        .from_column(&origin.table, &origin.column)
        .downstream()
        .edge_kind(EdgeKind::Contribute)
        .edge_kind(EdgeKind::Both)
        .run_on(graph)
        .columns
        .into_iter()
        .map(|m| m.column)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_core::lineagex;

    #[test]
    fn finds_contributing_misses_referenced() {
        let result = lineagex(
            "CREATE TABLE web (cid int, page text);
             CREATE VIEW v AS SELECT page AS p FROM web WHERE cid > 0;",
        )
        .unwrap();
        // page contributes to v.p — found.
        let found = llm_style_impact(&result.graph, &SourceColumn::new("web", "page"));
        assert!(found.contains(&SourceColumn::new("v", "p")));
        // cid is referenced-only — the LLM-style analysis misses it.
        let found = llm_style_impact(&result.graph, &SourceColumn::new("web", "cid"));
        assert!(found.is_empty());
    }

    #[test]
    fn transitive_contribution_followed() {
        let result = lineagex(
            "CREATE TABLE t (a int);
             CREATE VIEW v1 AS SELECT a AS b FROM t;
             CREATE VIEW v2 AS SELECT b AS c FROM v1;",
        )
        .unwrap();
        let found = llm_style_impact(&result.graph, &SourceColumn::new("t", "a"));
        assert!(found.contains(&SourceColumn::new("v1", "b")));
        assert!(found.contains(&SourceColumn::new("v2", "c")));
    }
}
