//! Impact analysis over a lineage graph — the paper's demonstration
//! scenario (§IV, steps 2–4): starting from a column about to change, find
//! every downstream column that may be affected, with the kind of each
//! impact and its distance in query hops.
//!
//! [`ImpactReport`] only packages a downstream
//! [`crate::query::QueryAnswer`]; the traversal itself is a
//! [`crate::query::QuerySpec`] run on the interned index, like every
//! other lineage question. Both backends' `impact_of` methods
//! (`LineageResult::impact_of`, `Engine::impact_of`) build one.

use crate::model::SourceColumn;
use crate::query::{ColumnMatch, QueryAnswer};
use serde::{Content, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The result of an impact analysis from one starting column.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactReport {
    /// The column whose change is being analysed.
    pub origin: SourceColumn,
    /// Every transitively-impacted column, with the merged kind of all
    /// shortest paths into it and its distance (in queries) from the
    /// origin. Private so it can never drift out of sync with the
    /// membership index; read it through [`ImpactReport::impacted`].
    impacted: Vec<ColumnMatch>,
    /// Structural membership index over `impacted`: deduplication is a
    /// set property, and [`ImpactReport::contains`] on wide cones is
    /// O(log n) instead of a linear scan.
    index: BTreeSet<SourceColumn>,
}

impl ImpactReport {
    /// Package a *downstream* [`QueryAnswer`] from `origin`, deriving the
    /// membership index.
    pub fn from_answer(origin: SourceColumn, answer: QueryAnswer) -> ImpactReport {
        let impacted = answer.columns;
        let index = impacted.iter().map(|c| c.column.clone()).collect();
        ImpactReport { origin, impacted, index }
    }

    /// The impacted columns, sorted by `(distance, column)`.
    pub fn impacted(&self) -> &[ColumnMatch] {
        &self.impacted
    }

    /// Number of impacted columns.
    pub fn len(&self) -> usize {
        self.impacted.len()
    }

    /// Whether nothing is impacted.
    pub fn is_empty(&self) -> bool {
        self.impacted.is_empty()
    }

    /// Impacted columns grouped by table, in name order.
    pub fn by_table(&self) -> BTreeMap<&str, Vec<&ColumnMatch>> {
        let mut out: BTreeMap<&str, Vec<&ColumnMatch>> = BTreeMap::new();
        for col in &self.impacted {
            out.entry(col.column.table.as_str()).or_default().push(col);
        }
        out
    }

    /// Names of all impacted tables.
    pub fn impacted_tables(&self) -> Vec<&str> {
        self.by_table().keys().copied().collect()
    }

    /// Whether `column` is impacted (an O(log n) set lookup).
    pub fn contains(&self, column: &SourceColumn) -> bool {
        self.index.contains(column)
    }
}

// Manual impl: the wire shape stays `{origin, impacted}` — the index is
// an internal acceleration structure, not part of the document.
impl Serialize for ImpactReport {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("origin".to_string(), self.origin.to_content()),
            ("impacted".to_string(), self.impacted.to_content()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::lineagex;
    use crate::infer::LineageResult;
    use crate::model::EdgeKind;
    use crate::query::QuerySpec;

    fn chain() -> LineageResult {
        // base.a -> mid.b (contribute), base.k referenced by mid;
        // mid.b -> top.c (contribute).
        lineagex(
            "CREATE TABLE base (a int, k int);
             CREATE VIEW mid AS SELECT a AS b FROM base WHERE k > 0;
             CREATE VIEW top AS SELECT b AS c FROM mid;",
        )
        .unwrap()
    }

    #[test]
    fn impact_follows_contribution_chain() {
        let report = chain().impact_of("base", "a");
        assert!(report.contains(&SourceColumn::new("mid", "b")));
        assert!(report.contains(&SourceColumn::new("top", "c")));
        let mid = report.impacted().iter().find(|c| c.column.table == "mid").unwrap();
        assert_eq!(mid.distance, 1);
        let top = report.impacted().iter().find(|c| c.column.table == "top").unwrap();
        assert_eq!(top.distance, 2);
    }

    #[test]
    fn impact_follows_references() {
        // base.k only appears in mid's WHERE — still impacts all of mid's
        // outputs, and transitively top's.
        let report = chain().impact_of("base", "k");
        assert!(report.contains(&SourceColumn::new("mid", "b")));
        assert!(report.contains(&SourceColumn::new("top", "c")));
        let mid = report.impacted().iter().find(|c| c.column.table == "mid").unwrap();
        assert_eq!(mid.kind, EdgeKind::Reference);
    }

    #[test]
    fn impact_of_leaf_is_empty() {
        let report = chain().impact_of("top", "c");
        assert!(report.is_empty());
        assert!(!report.contains(&SourceColumn::new("mid", "b")));
    }

    #[test]
    fn upstream_closure() {
        let answer = QuerySpec::new().from("top.c").upstream().run_on(&chain().graph);
        for (table, column) in [("mid", "b"), ("base", "a"), ("base", "k")] {
            assert!(answer.reaches(&SourceColumn::new(table, column)), "{table}.{column}");
        }
    }

    #[test]
    fn report_grouping() {
        let report = chain().impact_of("base", "a");
        assert_eq!(report.impacted_tables(), vec!["mid", "top"]);
        assert_eq!(report.by_table()["mid"].len(), 1);
    }

    #[test]
    fn report_serialises_without_the_index() {
        let report = chain().impact_of("base", "a");
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"origin\""), "{json}");
        assert!(json.contains("\"impacted\""), "{json}");
        assert!(!json.contains("\"index\""), "{json}");
    }

    /// The shortest path from `origin` to `target` as `(column, kind)`
    /// hops, `None` when `target` is not downstream.
    fn shortest_path(origin: &str, target: (&str, &str)) -> Option<Vec<(SourceColumn, EdgeKind)>> {
        let answer = QuerySpec::new().from(origin).to(target.0, target.1).run_on(&chain().graph);
        answer.path.map(|steps| steps.into_iter().map(|s| (s.column, s.kind)).collect())
    }

    #[test]
    fn path_between_explains_impact() {
        assert_eq!(
            shortest_path("base.a", ("top", "c")).expect("top.c is downstream of base.a"),
            vec![
                (SourceColumn::new("mid", "b"), EdgeKind::Contribute),
                (SourceColumn::new("top", "c"), EdgeKind::Contribute),
            ]
        );
    }

    #[test]
    fn path_between_mixes_edge_kinds() {
        let path = shortest_path("base.k", ("top", "c")).unwrap();
        // First hop is a reference (k only appears in mid's WHERE).
        assert_eq!(path[0], (SourceColumn::new("mid", "b"), EdgeKind::Reference));
    }

    #[test]
    fn path_between_none_when_unreachable() {
        assert!(shortest_path("top.c", ("base", "a")).is_none());
        // Trivial path to self is empty.
        assert!(shortest_path("base.a", ("base", "a")).unwrap().is_empty());
    }
}
