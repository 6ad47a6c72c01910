//! Structural sharing between the revisions a session publishes.
//!
//! A `LineageGraph`'s containers keep their entries in bounded-size
//! leaves shared between revisions (`lineagex_core::shared`). A write
//! that re-extracts one component's cone must publish a revision that
//! copies only the leaves holding that component's keys: every other
//! leaf of the query map, the node map and the processing order is the
//! previous revision's own, pointer for pointer. A write that changes
//! the catalog or drops a view settles only the nodes of the keys it
//! touched, so it copies only the node leaves around those keys. The
//! containers' behaviour against `BTreeMap`/`Vec` is proptested in the
//! core crate (`cargo test -p lineagex-core shared`).

use lineagex::core::SharedMap;
use lineagex::datasets::{generate_scaled, ScaleConfig};
use lineagex::engine::Engine;
use std::sync::Arc;

/// Leaves of `old` and `new` that hold no key `inside` accepts must be
/// the same leaves; returns how many there are.
fn shared_outside<V>(
    old: &SharedMap<String, V>,
    new: &SharedMap<String, V>,
    inside: impl Fn(&str) -> bool,
) -> usize {
    let outside = |map: &SharedMap<String, V>| -> Vec<*const (String, V)> {
        map.leaves()
            .filter(|leaf| !leaf.is_empty() && leaf.iter().all(|(key, _)| !inside(key)))
            .map(|leaf| leaf.as_ptr())
            .collect()
    };
    let (old_leaves, new_leaves) = (outside(old), outside(new));
    assert_eq!(old_leaves, new_leaves, "a leaf outside the written component was copied");
    new_leaves.len()
}

/// How many of `new`'s leaves are not `old`'s.
fn copied<V>(old: &SharedMap<String, V>, new: &SharedMap<String, V>) -> usize {
    new.leaves().filter(|leaf| !old.leaves().any(|o| o.as_ptr() == leaf.as_ptr())).count()
}

/// Leaves of `old` whose key range (from their first key up to the next
/// leaf's first key) holds none of `keys` must be leaves of `new`;
/// returns how many there are.
fn kept_outside<V>(old: &SharedMap<String, V>, new: &SharedMap<String, V>, keys: &[&str]) -> usize {
    let leaves: Vec<&[(String, V)]> = old.leaves().filter(|leaf| !leaf.is_empty()).collect();
    let mut kept = 0;
    for (j, leaf) in leaves.iter().enumerate() {
        let low = (j > 0).then(|| leaf[0].0.as_str());
        let high = leaves.get(j + 1).map(|next| next[0].0.as_str());
        let covers =
            |key: &&str| low.is_none_or(|low| low <= *key) && high.is_none_or(|h| *key < h);
        if !keys.iter().any(covers) {
            let shared = new.leaves().any(|l| l.as_ptr() == leaf.as_ptr());
            assert!(shared, "a leaf outside the written keys was copied");
            kept += 1;
        }
    }
    kept
}

/// 10 components of 200 views each, settled and published.
fn ten_components() -> Engine {
    let workload = generate_scaled(&ScaleConfig::new(21, 10, 50, 50));
    let mut engine = Engine::new();
    engine.ingest(&workload.full_sql()).unwrap();
    engine
}

#[test]
fn a_one_view_write_shares_every_leaf_outside_its_component() {
    let mut engine = ten_components();
    let before = engine.publish().unwrap();

    // Redefine one view deep in component 3: its cone is 124 views.
    let write = "CREATE VIEW c3_a25 AS SELECT v0, v1, v2 FROM c3_m24 WHERE v1 > 1000";
    engine.ingest(write).unwrap();
    let after = engine.publish().unwrap();
    assert_eq!(after.revision, before.revision + 1);
    assert_eq!(engine.stats().last_refresh_extractions, 124);
    // Re-extracted, so a new entry (with the same lineage: the predicate
    // constant is no column).
    assert!(!Arc::ptr_eq(&after.graph.queries["c3_a25"], &before.graph.queries["c3_a25"]));
    assert_eq!(after.graph.queries.len(), before.graph.queries.len());

    let inside = |key: &str| key.starts_with("c3_");
    let (old, new) = (&before.graph, &after.graph);
    assert!(shared_outside(&old.queries, &new.queries, inside) > 20);
    assert!(shared_outside(&old.nodes, &new.nodes, inside) > 20);
    // The component's own leaves were copied, and only those.
    assert!((1..=8).contains(&copied(&old.queries, &new.queries)));
    assert!((1..=8).contains(&copied(&old.nodes, &new.nodes)));

    // The cone moved to the end of the processing order: every leaf
    // holding none of the component's ids is shared, except the old
    // last leaf, which the moved ids were appended to.
    let order_outside = |leaves: Vec<&[String]>| -> Vec<*const String> {
        leaves
            .into_iter()
            .filter(|leaf| !leaf.is_empty() && leaf.iter().all(|id| !inside(id)))
            .map(|leaf| leaf.as_ptr())
            .collect()
    };
    let mut old_order = old.order.leaves().collect::<Vec<_>>();
    old_order.pop();
    let new_order = order_outside(new.order.leaves().collect());
    for leaf in order_outside(old_order) {
        assert!(new_order.contains(&leaf), "an order leaf without the component's ids was copied");
    }
    assert!(new.order.iter().skip(new.order.len() - 124).all(|id| inside(id)));
}

#[test]
fn a_ddl_write_shares_every_node_leaf_outside_its_key() {
    let mut engine = ten_components();
    let before = engine.publish().unwrap();

    // A new base table that nothing scans: one node, no extraction.
    engine.ingest("CREATE TABLE extra (id int, v0 int)").unwrap();
    let after = engine.publish().unwrap();
    assert_eq!(after.revision, before.revision + 1);
    assert_eq!(engine.stats().last_refresh_extractions, 0);
    assert_eq!(after.graph.nodes["extra"].columns, vec!["id", "v0"]);
    let (old, new) = (&before.graph, &after.graph);
    assert_eq!(copied(&old.queries, &new.queries), 0);
    assert_eq!(kept_outside(&old.nodes, &new.nodes, &["extra"]), old.nodes.leaves().count() - 1);
    assert!((1..=2).contains(&copied(&old.nodes, &new.nodes)));
}

#[test]
fn a_drop_shares_every_node_leaf_outside_its_key() {
    let mut engine = ten_components();
    let before = engine.publish().unwrap();

    // Dropping a view nothing scans retracts its query and its node.
    engine.ingest("DROP VIEW c9_leaf49").unwrap();
    let after = engine.publish().unwrap();
    assert!(after.revision > before.revision);
    assert_eq!(engine.stats().last_refresh_extractions, 0);
    let (old, new) = (&before.graph, &after.graph);
    assert!(!new.queries.contains_key("c9_leaf49"));
    assert!(!new.nodes.contains_key("c9_leaf49"));
    let leaves = old.nodes.leaves().count();
    assert_eq!(kept_outside(&old.nodes, &new.nodes, &["c9_leaf49"]), leaves - 1);
    assert_eq!(copied(&old.nodes, &new.nodes), 1);
    assert_eq!(copied(&old.queries, &new.queries), 1);
}
