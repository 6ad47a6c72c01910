//! Mermaid flowchart export — renders table-level lineage as a
//! `flowchart LR` block that GitHub/GitLab render inline, with column
//! counts in the node labels. Column-level detail belongs to the DOT and
//! HTML backends; Mermaid graphs stay readable only at table granularity.

use lineagex_core::{LineageGraph, Node, NodeKind, Subgraph};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Render table-level lineage as a Mermaid flowchart.
pub fn to_mermaid(graph: &LineageGraph) -> String {
    render_mermaid(graph.nodes.values().map(|node| &**node), graph.table_edges())
}

/// Render a query answer's traversal cone ([`Subgraph`]) as a Mermaid
/// flowchart, at table granularity: relation edges are derived from the
/// cone's column edges.
pub fn subgraph_to_mermaid(subgraph: &Subgraph) -> String {
    let table_edges: BTreeSet<(String, String)> =
        subgraph.edges.iter().map(|e| (e.from.table.clone(), e.to.table.clone())).collect();
    render_mermaid(subgraph.nodes.values(), table_edges.into_iter().collect())
}

fn render_mermaid<'a>(
    nodes: impl Iterator<Item = &'a Node>,
    table_edges: Vec<(String, String)>,
) -> String {
    let mut out = String::from("flowchart LR\n");
    for node in nodes {
        let shape = match node.kind {
            // Base tables as cylinders, views as rounded boxes, externals
            // as hexagons.
            NodeKind::BaseTable => ("[(", ")]"),
            NodeKind::External => ("{{", "}}"),
            _ => ("(", ")"),
        };
        writeln!(
            out,
            "  {}{}\"{} ({} cols)\"{}",
            mermaid_id(&node.name),
            shape.0,
            node.name.replace('"', "'"),
            node.columns.len(),
            shape.1
        )
        .expect("write to string");
    }
    for (from, to) in table_edges {
        writeln!(out, "  {} --> {}", mermaid_id(&from), mermaid_id(&to)).expect("write to string");
    }
    out
}

/// Mermaid node ids must be bare words.
fn mermaid_id(name: &str) -> String {
    let cleaned: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    format!("n_{cleaned}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_core::lineagex;

    #[test]
    fn renders_flowchart() {
        let graph = lineagex(
            "CREATE TABLE t (a int);
             CREATE VIEW v AS SELECT a FROM t;",
        )
        .unwrap()
        .graph;
        let mmd = to_mermaid(&graph);
        assert!(mmd.starts_with("flowchart LR"));
        assert!(mmd.contains("n_t[(\"t (1 cols)\")]"), "{mmd}");
        assert!(mmd.contains("n_v(\"v (1 cols)\")"), "{mmd}");
        assert!(mmd.contains("n_t --> n_v"), "{mmd}");
    }

    #[test]
    fn subgraph_renders_the_cone_at_table_level() {
        use lineagex_core::LineageView;
        let mut result = lineagex(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a FROM t;
             CREATE VIEW unrelated AS SELECT b FROM t;",
        )
        .unwrap();
        let answer = result.query().from("t.a").downstream().run().unwrap();
        let mmd = subgraph_to_mermaid(&answer.subgraph);
        assert!(mmd.contains("n_t --> n_v"), "{mmd}");
        assert!(!mmd.contains("unrelated"), "{mmd}");
        // Cone nodes report their touched column counts.
        assert!(mmd.contains("\"t (1 cols)\""), "{mmd}");
    }

    #[test]
    fn sanitises_weird_names() {
        assert_eq!(mermaid_id("a b.c"), "n_a_b_c");
        let graph = lineagex(r#"CREATE VIEW v AS SELECT x.k FROM "odd name" x"#).unwrap().graph;
        let mmd = to_mermaid(&graph);
        assert!(mmd.contains("n_odd_name"), "{mmd}");
        // Externals render as hexagons.
        assert!(mmd.contains("{{"), "{mmd}");
    }
}
