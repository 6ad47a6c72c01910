//! Graphviz DOT export.
//!
//! Each relation becomes a record-shaped node with one port per column, so
//! column-level edges attach to the right row. Edge colours follow the
//! paper's palette: contribute = black, reference = blue, both = orange.

use lineagex_core::{Edge, EdgeKind, LineageGraph, Node, NodeKind, Subgraph};
use std::fmt::Write;

/// Render a lineage graph as Graphviz DOT.
pub fn to_dot(graph: &LineageGraph) -> String {
    render_dot(graph.nodes.values().map(|node| &**node), &graph.all_edges())
}

/// Render a query answer's traversal cone ([`Subgraph`]) as Graphviz DOT
/// — the slice a [`lineagex_core::GraphQuery`] touched, instead of the
/// whole graph.
pub fn subgraph_to_dot(subgraph: &Subgraph) -> String {
    render_dot(subgraph.nodes.values(), &subgraph.edges)
}

fn render_dot<'a>(nodes: impl Iterator<Item = &'a Node>, edges: &[Edge]) -> String {
    let mut out = String::new();
    out.push_str("digraph lineage {\n");
    out.push_str("  rankdir=LR;\n  node [shape=record, fontname=\"Helvetica\"];\n");

    for node in nodes {
        let fill = match node.kind {
            NodeKind::BaseTable => "#e8f0fe",
            NodeKind::View => "#fef7e0",
            NodeKind::Table => "#e6f4ea",
            NodeKind::QueryResult => "#f3e8fd",
            NodeKind::External => "#fce8e6",
        };
        let ports: Vec<String> =
            node.columns.iter().map(|c| format!("<{}> {}", sanitize_port(c), escape(c))).collect();
        let label = if ports.is_empty() {
            escape(&node.name)
        } else {
            format!("{} | {}", escape(&node.name), ports.join(" | "))
        };
        writeln!(
            out,
            "  \"{}\" [label=\"{{{label}}}\", style=filled, fillcolor=\"{fill}\"];",
            escape(&node.name)
        )
        .expect("write to string");
    }

    for edge in edges {
        let (color, style) = match edge.kind {
            EdgeKind::Contribute => ("black", "solid"),
            EdgeKind::Reference => ("blue", "dashed"),
            EdgeKind::Both => ("orange", "solid"),
        };
        writeln!(
            out,
            "  \"{}\":{} -> \"{}\":{} [color={color}, style={style}];",
            escape(&edge.from.table),
            sanitize_port(&edge.from.column),
            escape(&edge.to.table),
            sanitize_port(&edge.to.column),
        )
        .expect("write to string");
    }

    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

/// Graphviz port names must be alphanumeric.
fn sanitize_port(s: &str) -> String {
    let cleaned: String =
        s.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    format!("p_{cleaned}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_core::lineagex;

    #[test]
    fn dot_contains_nodes_ports_and_colored_edges() {
        let graph = lineagex(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a FROM t WHERE b > 0;",
        )
        .unwrap()
        .graph;
        let dot = to_dot(&graph);
        assert!(dot.starts_with("digraph lineage {"));
        assert!(dot.contains("rankdir=LR"));
        assert!(dot.contains("\"t\""), "{dot}");
        assert!(dot.contains("<p_a> a"), "{dot}");
        assert!(dot.contains("color=black"), "{dot}");
        assert!(dot.contains("color=blue"), "{dot}");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn both_edges_are_orange() {
        let graph = lineagex(
            "CREATE TABLE t (a int);
             CREATE VIEW v AS SELECT a FROM t WHERE a > 0;",
        )
        .unwrap()
        .graph;
        let dot = to_dot(&graph);
        assert!(dot.contains("color=orange"), "{dot}");
    }

    #[test]
    fn weird_column_names_are_sanitised() {
        assert_eq!(sanitize_port("?column?"), "p__column_");
        assert_eq!(sanitize_port("a b"), "p_a_b");
    }

    #[test]
    fn subgraph_renders_only_the_cone() {
        use lineagex_core::{LineageView, QuerySpec};
        let mut result = lineagex(
            "CREATE TABLE t (a int, b int);
             CREATE VIEW v AS SELECT a FROM t;
             CREATE VIEW unrelated AS SELECT b FROM t;",
        )
        .unwrap();
        let answer = result.query().from("t.a").downstream().run().unwrap();
        let dot = subgraph_to_dot(&answer.subgraph);
        assert!(dot.contains("\"v\""), "{dot}");
        assert!(!dot.contains("unrelated"), "{dot}");
        // t's untouched column b stays out of the record label.
        assert!(dot.contains("<p_a> a"), "{dot}");
        assert!(!dot.contains("<p_b> b"), "{dot}");
        // The cone renderer and the full renderer agree on shape.
        let full = QuerySpec::new().from("t.a").from("t.b").run_on(&result.graph);
        assert!(subgraph_to_dot(&full.subgraph).contains("unrelated"));
    }
}
