//! # lineagex-bench
//!
//! Experiment harnesses regenerating every artefact of the paper's
//! evaluation, plus criterion micro/macro benchmarks. One binary per
//! experiment id (see DESIGN.md §4):
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `fig2_example1` | Fig. 2 — Example 1 lineage, LineageX vs SQLLineage-like |
//! | `table1_rules` | Table I — one focused scenario per keyword rule |
//! | `fig4_traversal` | Fig. 4 — post-order traversal trace of Q3 |
//! | `fig5_impact` | Fig. 5 / §IV steps 1–4 — impact analysis walkthrough |
//! | `mimic_coverage` | §IV workload statistics + accuracy on MIMIC-like data |
//! | `llm_compare` | §IV — LLM-style vs full impact analysis |
//! | `explain_path` | §III connected mode — create-first order, Q3's trace, static vs connected agreement |
//! | `accuracy_sweep` | extension — F1 vs SQL-feature mix, ours vs baseline |
//! | `engine_bench` | extension — session engine: batch vs incremental vs parallel (`BENCH_engine.json`) |
//! | `query_bench` | extension — GraphQuery traversal throughput on the 200-view workload (`BENCH_query.json`) |

#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt::Display;

/// Print a boxed section header.
pub fn section(title: &str) {
    let bar = "=".repeat(title.len() + 4);
    println!("\n{bar}\n| {title} |\n{bar}");
}

/// Print an aligned two-column table.
pub fn table2(header: (&str, &str), rows: &[(String, String)]) {
    let w = rows.iter().map(|(a, _)| a.len()).chain([header.0.len()]).max().unwrap_or(10);
    println!("  {:<w$}  {}", header.0, header.1);
    println!("  {:-<w$}  {:-<30}", "", "");
    for (a, b) in rows {
        println!("  {a:<w$}  {b}");
    }
}

/// Format a float as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Render an iterator as a comma-joined string.
pub fn join<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    items.into_iter().map(|i| i.to_string()).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn join_formats() {
        assert_eq!(join(["a", "b"]), "a, b");
        assert_eq!(join(Vec::<String>::new()), "");
    }
}
