//! Warehouse-scale motivation scenario: a TPC-H-flavoured analytics
//! pipeline. Answers the governance question from the paper's intro —
//! "how would a change in an upstream column affect the downstream?" —
//! for `lineitem.l_discount`.
//!
//! ```sh
//! cargo run --example tpch_analytics
//! ```

use lineagex::datasets::tpch;
use lineagex::prelude::*;

fn main() -> Result<(), LineageError> {
    let (sql, ground_truth) = tpch::workload();
    let mut result = lineagex(&sql)?;

    let stats = result.graph.stats();
    println!("TPC-H-like pipeline:");
    println!("  relations            : {}", stats.relations);
    println!("  columns              : {}", stats.columns);
    println!("  contribute edges     : {}", stats.contribute_edges);
    println!("  reference edges      : {}", stats.reference_edges);
    println!("  both edges           : {}", stats.both_edges);
    println!("  max pipeline depth   : {}", stats.max_pipeline_depth);

    let failures = ground_truth.diff(&result.graph);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    println!("  ✔ lineage matches ground truth\n");

    // The impact question.
    let impact = result.impact_of("lineitem", "l_discount");
    println!(
        "impact of lineitem.l_discount: {} columns across {:?}",
        impact.impacted().len(),
        impact.impacted_tables()
    );

    // And the explanation: how does the discount reach the top-customer
    // report?
    let path = result
        .query()
        .from("lineitem.l_discount")
        .to("top_customers", "total_revenue")
        .run()?
        .path
        .expect("discount flows into total_revenue");
    println!("\nwhy does it reach top_customers.total_revenue?");
    println!("  lineitem.l_discount");
    for step in path {
        println!("    -> {} ({:?})", step.column, step.kind);
    }

    Ok(())
}
