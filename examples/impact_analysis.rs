//! The paper's demonstration scenario (§IV): an impact analysis of the
//! `web.page` column over Example 1, step by step.
//!
//! ```sh
//! cargo run --example impact_analysis
//! ```

use lineagex::datasets::example1;
use lineagex::prelude::*;

/// One explore click: the tables one hop downstream of `table`.
fn explore(result: &mut LineageResult, table: &str) -> Result<Vec<String>, LineageError> {
    let answer = result.query().from_table(table).table_level().max_depth(1).run()?;
    Ok(answer.relations.into_iter().filter(|r| r.distance == 1).map(|r| r.name).collect())
}

fn main() -> Result<(), LineageError> {
    // Step 1 — get started: feed the query log to LineageX.
    let mut result = lineagex(&example1::full_log())?;
    println!("Step 1: extracted lineage for {} queries", result.graph.queries.len());

    // Step 2 — locating the table: the owner wants to edit web.page.
    let web = &result.graph.nodes["web"];
    println!("\nStep 2: table `web` has columns {:?}", web.columns);

    // Step 3 — navigating column dependencies, one explore click at a time.
    let first_hop = explore(&mut result, "web")?;
    println!("\nStep 3: explore(web) -> downstream {first_hop:?}");
    for table in &first_hop {
        let next = explore(&mut result, table)?;
        println!("        explore({table}) -> downstream {next:?}");
    }

    // Step 4 — solving the case: the full impact set.
    let impact = result.impact_of("web", "page");
    println!("\nStep 4: impact of editing web.page ({} columns):", impact.impacted().len());
    for (table, cols) in impact.by_table() {
        let rendered: Vec<String> =
            cols.iter().map(|c| format!("{} ({:?})", c.column.column, c.kind)).collect();
        println!("  {table}: {}", rendered.join(", "));
    }

    // Cross-check against the paper's stated answer.
    let expected = example1::expected_page_impact();
    let all_found = expected.iter().all(|(t, c)| impact.contains(&SourceColumn::new(*t, *c)));
    assert!(all_found && impact.impacted().len() == expected.len());
    println!("\n✔ matches the paper's §IV step 4 answer exactly");

    Ok(())
}
