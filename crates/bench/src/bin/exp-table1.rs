//! T1 — reproduce Table 1 and the Section 3 demonstration walk-through.
//!
//! Runs the exact constraint set of the paper's demo against synthetic
//! Mondial, verifies the desired SQL query is discovered, and prints the
//! target-schema rows of Table 1 as produced by that query.
//!
//! Usage: `cargo run --release -p prism-bench --bin exp-table1`

use prism_bench::{render_table, timed};

use prism_core::explain::all_picks;
use prism_core::{DiscoveryConfig, DiscoveryService, TargetConstraints};
use prism_datasets::mondial;
use std::sync::Arc;

fn main() {
    let svc = DiscoveryService::new(Arc::new(mondial(42, 1)), DiscoveryConfig::default());
    let db = svc.database();
    println!("== T1: Table 1 / Section 3 walk-through (Mondial) ==\n");
    println!(
        "database: {} tables, {} join edges, {} rows",
        db.catalog().table_count(),
        db.graph().edge_count(),
        db.total_rows()
    );

    // Section 3 step 2: the user's multiresolution constraints.
    let constraints = TargetConstraints::parse(
        3,
        &[vec![
            Some("California || Nevada".to_string()),
            Some("Lake Tahoe".to_string()),
            None,
        ]],
        &[
            None,
            None,
            Some("DataType=='decimal' AND MinValue>='0'".to_string()),
        ],
    )
    .expect("walk-through constraints parse");
    println!("\nconstraints:");
    println!("  sample row:  [\"California || Nevada\", \"Lake Tahoe\", <empty>]");
    println!("  metadata  :  [ , , \"DataType=='decimal' AND MinValue>='0'\"]");

    let (result, wall) = timed(|| svc.run(&constraints));
    println!(
        "\ndiscovered {} satisfying schema mapping queries in {:?} \
         ({} candidates, {} filters, {} validations):",
        result.queries.len(),
        result.stats.elapsed,
        result.stats.candidates,
        result.stats.filters,
        result.stats.validations
    );
    println!("wall clock including result materialization: {wall:?} (budget: 60s)");
    for (i, q) in result.queries.iter().enumerate() {
        println!("  #{i}: {}", q.sql);
    }

    let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
    let hit = result
        .queries
        .iter()
        .find(|q| q.sql == want)
        .expect("the paper's desired query must be discovered");

    // Table 1: execute the desired query and print the paper's rows.
    println!("\nTable 1 (desired target schema), as produced by the discovered query:");
    let rows = hit.candidate.query.execute(db, 10_000).unwrap();
    let mut table = vec![vec![
        "State".to_string(),
        "Lake Name".to_string(),
        "Area (km2)".to_string(),
    ]];
    for (state, lake) in [
        ("California", "Lake Tahoe"),
        ("Oregon", "Crater Lake"),
        ("Florida", "Fort Peck Lake"),
    ] {
        let row = rows
            .iter()
            .find(|r| r[0] == prism_db::Value::text(state) && r[1] == prism_db::Value::text(lake))
            .unwrap_or_else(|| panic!("Table 1 row ({state}, {lake}) missing"));
        table.push(vec![
            row[0].to_string(),
            row[1].to_string(),
            row[2].to_string(),
        ]);
    }
    print!("{}", render_table(&table));

    // Figure 4b/4c: SQL + explanation graph with all constraints drawn.
    println!("\nFigure 4b (SQL of the selected query):\n  {}", hit.sql);
    let graph =
        prism_core::explain::explain(db, &hit.candidate, &constraints, &all_picks(&constraints));
    println!("\nFigure 4c (query graph with all constraints):");
    print!("{}", graph.to_ascii());
    println!("\nGraphviz DOT:\n{}", graph.to_dot());
    println!("T1 PASS: desired query discovered and Table 1 reproduced.");
}
