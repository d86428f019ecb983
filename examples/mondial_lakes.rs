//! The paper's motivating example (Sections 1 and 3) on synthetic Mondial:
//! list all lakes, their area, and the states they belong to — without
//! knowing the schema, using multiresolution constraints.
//!
//! Prints the discovered SQL (Figure 4b), the explanation query graph with
//! all constraints drawn in (Figure 4c, ASCII + Graphviz DOT), and the
//! resulting target table (Table 1).
//!
//! Run with: `cargo run --example mondial_lakes`

use prism::core::explain::{all_picks, explain, ConstraintPick};
use prism::core::{DiscoveryConfig, DiscoveryService, TargetConstraints};
use prism::datasets::mondial;
use std::sync::Arc;

fn main() {
    let service = DiscoveryService::new(Arc::new(mondial(42, 1)), DiscoveryConfig::default());
    let db = service.database();
    println!(
        "Mondial: {} tables, {} join edges, {} rows\n",
        db.catalog().table_count(),
        db.graph().edge_count(),
        db.total_rows()
    );

    // The user knows: Lake Tahoe is near California or Nevada; areas are
    // non-negative decimals. She does NOT know the exact area.
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
    .unwrap();

    let result = service.run(&constraints);
    println!(
        "{} satisfying queries in {:?} ({} validations over {} filters)",
        result.queries.len(),
        result.stats.elapsed,
        result.stats.validations,
        result.stats.filters
    );

    // The user browses the result list and picks the right one.
    let desired = result
        .queries
        .iter()
        .find(|q| q.sql.contains("Lake.Name") && q.sql.contains("Lake.Area"))
        .expect("desired query discovered");
    println!("\nselected query (Figure 4b):\n  {}\n", desired.sql);

    println!("query graph with all constraints (Figure 4c):");
    let g = explain(
        db,
        &desired.candidate,
        &constraints,
        &all_picks(&constraints),
    );
    print!("{}", g.to_ascii());

    println!("\nsame graph, single constraint picked (demo step 4.3):");
    let g1 = explain(
        db,
        &desired.candidate,
        &constraints,
        &[ConstraintPick::Value {
            sample: 0,
            column: 1,
        }],
    );
    print!("{}", g1.to_ascii());

    println!("\nGraphviz DOT (render with `dot -Tpng`):\n{}", g.to_dot());

    println!("target table (first rows):");
    let rows = desired.candidate.query.execute(db, 8).unwrap();
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  {}", cells.join(" | "));
    }
}
