//! NBA scenario: low-resolution, metadata-heavy mapping with ambiguous
//! join routes.
//!
//! The analyst wants (team name, game date, score). She knows team names
//! are text like "Lakers", that the date column really is a date, and that
//! scores are integers in a plausible range — but no exact scores or dates.
//! Because `Game` references `Team` twice (home and away), Prism discovers
//! *both* join routes and the explanation graphs disambiguate them — the
//! exact situation Figure 4's interaction was designed for.
//!
//! Run with: `cargo run --example nba_metadata`

use prism::core::explain::{all_picks, explain};
use prism::core::{DiscoveryConfig, DiscoveryService, TargetConstraints};
use prism::datasets::nba;
use std::sync::Arc;

fn main() {
    let service = DiscoveryService::new(Arc::new(nba(42, 1)), DiscoveryConfig::default());
    let db = service.database();
    println!(
        "NBA: {} tables, {} join edges, {} rows\n",
        db.catalog().table_count(),
        db.graph().edge_count(),
        db.total_rows()
    );

    let constraints = TargetConstraints::parse(
        3,
        &[vec![Some("Lakers".to_string()), None, None]],
        &[
            None,
            Some("DataType == 'date'".to_string()),
            Some("DataType == 'int' AND MinValue >= '0' AND MaxValue <= '200'".to_string()),
        ],
    )
    .unwrap();
    println!("constraints:");
    println!("  column 0: Lakers                                    (keyword)");
    println!("  column 1: DataType == 'date'                        (metadata only)");
    println!("  column 2: DataType == 'int' AND 0 <= values <= 200  (metadata only)\n");

    let result = service.run(&constraints);
    println!(
        "{} satisfying queries in {:?}:",
        result.queries.len(),
        result.stats.elapsed
    );
    for q in &result.queries {
        println!("  {}", q.sql);
    }

    // Both parallel join routes must be present; explain both.
    let home = result
        .queries
        .iter()
        .find(|q| q.sql.contains("HomeTeam = Team.Id") && q.sql.contains("HomeScore"))
        .expect("home-route query");
    let away = result
        .queries
        .iter()
        .find(|q| q.sql.contains("AwayTeam = Team.Id") && q.sql.contains("AwayScore"))
        .expect("away-route query");

    for (label, q) in [("HOME route", home), ("AWAY route", away)] {
        println!("\n=== {label} ===\n{}\n", q.sql);
        let g = explain(db, &q.candidate, &constraints, &all_picks(&constraints));
        print!("{}", g.to_ascii());
        for row in q.candidate.query.execute(db, 3).unwrap() {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("  {}", cells.join(" | "));
        }
    }
}
