//! IMDB scenario: a film student wants (movie title, year, director name)
//! but only half-remembers the facts — the paper's "marginal knowledge"
//! setting.
//!
//! She knows the movie is either Seven Samurai or Casablanca, was released
//! somewhere in the 1940s-1950s, and that directors have names — a value
//! disjunction, a numeric range, and a keyword, at three resolutions.
//!
//! Run with: `cargo run --example imdb_exploration`

use prism::core::{DiscoveryConfig, DiscoveryService, TargetConstraints};
use prism::datasets::imdb;
use std::sync::Arc;

fn main() {
    let service = DiscoveryService::new(Arc::new(imdb(42, 1)), DiscoveryConfig::default());
    let db = service.database();
    println!(
        "IMDB: {} tables, {} join edges, {} rows\n",
        db.catalog().table_count(),
        db.graph().edge_count(),
        db.total_rows()
    );

    let constraints = TargetConstraints::parse(
        3,
        &[vec![
            Some("Seven Samurai || Casablanca".to_string()),
            Some(">= 1940 && <= 1959".to_string()),
            Some("Akira Kurosawa".to_string()),
        ]],
        &[],
    )
    .unwrap();
    println!("constraints:");
    println!("  column 0: Seven Samurai || Casablanca   (disjunction)");
    println!("  column 1: >= 1940 && <= 1959             (value range)");
    println!("  column 2: Akira Kurosawa                 (exact keyword)\n");

    let result = service.run(&constraints);
    println!(
        "{} satisfying queries in {:?}:",
        result.queries.len(),
        result.stats.elapsed
    );
    for q in &result.queries {
        println!("  {}", q.sql);
    }

    // The mapping through Directs is the intended one; CastInfo-based
    // queries would also be listed if Kurosawa acted in a 1940s-50s movie.
    let direct = result
        .queries
        .iter()
        .find(|q| q.sql.contains("Directs"))
        .expect("director mapping discovered");
    println!("\nintended mapping:\n  {}", direct.sql);
    println!("\nrows:");
    for row in direct.candidate.query.execute(db, 5).unwrap() {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  {}", cells.join(" | "));
    }
}
