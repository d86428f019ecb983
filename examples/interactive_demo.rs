//! The demonstration walk-through of Section 3, as a scripted CLI that
//! mirrors the web UI's three sections (Configuration → Description →
//! Result, Figures 2–4).
//!
//! Pass a database name to explore the other demo datasets:
//! `cargo run --example interactive_demo -- mondial|imdb|nba`

use prism::core::session::SessionConfig;
use prism::core::DiscoveryConfig;
use prism::datasets::{imdb, mondial, nba};
use prism::DiscoveryService;
use std::sync::Arc;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "mondial".into());
    let db = Arc::new(match which.as_str() {
        "imdb" => imdb(42, 1),
        "nba" => nba(42, 1),
        _ => mondial(42, 1),
    });

    banner("Configuration");
    // Step 1: stand up the service over the frozen database (this is where
    // the Bayesian estimator trains, the paper's a-priori preprocessing),
    // then open an owned session — more sessions could run concurrently.
    let service = DiscoveryService::new(Arc::clone(&db), DiscoveryConfig::default());
    let config = SessionConfig::default();
    println!("  source database          : {}", db.name());
    println!("  target schema columns    : {}", config.target_columns);
    println!("  sample constraint rows   : {}", config.sample_rows);
    println!("  metadata constraints     : {}", config.with_metadata);
    println!(
        "  time limit per round     : {:?}",
        config.discovery.time_budget
    );
    println!(
        "  validation thread budget : {}",
        service.thread_budget().total()
    );
    let mut session = service.open_session(config);

    banner("Description");
    // Step 2: the constraint grid. (For IMDB/NBA the script adapts the
    // walk-through to that database's anchors.) `key` is a fragment of the
    // SQL of the mapping each walk-through is after.
    type Cells<'a> = Vec<(usize, &'a str)>;
    let (cells, metadata, key): (Cells<'_>, Cells<'_>, &str) = match which.as_str() {
        "imdb" => (
            vec![(0, "Seven Samurai || Casablanca"), (1, "Akira Kurosawa")],
            vec![(2, "DataType=='int' AND MinValue>='1900'")],
            "Directs.PersonId = Person.Id",
        ),
        "nba" => (
            vec![(0, "Lakers")],
            vec![
                (1, "DataType=='date'"),
                (2, "DataType=='int' AND MaxValue<='200'"),
            ],
            "Game.HomeTeam = Team.Id",
        ),
        _ => (
            vec![(0, "California || Nevada"), (1, "Lake Tahoe")],
            vec![(2, "DataType=='decimal' AND MinValue>='0'")],
            "Lake.Name, Lake.Area FROM Lake, geo_lake",
        ),
    };
    for (col, text) in &cells {
        println!("  sample[0][{col}]  := {text}");
        session.set_sample_cell(0, *col, *text).expect("valid cell");
    }
    for (col, text) in &metadata {
        println!("  metadata[{col}]  := {text}");
        session.set_metadata_cell(*col, *text).expect("valid cell");
    }

    // The frozen substrate is fully auditable: per-table column bytes
    // (data + null bitmaps + zone maps), exact CSR join-index bytes, and
    // an estimate of the keyword index.
    let mem = db.memory_report();
    println!(
        "  memory                   : {} B columns, {} B join indexes \
         ({} indexed columns, {} rows/block), ~{} B keyword index",
        mem.total_column_bytes(),
        mem.join_index_bytes(),
        mem.indexes.len(),
        mem.block_rows,
        mem.keyword_index_bytes,
    );

    banner("Start Searching!");
    // Step 3.
    let (n_queries, timed_out, stats) = {
        let result = session.start_searching().expect("search runs");
        (result.queries.len(), result.timed_out, result.stats.clone())
    };
    if timed_out {
        println!("  TIMEOUT: the round hit its time budget (reported as failure).");
    }
    println!(
        "  {} satisfying schema mapping queries ({} candidates, {} filters, \
         {} validations, {:?})",
        n_queries, stats.candidates, stats.filters, stats.validations, stats.elapsed
    );
    println!(
        "  execution work           : {} rows examined, {} index probes, \
         {} blocks zone-pruned, {} failed sub-searches skipped",
        stats.exec.rows_examined,
        stats.exec.index_probes,
        stats.exec.blocks_skipped,
        stats.exec.nogood_hits
    );
    let cache = service.plan_cache();
    println!(
        "  service plan cache       : {} classes, {} hits / {} misses \
         (a second session on these constraints compiles nothing)",
        cache.entries, cache.hits, cache.misses
    );

    banner("Result");
    // Step 4: browse queries, view SQL and the explanation graph.
    for i in 0..n_queries.min(5) {
        println!("  [{i}] {}", session.result_sql(i).unwrap());
    }
    // CI runs this demo as a smoke test: fail loudly if the walk-through
    // stops listing the mapping it is after.
    assert!(
        (0..n_queries).any(|i| session.result_sql(i).unwrap().contains(key)),
        "the {which} walk-through lost its key mapping ({key})"
    );
    println!("\n-- selecting query #0 (demo step 4.1) --");
    println!("SQL (Figure 4b):\n  {}\n", session.result_sql(0).unwrap());
    println!("query graph with all constraints (Figure 4c):");
    let graph = session.explain_result(0, None).unwrap();
    print!("{}", graph.to_ascii());
    println!("\nDOT:\n{}", graph.to_dot());
}

fn banner(title: &str) {
    println!("\n==================== {title} ====================");
}
