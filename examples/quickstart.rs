//! Quickstart: build a tiny database, describe the target schema with
//! multiresolution constraints, and discover the mapping query.
//!
//! Run with: `cargo run --example quickstart`

use prism::core::{DiscoveryConfig, DiscoveryService, TargetConstraints};
use prism::db::{ColumnDef, DataType, DatabaseBuilder, Value};
use std::sync::Arc;

fn main() {
    // 1. A miniature source database: lakes and where they are.
    let mut b = DatabaseBuilder::new("minimal");
    b.add_table(
        "Lake",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Area", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_table(
        "geo_lake",
        vec![
            ColumnDef::new("Lake", DataType::Text).not_null(),
            ColumnDef::new("State", DataType::Text).not_null(),
        ],
    )
    .unwrap();
    b.add_rows(
        "Lake",
        vec![
            vec!["Lake Tahoe".into(), Value::Decimal(497.0)],
            vec!["Crater Lake".into(), Value::Decimal(53.2)],
            vec!["Fort Peck Lake".into(), Value::Decimal(981.0)],
        ],
    )
    .unwrap();
    b.add_rows(
        "geo_lake",
        vec![
            vec!["Lake Tahoe".into(), "California".into()],
            vec!["Lake Tahoe".into(), "Nevada".into()],
            vec!["Crater Lake".into(), "Oregon".into()],
            vec!["Fort Peck Lake".into(), "Montana".into()],
        ],
    )
    .unwrap();
    b.add_foreign_key("geo_lake", "Lake", "Lake", "Name")
        .unwrap();
    let db = b.build(); // preprocessing: index, stats, schema graph

    // 2. Describe the desired 3-column target schema at mixed resolution:
    //    a keyword disjunction, an exact keyword, and type-level metadata.
    let constraints = TargetConstraints::parse(
        3,
        &[vec![
            Some("California || Nevada".to_string()), // medium resolution
            Some("Lake Tahoe".to_string()),           // high resolution
            None,                                     // no sample value at all
        ]],
        &[
            None,
            None,
            Some("DataType=='decimal' AND MinValue>='0'".to_string()), // low resolution
        ],
    )
    .expect("constraints parse");

    // 3. Discover satisfying Project-Join queries.
    let service = DiscoveryService::new(Arc::new(db), DiscoveryConfig::default());
    let result = service.run(&constraints);

    println!(
        "discovered {} satisfying schema mapping queries in {:?}:",
        result.queries.len(),
        result.stats.elapsed
    );
    for q in &result.queries {
        println!("  {}", q.sql);
        for row in &q.preview {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("    -> {}", cells.join(" | "));
        }
    }

    // CI runs this example as a smoke test: fail loudly if the walk-through
    // stops producing the join query that recovers Lake Tahoe's states.
    let recovered = result.queries.iter().any(|q| {
        q.preview.iter().any(|row| {
            row.contains(&Value::text("Lake Tahoe")) && row.contains(&Value::text("California"))
        })
    });
    assert!(
        recovered,
        "quickstart discovery lost the (California, Lake Tahoe) walk-through row"
    );
    println!("quickstart OK: walk-through row recovered.");
}
