//! Bring your own data: build a source database from CSV, then run the
//! same multiresolution discovery the demo runs on Mondial.
//!
//! The CSVs here are embedded strings; in practice they would be
//! `std::fs::read_to_string(path)?`. Column types are inferred
//! (`int → decimal → date → time → text`), empty fields become NULLs, and
//! declared foreign keys become the schema graph the candidate search walks.
//!
//! Run with: `cargo run --example csv_import`

use prism::core::{DiscoveryConfig, DiscoveryService, TargetConstraints};
use prism::db::DatabaseBuilder;
use std::sync::Arc;

const PRODUCTS_CSV: &str = "\
Sku,Name,Category,Price,Introduced
1001,Trail Runner,footwear,129.95,2015-03-01
1002,Summit Boot,footwear,219.00,2012-09-15
1003,Ridge Jacket,apparel,189.50,2018-02-20
1004,Basecamp Tent,equipment,449.00,2010-06-01
1005,Alpine Pole,equipment,59.95,
";

const ORDERS_CSV: &str = "\
OrderId,Sku,Quantity,OrderDate,Region
1,1002,2,2023-11-02,California
2,1001,1,2023-11-03,Nevada
3,1004,1,2023-11-05,Oregon
4,1002,1,2023-11-09,California
5,1003,3,2023-11-11,Texas
6,1005,4,2023-11-12,California
";

fn main() {
    // 1. Load CSVs; schemas are inferred from the data.
    let mut b = DatabaseBuilder::new("shop");
    b.add_table_from_csv("Product", PRODUCTS_CSV)
        .expect("products load");
    b.add_table_from_csv("Orders", ORDERS_CSV)
        .expect("orders load");
    b.add_foreign_key("Orders", "Sku", "Product", "Sku")
        .expect("join edge");
    let db = b.build();

    println!("loaded `{}`:", db.name());
    for (tid, schema) in db.catalog().tables() {
        let cols: Vec<String> = schema
            .columns
            .iter()
            .map(|c| format!("{}:{}", c.name, c.dtype))
            .collect();
        println!(
            "  {} ({} rows): {}",
            schema.name,
            db.row_count(tid),
            cols.join(", ")
        );
    }

    // 2. The analyst wants (product name, region, price) but only knows a
    //    product keyword, a region disjunction, and that prices are
    //    positive decimals.
    let constraints = TargetConstraints::parse(
        3,
        &[vec![
            Some("Summit Boot".to_string()),
            Some("California || Nevada".to_string()),
            None,
        ]],
        &[
            None,
            None,
            Some("DataType=='decimal' AND MinValue>='0'".to_string()),
        ],
    )
    .unwrap();

    let service = DiscoveryService::new(Arc::new(db), DiscoveryConfig::default());
    let result = service.run(&constraints);
    println!(
        "\n{} satisfying schema mappings in {:?}:",
        result.queries.len(),
        result.stats.elapsed
    );
    for q in &result.queries {
        println!("\n  {}", q.sql);
        for line in q.preview_table(service.database()).lines() {
            println!("    {line}");
        }
    }

    // CI runs this example as a smoke test: fail loudly if the
    // (name, region, price) mapping the analyst is after goes missing.
    assert!(
        result.queries.iter().any(|q| q
            .sql
            .starts_with("SELECT Product.Name, Orders.Region, Product.Price")),
        "csv_import lost the (name, region, price) mapping"
    );
}
