//! Synthetic Mondial: relational geography shaped like May's Mondial
//! database (the paper's primary demo database).
//!
//! The table/FK layout mirrors the real Mondial fragments the paper's
//! motivating example uses — `Lake`, `geo_lake`, `Province`, `Country` — and
//! enough surrounding geography (rivers, seas, mountains, cities,
//! continents, politics) to give the schema graph realistic connectivity:
//! 14 tables and 19 join edges, with multiple join paths between the
//! frequently-queried tables (exactly the ambiguity Prism's Result section
//! exists to resolve).

use crate::vocab;
use crate::{flush, FLUSH_ROWS};
use prism_db::schema::ColumnDef;
use prism_db::types::{DataType, Date};
use prism_db::{Database, DatabaseBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build synthetic Mondial. `scale` multiplies the synthetic fill volume
/// (scale 1 ≈ 900 rows; scale 10 ≈ 5,500 rows); the embedded real rows are
/// always present.
pub fn mondial(seed: u64, scale: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4d4f4e4449414c /* "MONDIAL" */);
    let scale = scale.max(1);
    let mut b = DatabaseBuilder::new("Mondial");

    declare_schema(&mut b);

    // All fill goes through typed batches (the zero-`Value` bulk path); the
    // RNG draw order matches the old per-row loops exactly, so every seed
    // produces the same values it always did.

    // Continents and countries are fixed real data.
    let mut cont_b = b.new_batch("Continent").unwrap();
    for (name, area) in vocab::CONTINENTS {
        cont_b.push_str(0, name).unwrap();
        cont_b.push_decimal(1, *area).unwrap();
    }
    b.append_batch("Continent", cont_b).unwrap();
    let mut country_b = b.new_batch("Country").unwrap();
    let mut enc_b = b.new_batch("encompasses").unwrap();
    let mut pol_b = b.new_batch("Politics").unwrap();
    for (name, code, capital, continent) in vocab::COUNTRIES {
        let population = rng.gen_range(5_000_000i64..400_000_000);
        let area = rng.gen_range(50_000.0..10_000_000.0f64).round();
        country_b.push_str(0, name).unwrap();
        country_b.push_str(1, code).unwrap();
        country_b.push_str(2, capital).unwrap();
        country_b.push_int(3, population).unwrap();
        country_b.push_decimal(4, area).unwrap();
        enc_b.push_str(0, code).unwrap();
        enc_b.push_str(1, continent).unwrap();
        enc_b.push_decimal(2, 100.0).unwrap();
        // Politics: independence date and government form.
        let year = rng.gen_range(1500i16..1991);
        let month = rng.gen_range(1u8..=12);
        let day = rng.gen_range(1u8..=28);
        let gov =
            ["republic", "federal republic", "constitutional monarchy"][rng.gen_range(0..3usize)];
        pol_b.push_str(0, code).unwrap();
        pol_b.push_date(1, Date::new(year, month, day)).unwrap();
        pol_b.push_str(2, gov).unwrap();
    }
    b.append_batch("Country", country_b).unwrap();
    b.append_batch("encompasses", enc_b).unwrap();
    b.append_batch("Politics", pol_b).unwrap();

    // Provinces: real lists for USA/Canada/Germany, synthetic regions
    // elsewhere. Collect (name, country code) for later reference.
    let mut provinces: Vec<(String, &str)> = Vec::new();
    for s in vocab::US_STATES {
        provinces.push((s.to_string(), "USA"));
    }
    for p in vocab::CA_PROVINCES {
        provinces.push((p.to_string(), "CDN"));
    }
    for p in vocab::DE_STATES {
        provinces.push((p.to_string(), "D"));
    }
    for (name, code, _, _) in vocab::COUNTRIES {
        if matches!(*code, "USA" | "CDN" | "D") {
            continue;
        }
        for i in 1..=3 {
            provinces.push((format!("{name} Region {i}"), code));
        }
    }
    let mut prov_b = b.new_batch("Province").unwrap();
    for (name, code) in &provinces {
        let population = rng.gen_range(100_000i64..40_000_000);
        let area = rng.gen_range(1_000.0..700_000.0f64).round();
        prov_b.push_str(0, name).unwrap();
        prov_b.push_str(1, code).unwrap();
        prov_b.push_int(2, population).unwrap();
        prov_b.push_decimal(3, area).unwrap();
        if prov_b.rows() >= FLUSH_ROWS {
            prov_b = flush(&mut b, "Province", prov_b);
        }
    }
    b.append_batch("Province", prov_b).unwrap();

    // Cities: every capital, plus fill cities in provinces. City names
    // repeat across provinces (as in reality), which exercises ambiguous
    // keyword matches.
    let mut city_b = b.new_batch("City").unwrap();
    for (_, code, capital, _) in vocab::COUNTRIES {
        let prov = provinces
            .iter()
            .find(|(_, c)| c == code)
            .map(|(p, _)| p.clone())
            .unwrap_or_default();
        city_b.push_str(0, capital).unwrap();
        city_b.push_str(1, code).unwrap();
        city_b.push_string(2, prov).unwrap();
        city_b
            .push_int(3, rng.gen_range(200_000i64..20_000_000))
            .unwrap();
        city_b
            .push_decimal(4, rng.gen_range(0.0..2_000.0f64).round())
            .unwrap();
    }
    let cities_per_province = 2 * scale;
    for (prov, code) in &provinces {
        for _ in 0..cities_per_province {
            let name = vocab::CITIES[rng.gen_range(0..vocab::CITIES.len())];
            let population = rng.gen_range(5_000i64..900_000);
            let elevation = rng
                .gen_bool(0.9)
                .then(|| rng.gen_range(0.0..2_500.0f64).round());
            city_b.push_str(0, name).unwrap();
            city_b.push_str(1, code).unwrap();
            city_b.push_str(2, prov).unwrap();
            city_b.push_int(3, population).unwrap();
            match elevation {
                Some(e) => city_b.push_decimal(4, e).unwrap(),
                None => city_b.push_null(4),
            }
            if city_b.rows() >= FLUSH_ROWS {
                city_b = flush(&mut b, "City", city_b);
            }
        }
    }
    b.append_batch("City", city_b).unwrap();

    // Lakes: the real anchor lakes (including the paper's Table 1 rows),
    // then synthetic fill. Lake Tahoe gets its second geo row (Nevada).
    let mut lake_b = b.new_batch("Lake").unwrap();
    let mut geo_lake_b = b.new_batch("geo_lake").unwrap();
    for (name, area, depth, province, code) in vocab::LAKES {
        lake_b.push_str(0, name).unwrap();
        lake_b.push_decimal(1, *area).unwrap();
        lake_b.push_decimal(2, *depth).unwrap();
        lake_b
            .push_decimal(3, rng.gen_range(0.0..2_000.0f64).round())
            .unwrap();
        geo_lake_b.push_str(0, name).unwrap();
        geo_lake_b.push_str(1, code).unwrap();
        geo_lake_b.push_str(2, province).unwrap();
    }
    geo_lake_b.push_str(0, "Lake Tahoe").unwrap();
    geo_lake_b.push_str(1, "USA").unwrap();
    geo_lake_b.push_str(2, "Nevada").unwrap();
    let synth_lakes = 40 * scale;
    for i in 0..synth_lakes {
        let adj = vocab::TITLE_ADJECTIVES[rng.gen_range(0..vocab::TITLE_ADJECTIVES.len())];
        let noun = vocab::TITLE_NOUNS[rng.gen_range(0..vocab::TITLE_NOUNS.len())];
        let name = format!("Lake {adj} {noun} {i}");
        // Missing measurements, as in real Mondial.
        let area = rng
            .gen_bool(0.92)
            .then(|| (10f64).powf(rng.gen_range(0.3..4.2)).round().max(1.0));
        let depth = rng
            .gen_bool(0.85)
            .then(|| rng.gen_range(2.0..600.0f64).round());
        lake_b.push_str(0, &name).unwrap();
        match area {
            Some(a) => lake_b.push_decimal(1, a).unwrap(),
            None => lake_b.push_null(1),
        }
        match depth {
            Some(d) => lake_b.push_decimal(2, d).unwrap(),
            None => lake_b.push_null(2),
        }
        lake_b
            .push_decimal(3, rng.gen_range(0.0..3_000.0f64).round())
            .unwrap();
        // 1–2 geo rows for each synthetic lake.
        let geo_rows = 1 + usize::from(rng.gen_bool(0.25));
        for _ in 0..geo_rows {
            let (prov, code) = &provinces[rng.gen_range(0..provinces.len())];
            geo_lake_b.push_str(0, &name).unwrap();
            geo_lake_b.push_str(1, code).unwrap();
            geo_lake_b.push_str(2, prov).unwrap();
        }
        if lake_b.rows() >= FLUSH_ROWS {
            lake_b = flush(&mut b, "Lake", lake_b);
        }
        if geo_lake_b.rows() >= FLUSH_ROWS {
            geo_lake_b = flush(&mut b, "geo_lake", geo_lake_b);
        }
    }
    b.append_batch("Lake", lake_b).unwrap();
    b.append_batch("geo_lake", geo_lake_b).unwrap();

    // Rivers.
    let mut river_b = b.new_batch("River").unwrap();
    let mut geo_river_b = b.new_batch("geo_river").unwrap();
    for (name, length, code) in vocab::RIVERS {
        river_b.push_str(0, name).unwrap();
        river_b.push_decimal(1, *length).unwrap();
        river_b
            .push_decimal(2, rng.gen_range(100.0..4_000.0f64).round())
            .unwrap();
        let candidates: Vec<&(String, &str)> =
            provinces.iter().filter(|(_, c)| c == code).collect();
        let spans = 1 + rng.gen_range(0..2.min(candidates.len().max(1)));
        for s in 0..spans.min(candidates.len()) {
            let (prov, _) =
                candidates[(s * 7 + rng.gen_range(0..candidates.len())) % candidates.len()];
            geo_river_b.push_str(0, name).unwrap();
            geo_river_b.push_str(1, code).unwrap();
            geo_river_b.push_str(2, prov).unwrap();
        }
    }
    for i in 0..(30 * scale) {
        let noun = vocab::TITLE_NOUNS[rng.gen_range(0..vocab::TITLE_NOUNS.len())];
        let name = format!("{noun} River {i}");
        let length = rng
            .gen_bool(0.9)
            .then(|| rng.gen_range(40.0..3_000.0f64).round());
        river_b.push_str(0, &name).unwrap();
        match length {
            Some(l) => river_b.push_decimal(1, l).unwrap(),
            None => river_b.push_null(1),
        }
        river_b
            .push_decimal(2, rng.gen_range(50.0..3_500.0f64).round())
            .unwrap();
        let (prov, code) = &provinces[rng.gen_range(0..provinces.len())];
        geo_river_b.push_str(0, &name).unwrap();
        geo_river_b.push_str(1, code).unwrap();
        geo_river_b.push_str(2, prov).unwrap();
        if river_b.rows() >= FLUSH_ROWS {
            river_b = flush(&mut b, "River", river_b);
        }
        if geo_river_b.rows() >= FLUSH_ROWS {
            geo_river_b = flush(&mut b, "geo_river", geo_river_b);
        }
    }
    b.append_batch("River", river_b).unwrap();
    b.append_batch("geo_river", geo_river_b).unwrap();

    // Seas.
    let mut sea_b = b.new_batch("Sea").unwrap();
    let mut geo_sea_b = b.new_batch("geo_sea").unwrap();
    for (name, depth) in vocab::SEAS {
        sea_b.push_str(0, name).unwrap();
        sea_b.push_decimal(1, *depth).unwrap();
        for _ in 0..rng.gen_range(1..4) {
            let (prov, code) = &provinces[rng.gen_range(0..provinces.len())];
            geo_sea_b.push_str(0, name).unwrap();
            geo_sea_b.push_str(1, code).unwrap();
            geo_sea_b.push_str(2, prov).unwrap();
        }
    }
    b.append_batch("Sea", sea_b).unwrap();
    b.append_batch("geo_sea", geo_sea_b).unwrap();

    // Mountains.
    let mut mtn_b = b.new_batch("Mountain").unwrap();
    let mut geo_mtn_b = b.new_batch("geo_mountain").unwrap();
    for (name, height, code) in vocab::MOUNTAINS {
        let kind = ["volcano", "granite", "fold"][rng.gen_range(0..3usize)];
        mtn_b.push_str(0, name).unwrap();
        mtn_b.push_decimal(1, *height).unwrap();
        mtn_b.push_str(2, kind).unwrap();
        let candidates: Vec<&(String, &str)> =
            provinces.iter().filter(|(_, c)| c == code).collect();
        if !candidates.is_empty() {
            let (prov, _) = candidates[rng.gen_range(0..candidates.len())];
            geo_mtn_b.push_str(0, name).unwrap();
            geo_mtn_b.push_str(1, code).unwrap();
            geo_mtn_b.push_str(2, prov).unwrap();
        }
    }
    for i in 0..(30 * scale) {
        let adj = vocab::TITLE_ADJECTIVES[rng.gen_range(0..vocab::TITLE_ADJECTIVES.len())];
        let name = format!("Mount {adj} {i}");
        let kind = ["volcano", "granite", "fold"][rng.gen_range(0..3usize)];
        mtn_b.push_str(0, &name).unwrap();
        mtn_b
            .push_decimal(1, rng.gen_range(800.0..8_000.0f64).round())
            .unwrap();
        mtn_b.push_str(2, kind).unwrap();
        let (prov, code) = &provinces[rng.gen_range(0..provinces.len())];
        geo_mtn_b.push_str(0, &name).unwrap();
        geo_mtn_b.push_str(1, code).unwrap();
        geo_mtn_b.push_str(2, prov).unwrap();
        if mtn_b.rows() >= FLUSH_ROWS {
            mtn_b = flush(&mut b, "Mountain", mtn_b);
        }
        if geo_mtn_b.rows() >= FLUSH_ROWS {
            geo_mtn_b = flush(&mut b, "geo_mountain", geo_mtn_b);
        }
    }
    b.append_batch("Mountain", mtn_b).unwrap();
    b.append_batch("geo_mountain", geo_mtn_b).unwrap();

    b.build()
}

fn declare_schema(b: &mut DatabaseBuilder) {
    b.add_table(
        "Continent",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Area", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_table(
        "Country",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Code", DataType::Text).not_null(),
            ColumnDef::new("Capital", DataType::Text),
            ColumnDef::new("Population", DataType::Int),
            ColumnDef::new("Area", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_table(
        "Province",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Country", DataType::Text).not_null(),
            ColumnDef::new("Population", DataType::Int),
            ColumnDef::new("Area", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_table(
        "City",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Country", DataType::Text).not_null(),
            ColumnDef::new("Province", DataType::Text),
            ColumnDef::new("Population", DataType::Int),
            ColumnDef::new("Elevation", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_table(
        "Lake",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Area", DataType::Decimal),
            ColumnDef::new("Depth", DataType::Decimal),
            ColumnDef::new("Altitude", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_table(
        "geo_lake",
        vec![
            ColumnDef::new("Lake", DataType::Text).not_null(),
            ColumnDef::new("Country", DataType::Text).not_null(),
            ColumnDef::new("Province", DataType::Text).not_null(),
        ],
    )
    .unwrap();
    b.add_table(
        "River",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Length", DataType::Decimal),
            ColumnDef::new("SourceAltitude", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_table(
        "geo_river",
        vec![
            ColumnDef::new("River", DataType::Text).not_null(),
            ColumnDef::new("Country", DataType::Text).not_null(),
            ColumnDef::new("Province", DataType::Text).not_null(),
        ],
    )
    .unwrap();
    b.add_table(
        "Sea",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Depth", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_table(
        "geo_sea",
        vec![
            ColumnDef::new("Sea", DataType::Text).not_null(),
            ColumnDef::new("Country", DataType::Text).not_null(),
            ColumnDef::new("Province", DataType::Text).not_null(),
        ],
    )
    .unwrap();
    b.add_table(
        "Mountain",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Height", DataType::Decimal),
            ColumnDef::new("Type", DataType::Text),
        ],
    )
    .unwrap();
    b.add_table(
        "geo_mountain",
        vec![
            ColumnDef::new("Mountain", DataType::Text).not_null(),
            ColumnDef::new("Country", DataType::Text).not_null(),
            ColumnDef::new("Province", DataType::Text).not_null(),
        ],
    )
    .unwrap();
    b.add_table(
        "encompasses",
        vec![
            ColumnDef::new("Country", DataType::Text).not_null(),
            ColumnDef::new("Continent", DataType::Text).not_null(),
            ColumnDef::new("Percentage", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_table(
        "Politics",
        vec![
            ColumnDef::new("Country", DataType::Text).not_null(),
            ColumnDef::new("Independence", DataType::Date),
            ColumnDef::new("Government", DataType::Text),
        ],
    )
    .unwrap();

    // Join edges (declared FK → referenced key).
    for (from_t, from_c, to_t, to_c) in [
        ("Province", "Country", "Country", "Code"),
        ("City", "Country", "Country", "Code"),
        ("City", "Province", "Province", "Name"),
        ("geo_lake", "Lake", "Lake", "Name"),
        ("geo_lake", "Country", "Country", "Code"),
        ("geo_lake", "Province", "Province", "Name"),
        ("geo_river", "River", "River", "Name"),
        ("geo_river", "Country", "Country", "Code"),
        ("geo_river", "Province", "Province", "Name"),
        ("geo_sea", "Sea", "Sea", "Name"),
        ("geo_sea", "Country", "Country", "Code"),
        ("geo_sea", "Province", "Province", "Name"),
        ("geo_mountain", "Mountain", "Mountain", "Name"),
        ("geo_mountain", "Country", "Country", "Code"),
        ("geo_mountain", "Province", "Province", "Name"),
        ("encompasses", "Country", "Country", "Code"),
        ("encompasses", "Continent", "Continent", "Name"),
        ("Politics", "Country", "Country", "Code"),
        ("Country", "Capital", "City", "Name"),
    ] {
        b.add_foreign_key(from_t, from_c, to_t, to_c).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_db::exec::{JoinCond, PjQuery};
    use prism_db::types::Value;

    #[test]
    fn generation_is_deterministic() {
        let a = mondial(42, 1);
        let c = mondial(42, 1);
        assert_eq!(a.total_rows(), c.total_rows());
        let lake = a.catalog().table_id("Lake").unwrap();
        for r in 0..a.row_count(lake).min(20) as u32 {
            assert_eq!(
                a.table(lake).row(a.symbols(), r),
                c.table(lake).row(c.symbols(), r),
                "row {r} differs"
            );
        }
        let d = mondial(43, 1);
        assert_eq!(a.row_count(lake), d.row_count(lake), "schema sizes stable");
    }

    #[test]
    fn has_fourteen_tables_and_nineteen_edges() {
        let db = mondial(42, 1);
        assert_eq!(db.catalog().table_count(), 14);
        assert_eq!(db.graph().edge_count(), 19);
    }

    #[test]
    fn papers_walkthrough_rows_exist() {
        let db = mondial(42, 1);
        // Lake Tahoe with area 497 in both California and Nevada.
        let tahoe_cols: Vec<_> = db.index().columns_with_cell("Lake Tahoe").collect();
        assert!(tahoe_cols.len() >= 2, "Lake Tahoe in Lake and geo_lake");
        let lake = db.catalog().table_id("Lake").unwrap();
        let geo = db.catalog().table_id("geo_lake").unwrap();
        // The desired query of Section 1 returns the paper's rows.
        let q = PjQuery {
            nodes: vec![lake, geo],
            joins: vec![JoinCond {
                left_node: 0,
                left_col: 0, // Lake.Name
                right_node: 1,
                right_col: 0, // geo_lake.Lake
            }],
            projection: vec![(1, 2), (0, 0), (0, 1)], // Province, Name, Area
        };
        let rows = q.execute(&db, 10_000).unwrap();
        let want = |prov: &str, name: &str, area: f64| {
            rows.iter().any(|r| {
                r[0] == Value::text(prov)
                    && r[1] == Value::text(name)
                    && r[2] == Value::Decimal(area)
            })
        };
        assert!(want("California", "Lake Tahoe", 497.0));
        assert!(want("Nevada", "Lake Tahoe", 497.0));
        assert!(want("Oregon", "Crater Lake", 53.2));
        assert!(want("Florida", "Fort Peck Lake", 981.0));
    }

    #[test]
    fn geo_rows_reference_existing_lakes_and_provinces() {
        let db = mondial(7, 1);
        let geo = db.catalog().table_id("geo_lake").unwrap();
        let lake_name = db.catalog().column_ref("Lake", "Name").unwrap();
        let prov_name = db.catalog().column_ref("Province", "Name").unwrap();
        let lake_ix = db.join_index(lake_name).unwrap();
        let prov_ix = db.join_index(prov_name).unwrap();
        let t = db.table(geo);
        let syms = db.symbols();
        for r in 0..t.row_count() {
            assert!(
                lake_ix.contains_key(t.column(0).join_key(r).unwrap()),
                "dangling lake ref {:?}",
                t.value_ref(syms, r as u32, 0)
            );
            assert!(
                prov_ix.contains_key(t.column(2).join_key(r).unwrap()),
                "dangling province ref {:?}",
                t.value_ref(syms, r as u32, 2)
            );
        }
    }

    #[test]
    fn scale_increases_volume() {
        let s1 = mondial(42, 1);
        let s3 = mondial(42, 3);
        assert!(s3.total_rows() > s1.total_rows() * 2);
    }

    #[test]
    fn loaded_databases_freeze_zone_maps_and_audit_memory() {
        let db = mondial(42, 2);
        // Every loader-built column spanning more than one block is
        // zone-mapped at freeze; single-block columns skip the metadata
        // (it could never prune anything a scan wouldn't touch anyway).
        for (tid, schema) in db.catalog().tables() {
            let t = db.table(tid);
            for c in 0..schema.arity() as u32 {
                let col = t.column(c);
                let name = format!("{}.{}", schema.name, schema.column(c).name);
                if col.len() > db.block_rows() {
                    assert_eq!(col.block_rows(), Some(db.block_rows()), "{name}");
                    assert_eq!(
                        col.block_meta().len(),
                        col.len().div_ceil(db.block_rows()),
                        "{name}"
                    );
                } else {
                    assert_eq!(col.block_rows(), None, "{name}");
                    assert!(col.block_meta().is_empty(), "{name}");
                }
            }
        }
        // ...and the memory audit covers every table and FK endpoint.
        let report = db.memory_report();
        assert_eq!(report.tables.len(), db.catalog().table_count());
        assert!(!report.indexes.is_empty());
        assert_eq!(
            report.join_index_bytes(),
            report.indexes.iter().map(|i| i.bytes).sum::<usize>()
        );
        assert!(report.keyword_index_bytes > 0);
        assert_eq!(
            report.total_index_bytes(),
            report.join_index_bytes() + report.keyword_index_bytes
        );
    }

    #[test]
    fn lakes_have_some_nulls_for_missing_value_experiments() {
        let db = mondial(42, 2);
        let area = db.catalog().column_ref("Lake", "Area").unwrap();
        let st = db.stats().column(area);
        assert!(
            st.null_count > 0,
            "synthetic lakes should include missing areas"
        );
        assert!(st.null_count < st.row_count / 2);
    }

    #[test]
    fn politics_has_date_typed_column() {
        let db = mondial(42, 1);
        let col = db.catalog().column_ref("Politics", "Independence").unwrap();
        assert_eq!(db.stats().column(col).dtype, DataType::Date);
        assert!(db.stats().column(col).min_num.is_some());
    }
}
