//! Bit-identity of the deduplicated evidence paths against per-sample
//! references: join-indicator pair masks against a walk over every sampled
//! pair, and deduplicated bin reservoirs against a count over every
//! reservoir slot.
//!
//! The generated databases are two-table foreign-key joins whose cells
//! repeat heavily: duplicate keys on both sides, NULLs in every column
//! (dangling and NULL foreign keys included), text variants that differ
//! only in case and surrounding whitespace, and Int and Decimal columns
//! holding `0`, `0.0` and `-0.0`.

use prism_bayes::discretize::NULL_BIN;
use prism_bayes::{BayesEstimator, JoinIndicator, Side, TrainConfig};
use prism_db::graph::EdgeId;
use prism_db::schema::{ColumnDef, TableId};
use prism_db::types::{DataType, Value};
use prism_db::{Database, DatabaseBuilder};
use prism_lang::{matches_value, matches_value_ref, parse_value_constraint, ValueConstraint};
use proptest::prelude::*;

/// Constraint pool: keywords in several spellings, disjunctions, ranges
/// around zero, `CONTAINS` and negation, over text and numeric columns.
const CONSTRAINTS: [&str; 16] = [
    "alpha",
    "ALPHA",
    " alpha ",
    "beta || gamma delta",
    "CONTAINS alp",
    "!= alpha",
    "0",
    "-0",
    "0.0",
    "1.5 || -2.25",
    "< 1",
    ">= 0",
    ">= -0.0 && <= 1.5",
    "1 || 2 || 3",
    "> 100",
    "!= 0",
];

const TEXTS: [Option<&str>; 8] = [
    Some("Alpha"),
    Some("alpha"),
    Some(" alpha"),
    Some("ALPHA "),
    Some("beta"),
    Some("Beta "),
    None,
    Some("gamma delta"),
];

const DECIMALS: [Option<f64>; 7] = [
    Some(0.0),
    Some(-0.0),
    Some(1.5),
    Some(-2.25),
    Some(1.0),
    None,
    Some(3.0),
];

fn parsed() -> Vec<ValueConstraint> {
    CONSTRAINTS
        .iter()
        .map(|c| parse_value_constraint(c).expect("pool constraints parse"))
        .collect()
}

/// One generated row: a key (or foreign key) code and three attribute
/// codes, each mapped through a small pool so that values repeat.
type Row = (u8, u8, u8, u8);

/// Parent keys `0..8`, repeated, NULL at one code in sixteen.
fn parent_key(code: u8) -> Value {
    if code % 16 == 15 {
        Value::Null
    } else {
        Value::Int(i64::from(code % 8))
    }
}

/// Child keys: three in four on the hub keys `0..4`, some dangling
/// (`10..16`), the rest NULL.
fn child_key(code: u8) -> Value {
    match code % 32 {
        0..=23 => Value::Int(i64::from(code % 4)),
        c @ 24..=29 => Value::Int(i64::from(c) - 14),
        _ => Value::Null,
    }
}

fn attrs(&(_, i, d, t): &Row) -> [Value; 3] {
    let int = match i % 7 {
        6 => Value::Null,
        v => Value::Int(i64::from(v) - 2),
    };
    let dec = DECIMALS[d as usize % DECIMALS.len()].map_or(Value::Null, Value::Decimal);
    let text = TEXTS[t as usize % TEXTS.len()].map_or(Value::Null, Value::text);
    [int, dec, text]
}

/// `P(k, i, d, t)` and `C(fk, i, d, t)` with `C.fk → P.k`.
fn fk_db(parents: &[Row], children: &[Row]) -> Database {
    let columns = |k: &str| {
        vec![
            ColumnDef::new(k, DataType::Int),
            ColumnDef::new("i", DataType::Int),
            ColumnDef::new("d", DataType::Decimal),
            ColumnDef::new("t", DataType::Text),
        ]
    };
    let mut b = DatabaseBuilder::new("masks");
    b.add_table("P", columns("k")).unwrap();
    b.add_table("C", columns("fk")).unwrap();
    for (table, rows, key) in [
        ("P", parents, parent_key as fn(u8) -> Value),
        ("C", children, child_key),
    ] {
        for row in rows {
            let mut cells = vec![key(row.0)];
            cells.extend(attrs(row));
            b.add_row(table, cells).unwrap();
        }
    }
    b.add_foreign_key("C", "fk", "P", "k").unwrap();
    b.build()
}

/// The per-pair reference: every sampled pair checks every predicate.
fn pair_walk(
    db: &Database,
    ji: &JoinIndicator,
    preds_a: &[(u32, &ValueConstraint)],
    preds_b: &[(u32, &ValueConstraint)],
) -> Option<f64> {
    let pairs = ji.sample_pairs();
    if pairs.is_empty() {
        return None;
    }
    let syms = db.symbols();
    let holds = |side: Side, row: u32, preds: &[(u32, &ValueConstraint)]| {
        let table = db.table(ji.endpoint(side).table);
        preds
            .iter()
            .all(|&(c, k)| matches_value_ref(k, table.value_ref(syms, row, c)))
    };
    let hits = pairs
        .iter()
        .filter(|&&(a, b)| holds(Side::A, a, preds_a) && holds(Side::B, b, preds_b))
        .count();
    Some((hits as f64 + 0.5) / (pairs.len() as f64 + 1.0))
}

/// Checks one predicate set at both reservoir sizes: the joint against the
/// pair walk, and every mask bit against its pair's verdict, with the
/// bits past the sample size clear.
fn check_joint(
    db: &Database,
    preds: &[(Side, u32, &ValueConstraint)],
) -> Result<(), TestCaseError> {
    let on = |side| -> Vec<(u32, &ValueConstraint)> {
        preds
            .iter()
            .filter(|p| p.0 == side)
            .map(|&(_, c, k)| (c, k))
            .collect()
    };
    let (preds_a, preds_b) = (on(Side::A), on(Side::B));
    for cap in [8, 512] {
        let ji = JoinIndicator::train(db, EdgeId(0), cap, 7);
        let fast = ji.conditional_joint(db, &preds_a, &preds_b);
        let slow = pair_walk(db, &ji, &preds_a, &preds_b);
        prop_assert_eq!(
            fast.map(f64::to_bits),
            slow.map(f64::to_bits),
            "cap {}",
            cap
        );
        let n = ji.sample_size();
        for &(side, c, k) in preds {
            let mask = ji.pair_mask(db, side, c, k);
            prop_assert_eq!(mask.len(), n.div_ceil(64));
            for (i, &(a, b)) in ji.sample_pairs().iter().enumerate() {
                let row = if side == Side::A { a } else { b };
                let table = db.table(ji.endpoint(side).table);
                let want = matches_value_ref(k, table.value_ref(db.symbols(), row, c));
                prop_assert_eq!(mask[i / 64] >> (i % 64) & 1 == 1, want, "pair {}", i);
            }
            if !n.is_multiple_of(64) {
                prop_assert_eq!(mask[n / 64] >> (n % 64), 0, "bits past {}", n);
            }
        }
    }
    Ok(())
}

fn rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fixed predicate shapes (none, either side, both sides, two on one
    /// side, two on one column) and a generated set.
    #[test]
    fn conditional_joint_matches_the_pair_walk(
        parents in rows(24),
        children in rows(700),
        picks in proptest::collection::vec(
            (0u8..2, 0u32..4, 0usize..CONSTRAINTS.len()), 0..5),
    ) {
        let db = fk_db(&parents, &children);
        let c = parsed();
        let shapes: Vec<Vec<(Side, u32, &ValueConstraint)>> = vec![
            vec![],
            vec![(Side::A, 3, &c[0])],
            vec![(Side::B, 2, &c[12])],
            vec![(Side::A, 1, &c[11]), (Side::B, 3, &c[3])],
            vec![(Side::A, 1, &c[13]), (Side::A, 3, &c[4])],
            vec![(Side::B, 2, &c[12]), (Side::B, 2, &c[15])],
            vec![(Side::A, 0, &c[10]), (Side::B, 0, &c[11])],
            picks
                .iter()
                .map(|&(a, col, k)| (if a == 0 { Side::A } else { Side::B }, col, &c[k]))
                .collect(),
        ];
        for preds in &shapes {
            check_joint(&db, preds)?;
        }
    }

    /// A bin's match fraction over its distinct values and multiplicities
    /// equals the fraction over its reservoir slots one by one.
    #[test]
    fn bin_match_fraction_matches_a_per_sample_count(
        parents in rows(300),
        max_bins in 1usize..6,
        seed in 0u64..1000,
    ) {
        let db = fk_db(&parents, &[]);
        let config = TrainConfig { max_bins, seed, ..TrainConfig::default() };
        let est = BayesEstimator::train(&db, &config);
        let model = est.relation(TableId(0));
        for col in 0..4u32 {
            let disc = model.discretizer(col);
            for bin in 0..disc.bin_count() {
                let sample = disc.bin_sample(bin);
                // The reservoir holds up to eight rows per bin.
                let slots: u32 = sample.iter().map(|s| s.1).sum();
                prop_assert_eq!(slots, disc.bin_rows()[bin as usize].min(8));
                let per_slot: Vec<&Value> = sample
                    .iter()
                    .flat_map(|(v, m)| std::iter::repeat_n(v, *m as usize))
                    .collect();
                for k in &parsed() {
                    let hits = per_slot.iter().filter(|v| matches_value(k, v)).count();
                    let want = if bin == NULL_BIN || per_slot.is_empty() {
                        0.0
                    } else {
                        hits as f64 / per_slot.len() as f64
                    };
                    prop_assert_eq!(disc.bin_match_fraction(bin, k).to_bits(), want.to_bits());
                }
            }
        }
    }
}

/// No pair joins: no sample, so no joint, whatever the predicates.
#[test]
fn empty_join_has_no_joint() {
    let parents: Vec<Row> = (0..6).map(|i| (i, i, i, i)).collect();
    // Codes 24..30 are the dangling child keys.
    let children: Vec<Row> = (24..30).map(|i| (i, i, i, i)).collect();
    let db = fk_db(&parents, &children);
    let c = parsed();
    for cap in [8, 512] {
        let ji = JoinIndicator::train(&db, EdgeId(0), cap, 7);
        assert_eq!(ji.sample_size(), 0);
        assert_eq!(ji.joint_of_masks(&[]), None);
        assert_eq!(ji.conditional_joint(&db, &[], &[]), None);
        assert_eq!(
            ji.conditional_joint(&db, &[(3, &c[0])], &[(1, &c[11])]),
            None
        );
        assert!(ji.pair_mask(&db, Side::A, 3, &c[0]).is_empty());
    }
}
