//! Join indicators (Getoor et al., SIGMOD 2001).
//!
//! For a join edge `R.a = S.b`, the join indicator `J` is a binary variable
//! over tuple pairs that is 1 when the pair joins. Two statistics are
//! learned a priori per edge:
//!
//! * `P(J = 1)` — the **join selectivity** `|R ⋈ S| / (|R| · |S|)`, counted
//!   exactly via the hash join index, and
//! * a uniform **sample of joined pairs**, used at query time to estimate
//!   `P(preds | J = 1)` — how a sample constraint's predicates behave on
//!   tuples that actually join, which is where cross-relation correlation
//!   lives (e.g. lakes that have a `geo_lake` row are the well-known, large
//!   ones).
//!
//! ## Pair masks
//!
//! A sampled pair's cell repeats across the reservoir: a Zipf hub key joins
//! many pairs, and a text column holds few distinct values. Each `(side,
//! column)` of the reservoir therefore gets a *dictionary* on first use:
//! one representative row per distinct cell, keyed by the cell's exact
//! identity (symbol code, integer, or float bits — not `Value` equality,
//! which merges `1` and `1.0`), and each pair's index into it. A
//! predicate's [`JoinIndicator::pair_mask`] evaluates the constraint once
//! per distinct cell and sets one bit per pair that satisfies it, and
//! `P(preds | J = 1)` is the popcount of the AND of its predicates' masks
//! ([`JoinIndicator::joint_of_masks`]). The masks depend only on the
//! constraint and the column, so a scoring loop can compute each once and
//! combine it into every predicate set that contains it. The dictionaries
//! derive from training data alone and live as long as the indicator.

use prism_db::graph::EdgeId;
use prism_db::schema::ColumnRef;
use prism_db::Database;
use prism_lang::{matches_value_ref, ValueConstraint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One endpoint of a join edge: `A` is the edge's a-column, `B` its
/// b-column. A self-join's two sides are the same table but different rows
/// of each pair, so masks are told apart by side, not by table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    A,
    B,
}

/// A trained join indicator for one schema-graph edge.
#[derive(Debug, Clone)]
pub struct JoinIndicator {
    pub edge: EdgeId,
    /// `P(J = 1)` for a uniformly random tuple pair.
    pub selectivity: f64,
    /// Exact number of joining pairs observed during training.
    pub pair_count: u64,
    /// Endpoint columns (a-side, b-side) as declared on the edge.
    a_col: ColumnRef,
    b_col: ColumnRef,
    /// Uniform reservoir sample of joined pairs `(a_row, b_row)`.
    sample: Vec<(u32, u32)>,
    /// Per side (`Side as usize`) and column, the reservoir's dictionary,
    /// built on first use.
    dictionaries: [Vec<OnceLock<PairDictionary>>; 2],
}

/// The distinct cells of one column over one side of the reservoir.
#[derive(Debug, Clone)]
struct PairDictionary {
    /// One representative row per distinct cell, in first-seen order.
    rows: Vec<u32>,
    /// Each pair's index into `rows`. Distinct cells come from distinct
    /// `u32` rows, so a `u32` holds any index whatever the sample size.
    ids: Vec<u32>,
}

impl JoinIndicator {
    /// Train the indicator for `edge_id` by enumerating the join through the
    /// precomputed hash index, keeping a reservoir of at most `sample_cap`
    /// joined pairs.
    pub fn train(db: &Database, edge_id: EdgeId, sample_cap: usize, seed: u64) -> JoinIndicator {
        let edge = db.graph().edge(edge_id);
        let (a_col, b_col) = (edge.a, edge.b);
        let mut rng =
            StdRng::seed_from_u64(seed ^ (edge_id.0 as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let a_column = db.table(a_col.table).column(a_col.column);
        let mut pair_count = 0u64;
        let mut sample: Vec<(u32, u32)> = Vec::with_capacity(sample_cap);
        let b_index = db.join_index(b_col);
        for a_row in 0..a_column.len() {
            // Probe by compact join key in the edge's assigned key space
            // (both FK endpoints share one by construction), so no Value
            // is materialized.
            let Some(key) = db.join_key(a_col, a_row as u32) else {
                continue; // NULL never joins
            };
            let matches: &[u32] = match b_index {
                Some(ix) => ix.rows(key),
                None => &[],
            };
            for &b_row in matches {
                // Reservoir sampling over the stream of joined pairs.
                if sample.len() < sample_cap {
                    sample.push((a_row as u32, b_row));
                } else {
                    let j = rng.gen_range(0..=pair_count as usize);
                    if j < sample_cap {
                        sample[j] = (a_row as u32, b_row);
                    }
                }
                pair_count += 1;
            }
        }
        let denom = (db.row_count(a_col.table) as f64) * (db.row_count(b_col.table) as f64);
        let selectivity = if denom > 0.0 {
            pair_count as f64 / denom
        } else {
            0.0
        };
        let lazy = |col: ColumnRef| {
            let arity = db.catalog().table(col.table).arity();
            (0..arity).map(|_| OnceLock::new()).collect()
        };
        JoinIndicator {
            edge: edge_id,
            selectivity,
            pair_count,
            a_col,
            b_col,
            sample,
            dictionaries: [lazy(a_col), lazy(b_col)],
        }
    }

    /// Number of sampled joined pairs available for conditioning.
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }

    /// The sampled joined pairs `(a_row, b_row)`, in reservoir order: bit
    /// `i` of a [`JoinIndicator::pair_mask`] speaks for pair `i`.
    pub fn sample_pairs(&self) -> &[(u32, u32)] {
        &self.sample
    }

    /// The endpoint column on `side`.
    pub fn endpoint(&self, side: Side) -> ColumnRef {
        match side {
            Side::A => self.a_col,
            Side::B => self.b_col,
        }
    }

    /// The dictionary of `column` on `side`'s table, built on first use.
    fn dictionary(&self, db: &Database, side: Side, column: u32) -> &PairDictionary {
        self.dictionaries[side as usize][column as usize].get_or_init(|| {
            let col = db.table(self.endpoint(side).table).column(column);
            let mut id_of: HashMap<Option<u64>, u32> = HashMap::new();
            let mut rows = Vec::new();
            let ids = self
                .sample
                .iter()
                .map(|&(a, b)| {
                    let row = if side == Side::A { a } else { b };
                    *id_of
                        .entry(col.cell_identity(row as usize))
                        .or_insert_with(|| {
                            rows.push(row);
                            (rows.len() - 1) as u32
                        })
                })
                .collect();
            PairDictionary { rows, ids }
        })
    }

    /// The pairs whose `side` row satisfies `c` on `column`, one bit per
    /// pair in reservoir order (`u64` words, least significant bit first).
    /// `c` is evaluated once per distinct cell. Bits past the sample size
    /// stay clear.
    pub fn pair_mask(
        &self,
        db: &Database,
        side: Side,
        column: u32,
        c: &ValueConstraint,
    ) -> Vec<u64> {
        let dict = self.dictionary(db, side, column);
        let syms = db.symbols();
        let table = db.table(self.endpoint(side).table);
        let verdicts: Vec<bool> = dict
            .rows
            .iter()
            .map(|&r| matches_value_ref(c, table.value_ref(syms, r, column)))
            .collect();
        let mut mask = vec![0u64; self.sample.len().div_ceil(64)];
        for (i, &id) in dict.ids.iter().enumerate() {
            mask[i / 64] |= u64::from(verdicts[id as usize]) << (i % 64);
        }
        mask
    }

    /// `P(every mask's predicate | J = 1)`: the pairs set in every mask
    /// (all pairs when `masks` is empty), with add-half smoothing so the
    /// estimate stays usable on small samples. Each mask must come from
    /// this indicator's [`JoinIndicator::pair_mask`]. Returns `None` when
    /// no sample is available (empty join).
    pub fn joint_of_masks(&self, masks: &[&[u64]]) -> Option<f64> {
        let n = self.sample.len();
        if n == 0 {
            return None;
        }
        let hits = match masks.first() {
            None => n,
            Some(first) => (0..first.len())
                .map(|w| masks.iter().fold(!0u64, |acc, m| acc & m[w]).count_ones() as usize)
                .sum(),
        };
        Some((hits as f64 + 0.5) / (n as f64 + 1.0))
    }

    /// Estimate `P(preds_a ∧ preds_b | J = 1)` from the joined-pair sample,
    /// where each predicate list gives `(column, constraint)` pairs on the
    /// a-side / b-side table respectively: the
    /// [`JoinIndicator::joint_of_masks`] of the predicates' pair masks.
    /// Returns `None` when no sample is available (empty join).
    pub fn conditional_joint(
        &self,
        db: &Database,
        preds_a: &[(u32, &ValueConstraint)],
        preds_b: &[(u32, &ValueConstraint)],
    ) -> Option<f64> {
        if self.sample.is_empty() {
            return None;
        }
        let masks: Vec<Vec<u64>> = preds_a
            .iter()
            .map(|&(col, c)| self.pair_mask(db, Side::A, col, c))
            .chain(
                preds_b
                    .iter()
                    .map(|&(col, c)| self.pair_mask(db, Side::B, col, c)),
            )
            .collect();
        let masks: Vec<&[u64]> = masks.iter().map(Vec::as_slice).collect();
        self.joint_of_masks(&masks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_db::database::DatabaseBuilder;
    use prism_db::schema::ColumnDef;
    use prism_db::types::{DataType, Value};
    use prism_lang::parse_value_constraint;

    /// Lakes where only large lakes (area >= 100) have geo rows — a
    /// join/attribute correlation that independence misses.
    fn correlated_db() -> Database {
        let mut b = DatabaseBuilder::new("corr");
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
                ColumnDef::new("Province", DataType::Text).not_null(),
            ],
        )
        .unwrap();
        for i in 0..50 {
            let name = format!("Lake {i}");
            let area = if i < 25 { 10.0 } else { 500.0 + i as f64 };
            b.add_row("Lake", vec![name.clone().into(), Value::Decimal(area)])
                .unwrap();
            if i >= 25 {
                b.add_row(
                    "geo_lake",
                    vec![name.into(), format!("Province {}", i % 5).into()],
                )
                .unwrap();
            }
        }
        b.add_foreign_key("geo_lake", "Lake", "Lake", "Name")
            .unwrap();
        b.build()
    }

    #[test]
    fn selectivity_counts_joining_pairs_exactly() {
        let db = correlated_db();
        let ji = JoinIndicator::train(&db, EdgeId(0), 64, 42);
        // 25 geo rows, each joining exactly one lake: 25 pairs over 25*50.
        assert_eq!(ji.pair_count, 25);
        assert!((ji.selectivity - 25.0 / (25.0 * 50.0)).abs() < 1e-12);
        assert_eq!(ji.sample_size(), 25);
    }

    #[test]
    fn conditional_detects_join_attribute_correlation() {
        let db = correlated_db();
        let ji = JoinIndicator::train(&db, EdgeId(0), 64, 42);
        let big = parse_value_constraint(">= 100").unwrap();
        // On the b-side (Lake), area >= 100 holds for *every* joined pair,
        // although only half of all lakes satisfy it.
        let p = ji
            .conditional_joint(&db, &[], &[(1, &big)])
            .expect("sample exists");
        assert!(p > 0.9, "P(area >= 100 | joined) = {p}");
        let small = parse_value_constraint("< 100").unwrap();
        let q = ji.conditional_joint(&db, &[], &[(1, &small)]).unwrap();
        assert!(q < 0.1, "P(area < 100 | joined) = {q}");
    }

    #[test]
    fn conditional_joint_with_both_sides() {
        let db = correlated_db();
        let ji = JoinIndicator::train(&db, EdgeId(0), 64, 42);
        let p0 = parse_value_constraint("Province 0").unwrap();
        let big = parse_value_constraint(">= 100").unwrap();
        let p = ji
            .conditional_joint(&db, &[(1, &p0)], &[(1, &big)])
            .unwrap();
        // 5 of 25 joined pairs are in Province 0, all with big areas.
        assert!((p - 0.2).abs() < 0.1, "joint = {p}");
    }

    #[test]
    fn empty_join_yields_none() {
        let mut b = DatabaseBuilder::new("empty");
        b.add_table("A", vec![ColumnDef::new("k", DataType::Text)])
            .unwrap();
        b.add_table("B", vec![ColumnDef::new("k", DataType::Text)])
            .unwrap();
        b.add_row("A", vec!["x".into()]).unwrap();
        b.add_row("B", vec!["y".into()]).unwrap();
        b.add_foreign_key("A", "k", "B", "k").unwrap();
        let db = b.build();
        let ji = JoinIndicator::train(&db, EdgeId(0), 16, 1);
        assert_eq!(ji.pair_count, 0);
        assert_eq!(ji.selectivity, 0.0);
        assert!(ji.conditional_joint(&db, &[], &[]).is_none());
    }

    #[test]
    fn reservoir_caps_sample_size_deterministically() {
        let db = correlated_db();
        let ji1 = JoinIndicator::train(&db, EdgeId(0), 8, 42);
        let ji2 = JoinIndicator::train(&db, EdgeId(0), 8, 42);
        assert_eq!(ji1.sample_size(), 8);
        assert_eq!(ji1.sample, ji2.sample, "same seed, same sample");
        assert_eq!(ji1.pair_count, 25, "counting is unaffected by sampling");
    }
}
