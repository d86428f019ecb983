//! The combined estimator the filter scheduler queries.
//!
//! For a filter — a join (sub-)tree plus per-column predicates from one
//! sample constraint — the scheduler needs `P(filter fails)`, i.e. the
//! probability that **no** result tuple satisfies the predicates. The
//! estimator computes the expected number of satisfying result tuples
//!
//! ```text
//! E[matches] = Π_t |R_t|        (tuple-combination count)
//!            · Π_e s_e          (join selectivities, tree edges)
//!            · Π_t P_t(preds_t) (per-relation Chow–Liu probabilities)
//!            · Π_e lift_e       (join-indicator correlation corrections)
//! ```
//!
//! with `lift_e = P(preds_a ∧ preds_b | J_e) / (P_A(preds_a) · P_B(preds_b))`,
//! and converts it through the Poisson zero-class: `P(fail) = exp(-E)`.
//! For a two-table tree the lift makes the formula collapse to the exactly
//! conditioned `N · s · P(preds | J)`; larger trees use the tree
//! factorization with conditional independence across edges.
//!
//! Every factor is exposed as a piece a scoring loop can memoize:
//! [`BayesEstimator::relation_probability`] per table, and per edge
//! [`BayesEstimator::edge_factor_with`], the one definition of the lift,
//! which takes `P(preds | J)` and the endpoint probabilities from its
//! caller. [`BayesEstimator::expected_matches`] composes the same pieces
//! uncached, with the joint from [`JoinIndicator::conditional_joint`]; a
//! memoizing caller passes the joint of memoized per-predicate pair masks
//! ([`JoinIndicator::joint_of_masks`]) and gets the same bits.

use crate::join_indicator::{JoinIndicator, Side};
use crate::model::RelationModel;
use prism_db::graph::JoinTree;
use prism_db::schema::{ColumnRef, TableId};
use prism_db::Database;
use prism_lang::ValueConstraint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Training hyper-parameters. Defaults are sized for interactive training on
/// databases of up to a few hundred thousand rows.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum discretization bins per column (NULL/OTHER bins on top).
    pub max_bins: usize,
    /// Reservoir size of joined pairs per edge.
    pub edge_sample: usize,
    /// RNG seed — training is fully deterministic given the seed.
    pub seed: u64,
    /// Learn join indicators (disable for the A1 ablation).
    pub use_join_indicators: bool,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            max_bins: 16,
            edge_sample: 512,
            seed: 0x9E3779B9,
            use_join_indicators: true,
        }
    }
}

/// Trained Bayesian models for one database.
#[derive(Debug, Clone)]
pub struct BayesEstimator {
    relations: Vec<RelationModel>,
    /// Indexed by `EdgeId`; empty when join indicators are disabled.
    joins: Vec<JoinIndicator>,
    use_join_indicators: bool,
}

// Filter scheduling queries the trained estimator from the coordinator
// while validation workers run; the estimator is also a candidate for
// sharing across whole engines. Prove the immutable-share contract at the
// type level.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<BayesEstimator>();

/// Bounds on the correlation correction so a tiny sample cannot blow up the
/// estimate.
const LIFT_MIN: f64 = 0.01;
const LIFT_MAX: f64 = 100.0;

impl BayesEstimator {
    /// Train all per-relation models and per-edge join indicators. This is
    /// the "a priori" preprocessing step of Section 2.3; it does not count
    /// toward interactive discovery time.
    pub fn train(db: &Database, config: &TrainConfig) -> BayesEstimator {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let relations = db
            .catalog()
            .tables()
            .map(|(tid, schema)| {
                RelationModel::train(
                    db.table(tid),
                    db.symbols(),
                    schema.arity(),
                    config.max_bins,
                    &mut rng,
                )
            })
            .collect();
        let joins = if config.use_join_indicators {
            (0..db.graph().edge_count())
                .map(|i| {
                    JoinIndicator::train(
                        db,
                        prism_db::graph::EdgeId(i as u32),
                        config.edge_sample,
                        config.seed,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        BayesEstimator {
            relations,
            joins,
            use_join_indicators: config.use_join_indicators,
        }
    }

    /// The trained model of one relation.
    pub fn relation(&self, table: TableId) -> &RelationModel {
        &self.relations[table.index()]
    }

    /// Whether join indicators were trained.
    pub fn has_join_indicators(&self) -> bool {
        self.use_join_indicators
    }

    /// `P(a uniformly random tuple of `table` satisfies every predicate)` —
    /// one factor of [`BayesEstimator::expected_matches`]. Exposed so
    /// scoring loops can cache it per distinct `(table, predicate set)`:
    /// inference repeats heavily across filters sharing sub-structure.
    pub fn relation_probability(&self, table: TableId, preds: &[(u32, &ValueConstraint)]) -> f64 {
        self.relations[table.index()].probability(preds)
    }

    /// The multiplicative contribution of one join edge given the grouped
    /// predicates on its two endpoint tables: join selectivity times the
    /// sampled correlation lift (or the independence fallback when join
    /// indicators are disabled). The other cacheable factor of
    /// [`BayesEstimator::expected_matches`].
    pub fn edge_factor(
        &self,
        db: &Database,
        eid: prism_db::graph::EdgeId,
        preds_a: &[(u32, &ValueConstraint)],
        preds_b: &[(u32, &ValueConstraint)],
    ) -> f64 {
        let edge = db.graph().edge(eid);
        self.edge_factor_with(
            db,
            eid,
            !(preds_a.is_empty() && preds_b.is_empty()),
            |ji| ji.conditional_joint(db, preds_a, preds_b),
            |side| match side {
                Side::A => self.relation_probability(edge.a.table, preds_a),
                Side::B => self.relation_probability(edge.b.table, preds_b),
            },
        )
    }

    /// [`BayesEstimator::edge_factor`] with its inputs supplied by the
    /// caller: `constrained` says whether either endpoint carries a
    /// predicate, `joint(ji)` must return `ji`'s
    /// [`JoinIndicator::conditional_joint`] of those predicates, and
    /// `endpoint(side)` the [`BayesEstimator::relation_probability`] of that
    /// side's table under its predicates. Each is called only when the lift
    /// needs it, the joint first, then endpoint `A`, then `B`, so a caller
    /// that memoizes them serves the lift from its memo.
    pub fn edge_factor_with(
        &self,
        db: &Database,
        eid: prism_db::graph::EdgeId,
        constrained: bool,
        joint: impl FnOnce(&JoinIndicator) -> Option<f64>,
        mut endpoint: impl FnMut(Side) -> f64,
    ) -> f64 {
        if !self.use_join_indicators {
            // Ablation: independence-only selectivity from index sizes.
            return independence_selectivity(db, db.graph().edge(eid));
        }
        let ji = &self.joins[eid.index()];
        let mut factor = ji.selectivity;
        if !constrained {
            return factor;
        }
        if let Some(p_joint) = joint(ji) {
            let p_a = endpoint(Side::A);
            let p_b = endpoint(Side::B);
            if p_a > 0.0 && p_b > 0.0 {
                factor *= (p_joint / (p_a * p_b)).clamp(LIFT_MIN, LIFT_MAX);
            }
        }
        factor
    }

    /// Expected number of result tuples of `tree` satisfying all predicates.
    /// `preds` pairs source columns (which must lie on tables of the tree)
    /// with value constraints. Composed exactly from
    /// [`BayesEstimator::relation_probability`] and
    /// [`BayesEstimator::edge_factor`], so cached scoring loops that call
    /// those pieces directly cannot drift from this definition.
    pub fn expected_matches(
        &self,
        db: &Database,
        tree: &JoinTree,
        preds: &[(ColumnRef, &ValueConstraint)],
    ) -> f64 {
        // Group predicates per table.
        let mut by_table: HashMap<TableId, Vec<(u32, &ValueConstraint)>> = HashMap::new();
        for (col, c) in preds {
            by_table
                .entry(col.table)
                .or_default()
                .push((col.column, *c));
        }

        // Tuple-combination count and per-relation probabilities.
        let mut expected = 1.0f64;
        for &t in &tree.tables {
            let rows = db.row_count(t) as f64;
            if rows == 0.0 {
                return 0.0;
            }
            expected *= rows;
            if let Some(tp) = by_table.get(&t) {
                expected *= self.relation_probability(t, tp);
            }
        }

        // Join selectivities and correlation lifts per tree edge.
        let empty: Vec<(u32, &ValueConstraint)> = Vec::new();
        for &eid in &tree.edges {
            let edge = db.graph().edge(eid);
            let preds_a = by_table.get(&edge.a.table).unwrap_or(&empty);
            let preds_b = by_table.get(&edge.b.table).unwrap_or(&empty);
            expected *= self.edge_factor(db, eid, preds_a, preds_b);
        }
        expected.max(0.0)
    }

    /// `P(no result tuple satisfies the predicates)` — the filter failure
    /// probability, via the Poisson zero class.
    pub fn failure_probability(
        &self,
        db: &Database,
        tree: &JoinTree,
        preds: &[(ColumnRef, &ValueConstraint)],
    ) -> f64 {
        (-self.expected_matches(db, tree, preds))
            .exp()
            .clamp(0.0, 1.0)
    }

    /// Expected raw result size of the tree (no predicates) — used as the
    /// scheduler's validation-cost proxy.
    pub fn expected_result_size(&self, db: &Database, tree: &JoinTree) -> f64 {
        self.expected_matches(db, tree, &[])
    }
}

/// Fallback join selectivity under full independence: `1 / max(|A|, |B|)`
/// for a key join, approximated from distinct counts.
fn independence_selectivity(db: &Database, edge: &prism_db::graph::JoinEdge) -> f64 {
    let da = db.stats().column(edge.a).distinct_count.max(1) as f64;
    let db_ = db.stats().column(edge.b).distinct_count.max(1) as f64;
    1.0 / da.max(db_)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_db::database::DatabaseBuilder;
    use prism_db::schema::ColumnDef;
    use prism_db::types::{DataType, Value};
    use prism_lang::parse_value_constraint;

    /// 40 lakes; only the 20 large ones (area >= 100) have geo rows, two
    /// provinces each.
    fn demo_db() -> Database {
        let mut b = DatabaseBuilder::new("demo");
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
        for i in 0..40 {
            let name = format!("Lake {i}");
            let area = if i < 20 {
                10.0 + i as f64
            } else {
                200.0 + i as f64
            };
            b.add_row("Lake", vec![name.clone().into(), Value::Decimal(area)])
                .unwrap();
            if i >= 20 {
                for p in 0..2 {
                    b.add_row(
                        "geo_lake",
                        vec![
                            name.clone().into(),
                            format!("Province {}", (i + p) % 6).into(),
                        ],
                    )
                    .unwrap();
                }
            }
        }
        b.add_foreign_key("geo_lake", "Lake", "Lake", "Name")
            .unwrap();
        b.build()
    }

    fn two_table_tree(db: &Database) -> JoinTree {
        db.graph()
            .enumerate_trees(2, &[TableId(0), TableId(1)])
            .into_iter()
            .find(|t| t.table_count() == 2)
            .expect("the FK edge exists")
    }

    #[test]
    fn unpredicated_tree_size_matches_reality() {
        let db = demo_db();
        let est = BayesEstimator::train(&db, &TrainConfig::default());
        let tree = two_table_tree(&db);
        let e = est.expected_result_size(&db, &tree);
        // True join size: every geo row joins exactly one lake = 40 rows.
        assert!((e - 40.0).abs() < 1.0, "expected ~40, got {e}");
    }

    #[test]
    fn join_indicator_corrects_area_estimates() {
        let db = demo_db();
        let with = BayesEstimator::train(&db, &TrainConfig::default());
        let without = BayesEstimator::train(
            &db,
            &TrainConfig {
                use_join_indicators: false,
                ..TrainConfig::default()
            },
        );
        let tree = two_table_tree(&db);
        let big = parse_value_constraint(">= 100").unwrap();
        let area_col = db.catalog().column_ref("Lake", "Area").unwrap();
        let preds = [(area_col, &big)];
        let e_with = with.expected_matches(&db, &tree, &preds);
        let e_without = without.expected_matches(&db, &tree, &preds);
        // Truth: all 40 joined rows have area >= 100. The join indicator
        // should push the estimate toward 40; independence halves it.
        assert!(
            (e_with - 40.0).abs() < (e_without - 40.0).abs(),
            "with JI {e_with} should beat without {e_without} (truth 40)"
        );
    }

    #[test]
    fn failure_probability_separates_satisfiable_from_hopeless() {
        let db = demo_db();
        let est = BayesEstimator::train(&db, &TrainConfig::default());
        let tree = two_table_tree(&db);
        let area_col = db.catalog().column_ref("Lake", "Area").unwrap();
        let feasible = parse_value_constraint(">= 100").unwrap();
        let hopeless = parse_value_constraint(">= 999999").unwrap();
        let p_ok = est.failure_probability(&db, &tree, &[(area_col, &feasible)]);
        let p_bad = est.failure_probability(&db, &tree, &[(area_col, &hopeless)]);
        assert!(p_ok < 0.2, "feasible filter should rarely fail: {p_ok}");
        assert!(p_bad > 0.8, "hopeless filter should likely fail: {p_bad}");
    }

    #[test]
    fn failure_probability_is_monotone_in_constraint_tightness() {
        let db = demo_db();
        let est = BayesEstimator::train(&db, &TrainConfig::default());
        let tree = two_table_tree(&db);
        let area_col = db.catalog().column_ref("Lake", "Area").unwrap();
        let loose = parse_value_constraint(">= 0").unwrap();
        let mid = parse_value_constraint(">= 200").unwrap();
        let tight = parse_value_constraint(">= 235").unwrap();
        let p = |c: &ValueConstraint| est.failure_probability(&db, &tree, &[(area_col, c)]);
        assert!(p(&loose) <= p(&mid) + 1e-9);
        assert!(p(&mid) <= p(&tight) + 1e-9);
    }

    #[test]
    fn empty_table_gives_certain_failure() {
        let mut b = DatabaseBuilder::new("e");
        b.add_table("A", vec![ColumnDef::new("x", DataType::Int)])
            .unwrap();
        let db = b.build();
        let est = BayesEstimator::train(&db, &TrainConfig::default());
        let tree = JoinTree::single(TableId(0));
        let c = parse_value_constraint("1").unwrap();
        let col = db.catalog().column_ref("A", "x").unwrap();
        assert_eq!(est.expected_matches(&db, &tree, &[(col, &c)]), 0.0);
        assert_eq!(est.failure_probability(&db, &tree, &[(col, &c)]), 1.0);
    }

    #[test]
    fn single_table_tree_uses_relation_model_only() {
        let db = demo_db();
        let est = BayesEstimator::train(&db, &TrainConfig::default());
        let tree = JoinTree::single(TableId(0));
        let big = parse_value_constraint(">= 100").unwrap();
        let area_col = db.catalog().column_ref("Lake", "Area").unwrap();
        let e = est.expected_matches(&db, &tree, &[(area_col, &big)]);
        // 20 of 40 lakes are large.
        assert!((e - 20.0).abs() < 6.0, "expected ~20, got {e}");
    }

    #[test]
    fn training_is_deterministic() {
        let db = demo_db();
        let a = BayesEstimator::train(&db, &TrainConfig::default());
        let b = BayesEstimator::train(&db, &TrainConfig::default());
        let tree = two_table_tree(&db);
        let c = parse_value_constraint("Province 3").unwrap();
        let col = db.catalog().column_ref("geo_lake", "Province").unwrap();
        assert_eq!(
            a.expected_matches(&db, &tree, &[(col, &c)]),
            b.expected_matches(&db, &tree, &[(col, &c)])
        );
    }
}
