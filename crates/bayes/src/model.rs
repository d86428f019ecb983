//! Per-relation tree-structured Bayesian networks (Chow–Liu).
//!
//! A [`RelationModel`] is trained once per table during preprocessing:
//! columns are discretized, pairwise mutual information is measured over the
//! discretized rows, and a maximum-spanning tree over mutual information
//! (the Chow–Liu algorithm) fixes the network structure. Conditional
//! probability tables are Laplace-smoothed counts.
//!
//! At query time the model answers: *what fraction of this relation's tuples
//! satisfies a conjunction of per-column value constraints?* — the
//! intra-relation half of the filter-failure estimate. Constraints enter
//! inference as soft per-bin evidence weights, so arbitrary range and
//! disjunction constraints are supported, not just equalities.

use crate::discretize::Discretizer;
use prism_db::interner::SymbolTable;
use prism_db::table::Table;
use prism_lang::ValueConstraint;
use rand::rngs::StdRng;

/// Laplace smoothing pseudo-count for CPT cells.
const SMOOTHING: f64 = 0.5;

/// A conditional probability table `P(x = b | parent = pb)`, stored
/// parent-major. Roots have `parent_card == 1`.
#[derive(Debug, Clone)]
struct Cpt {
    parent_card: usize,
    card: usize,
    /// `probs[pb * card + b]`.
    probs: Vec<f64>,
}

impl Cpt {
    fn prob(&self, parent_bin: usize, bin: usize) -> f64 {
        self.probs[parent_bin * self.card + bin]
    }
}

/// A trained Chow–Liu Bayesian network over one relation's columns.
#[derive(Debug, Clone)]
pub struct RelationModel {
    discretizers: Vec<Discretizer>,
    /// Chow–Liu tree: parent of each column (None for the root).
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// Every column, children before their parents: the order of the
    /// upward inference pass.
    upward: Vec<usize>,
    cpts: Vec<Cpt>,
    row_count: u32,
}

impl RelationModel {
    /// Learn a model from a table. `max_bins` bounds the per-column
    /// discretization (NULL and OTHER bins come on top).
    pub fn train(
        table: &Table,
        syms: &SymbolTable,
        columns: usize,
        max_bins: usize,
        rng: &mut StdRng,
    ) -> RelationModel {
        let n = table.row_count();
        let mut discretizers = Vec::with_capacity(columns);
        let mut bins: Vec<Vec<u8>> = Vec::with_capacity(columns);
        for c in 0..columns {
            let (d, assignment) = Discretizer::fit(table, syms, c as u32, max_bins, rng);
            discretizers.push(d);
            bins.push(assignment);
        }

        // Pairwise mutual information over discretized columns.
        let mi = |i: usize, j: usize| -> f64 {
            mutual_information(
                &bins[i],
                &bins[j],
                discretizers[i].bin_count() as usize,
                discretizers[j].bin_count() as usize,
            )
        };

        // Chow–Liu: maximum spanning tree via Prim's, rooted at column 0.
        let mut parent: Vec<Option<usize>> = vec![None; columns];
        if columns > 1 && n > 0 {
            let mut in_tree = vec![false; columns];
            in_tree[0] = true;
            let mut best: Vec<(f64, usize)> = (0..columns).map(|j| (mi(0, j), 0)).collect();
            for _ in 1..columns {
                let mut pick = None;
                let mut pick_w = f64::NEG_INFINITY;
                for j in 0..columns {
                    if !in_tree[j] && best[j].0 > pick_w {
                        pick_w = best[j].0;
                        pick = Some(j);
                    }
                }
                let Some(j) = pick else { break };
                in_tree[j] = true;
                parent[j] = Some(best[j].1);
                for k in 0..columns {
                    if !in_tree[k] {
                        let w = mi(j, k);
                        if w > best[k].0 {
                            best[k] = (w, j);
                        }
                    }
                }
            }
        }

        let mut children: Vec<Vec<usize>> = vec![Vec::new(); columns];
        for (c, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(c);
            }
        }
        // Breadth-first from the roots lists parents before children;
        // reversed, it is the upward pass's order.
        let mut upward: Vec<usize> = (0..columns).filter(|&c| parent[c].is_none()).collect();
        let mut next = 0;
        while next < upward.len() {
            let node = upward[next];
            upward.extend_from_slice(&children[node]);
            next += 1;
        }
        upward.reverse();

        // Laplace-smoothed CPTs.
        let mut cpts = Vec::with_capacity(columns);
        for c in 0..columns {
            let card = discretizers[c].bin_count() as usize;
            let parent_card = parent[c]
                .map(|p| discretizers[p].bin_count() as usize)
                .unwrap_or(1);
            let mut counts = vec![0.0f64; parent_card * card];
            for (r, &bin) in bins[c].iter().enumerate().take(n) {
                let b = bin as usize;
                let pb = parent[c].map(|p| bins[p][r] as usize).unwrap_or(0);
                counts[pb * card + b] += 1.0;
            }
            let mut probs = vec![0.0f64; parent_card * card];
            for pb in 0..parent_card {
                let total: f64 = counts[pb * card..(pb + 1) * card].iter().sum();
                let denom = total + SMOOTHING * card as f64;
                for b in 0..card {
                    probs[pb * card + b] = (counts[pb * card + b] + SMOOTHING) / denom;
                }
            }
            cpts.push(Cpt {
                parent_card,
                card,
                probs,
            });
        }

        RelationModel {
            discretizers,
            parent,
            children,
            upward,
            cpts,
            row_count: n as u32,
        }
    }

    pub fn column_count(&self) -> usize {
        self.discretizers.len()
    }

    pub fn row_count(&self) -> u32 {
        self.row_count
    }

    pub fn discretizer(&self, column: u32) -> &Discretizer {
        &self.discretizers[column as usize]
    }

    /// The Chow–Liu parent of a column (None for the root). Exposed for
    /// diagnostics and structure tests.
    pub fn structure(&self) -> &[Option<usize>] {
        &self.parent
    }

    /// Per-bin evidence weights for a constraint on a column: weight\[b\] ≈
    /// P(constraint holds | bin = b). Reservoir fractions provide the base
    /// estimate; for pure equality keywords the bin holding the keyword is
    /// floored at one matching row (Step-1 related-column search has already
    /// proven the keyword exists somewhere in the column).
    pub fn column_weights(&self, column: u32, c: &ValueConstraint) -> Vec<f64> {
        let disc = &self.discretizers[column as usize];
        let mut w: Vec<f64> = (0..disc.bin_count())
            .map(|b| disc.bin_match_fraction(b, c))
            .collect();
        if let Some(keywords) = c.eq_keywords() {
            for lit in keywords {
                // Place the keyword in its bin under both plausible typings.
                let mut candidates = vec![prism_db::Value::Text(lit.raw.clone())];
                if let Some(n) = lit.num {
                    candidates.push(prism_db::Value::Decimal(n));
                }
                for v in candidates {
                    let b = disc.bin_of(&v) as usize;
                    if b != crate::discretize::NULL_BIN as usize {
                        let rows = disc.bin_rows()[b].max(1) as f64;
                        w[b] = w[b].max(1.0 / rows);
                    }
                }
            }
        }
        w
    }

    /// P(a uniformly random tuple satisfies every constraint), where
    /// `evidence[col]` optionally carries per-bin weights from
    /// [`RelationModel::column_weights`]. Exact tree inference by a single
    /// upward pass: each node's message
    /// `m(node, pb) = Σ_b P(b | pb) · weight(b) · Π_child m(child, b)` is
    /// evaluated once per parent bin, children first, and the roots'
    /// messages multiply into the answer.
    pub fn probability_with_weights(&self, evidence: &[Option<Vec<f64>>]) -> f64 {
        if self.row_count == 0 {
            return 0.0;
        }
        // Messages of all nodes in one buffer; `at[node]` is where the
        // node's `parent_card` entries start.
        let mut at = vec![0usize; self.column_count()];
        let mut msgs: Vec<f64> = Vec::new();
        for &node in &self.upward {
            let cpt = &self.cpts[node];
            at[node] = msgs.len();
            for pb in 0..cpt.parent_card {
                let mut total = 0.0;
                for b in 0..cpt.card {
                    let mut term = cpt.prob(pb, b);
                    if let Some(w) = &evidence[node] {
                        term *= w[b];
                        if term == 0.0 {
                            continue;
                        }
                    }
                    for &child in &self.children[node] {
                        term *= msgs[at[child] + b];
                        if term == 0.0 {
                            break;
                        }
                    }
                    total += term;
                }
                msgs.push(total);
            }
        }
        let mut p = 1.0;
        for r in (0..self.column_count()).filter(|&c| self.parent[c].is_none()) {
            p *= msgs[at[r]];
        }
        p.clamp(0.0, 1.0)
    }

    /// Convenience wrapper: constraints as (column, constraint) pairs.
    pub fn probability(&self, constraints: &[(u32, &ValueConstraint)]) -> f64 {
        let mut evidence: Vec<Option<Vec<f64>>> = vec![None; self.column_count()];
        for (col, c) in constraints {
            let w = self.column_weights(*col, c);
            // Conjoined constraints on the same column multiply pointwise.
            match &mut evidence[*col as usize] {
                Some(existing) => {
                    for (e, nw) in existing.iter_mut().zip(&w) {
                        *e *= nw;
                    }
                }
                slot => *slot = Some(w),
            }
        }
        self.probability_with_weights(&evidence)
    }
}

/// Mutual information (nats) between two discretized columns.
fn mutual_information(a: &[u8], b: &[u8], card_a: usize, card_b: usize) -> f64 {
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let mut joint = vec![0u32; card_a * card_b];
    let mut ma = vec![0u32; card_a];
    let mut mb = vec![0u32; card_b];
    for i in 0..n {
        joint[a[i] as usize * card_b + b[i] as usize] += 1;
        ma[a[i] as usize] += 1;
        mb[b[i] as usize] += 1;
    }
    let nf = n as f64;
    let mut mi = 0.0;
    for x in 0..card_a {
        if ma[x] == 0 {
            continue;
        }
        for y in 0..card_b {
            let c = joint[x * card_b + y];
            if c == 0 {
                continue;
            }
            let pxy = c as f64 / nf;
            let px = ma[x] as f64 / nf;
            let py = mb[y] as f64 / nf;
            mi += pxy * (pxy / (px * py)).ln();
        }
    }
    mi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_db::schema::{ColumnDef, TableSchema};
    use prism_db::types::{DataType, Value};
    use prism_lang::parse_value_constraint;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The recursive form of [`RelationModel::probability_with_weights`]:
    /// each subtree is walked once per combination of its ancestors' bins.
    /// Kept as the bit-identity reference for the upward pass.
    fn reference_probability(m: &RelationModel, evidence: &[Option<Vec<f64>>]) -> f64 {
        if m.row_count == 0 {
            return 0.0;
        }
        let mut p = 1.0;
        for r in (0..m.column_count()).filter(|&c| m.parent[c].is_none()) {
            p *= subtree_probability(m, r, 0, evidence);
        }
        p.clamp(0.0, 1.0)
    }

    /// `Σ_b P(b | parent_bin) · weight(b) · Π_child subtree(child, b)`.
    fn subtree_probability(
        m: &RelationModel,
        node: usize,
        parent_bin: usize,
        evidence: &[Option<Vec<f64>>],
    ) -> f64 {
        let cpt = &m.cpts[node];
        debug_assert!(parent_bin < cpt.parent_card);
        let mut total = 0.0;
        for b in 0..cpt.card {
            let mut term = cpt.prob(parent_bin, b);
            if let Some(w) = &evidence[node] {
                term *= w[b];
                if term == 0.0 {
                    continue;
                }
            }
            for &child in &m.children[node] {
                term *= subtree_probability(m, child, b, evidence);
                if term == 0.0 {
                    break;
                }
            }
            total += term;
        }
        total
    }

    /// Two perfectly correlated text columns and one independent numeric.
    fn correlated_table(n: usize) -> (TableSchema, Table, SymbolTable) {
        let s = TableSchema {
            name: "T".into(),
            columns: vec![
                ColumnDef::new("state", DataType::Text),
                ColumnDef::new("country", DataType::Text),
                ColumnDef::new("x", DataType::Int),
            ],
        };
        let mut syms = SymbolTable::new();
        let mut t = Table::new(&s);
        let pairs = [
            ("California", "USA"),
            ("Nevada", "USA"),
            ("Bavaria", "Germany"),
            ("Ontario", "Canada"),
        ];
        for i in 0..n {
            let (st, co) = pairs[i % pairs.len()];
            t.push_row(
                &s,
                &mut syms,
                vec![st.into(), co.into(), Value::Int((i % 10) as i64)],
            )
            .unwrap();
        }
        (s, t, syms)
    }

    #[test]
    fn mutual_information_detects_dependence() {
        let a: Vec<u8> = (0..100).map(|i| (i % 4) as u8).collect();
        let b = a.clone(); // identical => high MI
        let c: Vec<u8> = (0..100).map(|i| (i % 2) as u8 + 1).collect(); // independent-ish
        let mi_ab = mutual_information(&a, &b, 4, 4);
        let mi_ac = mutual_information(&a, &c, 4, 4);
        assert!(mi_ab > mi_ac, "identical columns must have higher MI");
        assert!(mi_ab > 1.0, "MI of identical 4-ary column ~ ln 4");
    }

    #[test]
    fn chow_liu_links_correlated_columns() {
        let (_, t, syms) = correlated_table(400);
        let mut rng = StdRng::seed_from_u64(3);
        let m = RelationModel::train(&t, &syms, 3, 8, &mut rng);
        // state and country must be adjacent in the tree (one is the
        // other's parent), since their MI dwarfs the independent column's.
        let p = m.structure();
        let adjacent = p[1] == Some(0) || p[0] == Some(1);
        assert!(adjacent, "structure {:?}", p);
    }

    #[test]
    fn joint_probability_reflects_correlation() {
        let (_, t, syms) = correlated_table(400);
        let mut rng = StdRng::seed_from_u64(3);
        let m = RelationModel::train(&t, &syms, 3, 8, &mut rng);
        let cal = parse_value_constraint("California").unwrap();
        let usa = parse_value_constraint("USA").unwrap();
        let germany = parse_value_constraint("Germany").unwrap();
        let p_cal_usa = m.probability(&[(0, &cal), (1, &usa)]);
        let p_cal_de = m.probability(&[(0, &cal), (1, &germany)]);
        // (California, USA) occurs in 25% of rows; (California, Germany)
        // never occurs. The model must rank them accordingly, by a wide
        // margin — this is exactly what independence would get wrong.
        assert!(
            p_cal_usa > 5.0 * p_cal_de,
            "correlated {p_cal_usa} vs impossible {p_cal_de}"
        );
        assert!((p_cal_usa - 0.25).abs() < 0.1, "P(cal,usa) = {p_cal_usa}");
    }

    #[test]
    fn marginal_probability_tracks_frequency() {
        let (_, t, syms) = correlated_table(400);
        let mut rng = StdRng::seed_from_u64(3);
        let m = RelationModel::train(&t, &syms, 3, 8, &mut rng);
        let usa = parse_value_constraint("USA").unwrap();
        let p = m.probability(&[(1, &usa)]);
        assert!((p - 0.5).abs() < 0.1, "P(USA) = {p}");
    }

    #[test]
    fn unconstrained_probability_is_one() {
        let (_, t, syms) = correlated_table(100);
        let mut rng = StdRng::seed_from_u64(3);
        let m = RelationModel::train(&t, &syms, 3, 8, &mut rng);
        let p = m.probability(&[]);
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_table_probability_is_zero() {
        let s = TableSchema {
            name: "T".into(),
            columns: vec![ColumnDef::new("x", DataType::Int)],
        };
        let t = Table::new(&s);
        let syms = SymbolTable::new();
        let mut rng = StdRng::seed_from_u64(3);
        let m = RelationModel::train(&t, &syms, 1, 8, &mut rng);
        let c = parse_value_constraint("5").unwrap();
        assert_eq!(m.probability(&[(0, &c)]), 0.0);
    }

    #[test]
    fn range_constraints_enter_as_soft_evidence() {
        let (_, t, syms) = correlated_table(400);
        let mut rng = StdRng::seed_from_u64(3);
        let m = RelationModel::train(&t, &syms, 3, 8, &mut rng);
        let low = parse_value_constraint("< 5").unwrap();
        let p = m.probability(&[(2, &low)]);
        // x is uniform over 0..10, so about half the rows satisfy x < 5.
        assert!((p - 0.5).abs() < 0.2, "P(x<5) = {p}");
    }

    #[test]
    fn eq_keyword_floor_prevents_zero_estimates() {
        // A rare value that reservoir sampling will likely miss still gets a
        // nonzero probability thanks to the existence floor.
        let s = TableSchema {
            name: "T".into(),
            columns: vec![ColumnDef::new("name", DataType::Text)],
        };
        let mut syms = SymbolTable::new();
        let mut t = Table::new(&s);
        for i in 0..500 {
            t.push_row(&s, &mut syms, vec![format!("common-{}", i % 3).into()])
                .unwrap();
        }
        t.push_row(&s, &mut syms, vec!["needle".into()]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let m = RelationModel::train(&t, &syms, 1, 4, &mut rng);
        let c = parse_value_constraint("needle").unwrap();
        let p = m.probability(&[(0, &c)]);
        assert!(p > 0.0, "rare keyword must keep nonzero probability");
        assert!(p < 0.05, "but it must stay small, got {p}");
    }

    /// A `width`-column relation whose columns form a noisy chain: column
    /// `i + 1` copies column `i` unless the row's noise bit `i` is set, so
    /// Chow–Liu learns a deep tree. Even columns are numeric, odd columns
    /// text; a set bit 7 makes the row's last column NULL.
    fn chain_table(width: usize, rows: &[(u8, u8)]) -> (Table, SymbolTable) {
        let s = TableSchema {
            name: "T".into(),
            columns: (0..width)
                .map(|i| {
                    let ty = if i % 2 == 0 {
                        DataType::Int
                    } else {
                        DataType::Text
                    };
                    ColumnDef::new(format!("c{i}"), ty)
                })
                .collect(),
        };
        let mut syms = SymbolTable::new();
        let mut t = Table::new(&s);
        for &(start, noise) in rows {
            let mut v = start % 12;
            let mut row = Vec::with_capacity(width);
            for i in 0..width {
                if i > 0 && noise & (1 << (i - 1)) != 0 {
                    v = (v * 7 + 3) % 12;
                }
                row.push(if i + 1 == width && noise & 0x80 != 0 {
                    Value::Null
                } else if i % 2 == 0 {
                    Value::Int(v as i64)
                } else {
                    format!("v{v}").into()
                });
            }
            t.push_row(&s, &mut syms, row).unwrap();
        }
        (t, syms)
    }

    /// Evidence pool: ranges, disjunctions and keywords, over both the
    /// numeric and the text columns.
    const EVIDENCE: [&str; 9] = [
        "< 5",
        ">= 7",
        ">= 2 && <= 9",
        "3 || 7",
        "v3",
        "v4 || v11",
        "CONTAINS v1",
        "!= v5",
        ">= 99999",
    ];

    /// The largest number of edges from a column up to its root.
    fn tree_depth(m: &RelationModel) -> usize {
        let parent = m.structure();
        (0..parent.len())
            .map(|mut c| {
                let mut d = 0;
                while let Some(p) = parent[c] {
                    c = p;
                    d += 1;
                }
                d
            })
            .max()
            .unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The upward pass multiplies the same products in the same order
        /// as the recursive walk, so the two agree bit for bit on any tree
        /// and any evidence, zero weights included. Every generated
        /// relation has a Chow–Liu tree at least two edges deep, where the
        /// recursive walk revisits subtrees once per ancestor bin.
        #[test]
        fn upward_pass_is_bit_identical_to_the_recursive_walk(
            width in 4usize..=6,
            rows in proptest::collection::vec((0u8..=255, 0u8..=255), 40..160),
            picks in proptest::collection::vec(
                (0usize..6, 0usize..EVIDENCE.len()), 1..6),
            max_bins in 3usize..10,
            seed in 0u64..1000,
        ) {
            let (t, syms) = chain_table(width, &rows);
            let mut rng = StdRng::seed_from_u64(seed);
            let m = RelationModel::train(&t, &syms, width, max_bins, &mut rng);
            prop_assert!(tree_depth(&m) >= 2, "structure {:?}", m.structure());
            let parsed: Vec<ValueConstraint> = EVIDENCE
                .iter()
                .map(|e| parse_value_constraint(e).unwrap())
                .collect();
            let mut evidence: Vec<Option<Vec<f64>>> = vec![None; width];
            prop_assert_eq!(
                m.probability_with_weights(&evidence).to_bits(),
                reference_probability(&m, &evidence).to_bits()
            );
            for (col, e) in picks {
                let col = col % width;
                let w = m.column_weights(col as u32, &parsed[e]);
                match &mut evidence[col] {
                    Some(existing) => {
                        for (x, y) in existing.iter_mut().zip(&w) {
                            *x *= y;
                        }
                    }
                    slot => *slot = Some(w),
                }
                let fast = m.probability_with_weights(&evidence);
                let slow = reference_probability(&m, &evidence);
                prop_assert_eq!(fast.to_bits(), slow.to_bits(), "{} vs {}", fast, slow);
            }
        }
    }

    #[test]
    fn conjunction_on_same_column_multiplies_weights() {
        let (_, t, syms) = correlated_table(400);
        let mut rng = StdRng::seed_from_u64(3);
        let m = RelationModel::train(&t, &syms, 3, 8, &mut rng);
        let ge = parse_value_constraint(">= 2").unwrap();
        let lt = parse_value_constraint("< 5").unwrap();
        let p_band = m.probability(&[(2, &ge), (2, &lt)]);
        let p_low = m.probability(&[(2, &lt)]);
        assert!(p_band <= p_low + 1e-9);
    }
}
