//! Step 1b: candidate schema mapping queries.
//!
//! Section 2.3: *"With related columns found, we exhaustively search through
//! the source database schema graph and find all possible join paths, each
//! connecting a set of related columns that altogether can be mapped to all
//! columns in the target schema. Every join path along with the set of
//! related columns it connects becomes a candidate schema mapping query (in
//! form of a PJ query)."*
//!
//! A candidate is therefore a `(join tree, assignment)` pair: an assignment
//! maps each target column to a related column hosted on a tree table. Two
//! minimality rules keep the space non-redundant:
//!
//! * every **leaf** table of the tree must host at least one assigned column
//!   (otherwise the same result is produced by a smaller tree, which is
//!   enumerated separately), and
//! * no two target columns map to the same source column.
//!
//! Candidates are produced in non-decreasing tree size, so under a time
//! budget the cheap queries are enumerated (and later validated) first.
//!
//! A *tier* is every candidate of one tree size. `Tiers` appends one tier
//! per call, and [`enumerate_candidates`] runs it to the end. Tree size
//! fixes a candidate's join count, the first field of its `RankKey`, so a
//! later tier ranks below every earlier one: a round whose prefix of tiers
//! holds `result_limit` accepted queries never needs the rest
//! ([`crate::discovery`]).

use crate::config::DiscoveryConfig;
use crate::related::RelatedColumns;
use prism_db::graph::JoinTree;
use prism_db::schema::{ColumnRef, TableId};
use prism_db::{Database, JoinCond, PjQuery};
use std::cmp::Ordering;
use std::time::Instant;

/// One candidate schema mapping query.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub id: usize,
    pub tree: JoinTree,
    /// `assignment[i]` = the source column mapped to target column `i`.
    pub assignment: Vec<ColumnRef>,
    /// The equivalent executable PJ query.
    pub query: PjQuery,
}

impl Candidate {
    /// This candidate's place in the Result ranking, known before any
    /// validation.
    pub(crate) fn rank_key(&self, db: &Database) -> RankKey {
        RankKey {
            joins: self.query.join_count(),
            estimated_rows: estimate_result_rows(db, self),
        }
    }
}

/// The Result ranking's order before its SQL tie-break: fewer joins first
/// (simpler mappings), then the smaller statistics-only result estimate
/// (more specific mappings), compared with [`f64::total_cmp`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankKey {
    pub(crate) joins: usize,
    pub(crate) estimated_rows: f64,
}

impl Ord for RankKey {
    fn cmp(&self, other: &RankKey) -> Ordering {
        self.joins
            .cmp(&other.joins)
            .then_with(|| self.estimated_rows.total_cmp(&other.estimated_rows))
    }
}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &RankKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RankKey {
    fn eq(&self, other: &RankKey) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankKey {}

/// Statistics-only estimate of a candidate's result cardinality:
/// `Π |R_t| / Π max(distinct(a), distinct(b))` over the tree's join edges —
/// the classic System R key-join approximation. No execution involved.
fn estimate_result_rows(db: &Database, cand: &Candidate) -> f64 {
    let mut est = 1.0f64;
    for &t in &cand.tree.tables {
        est *= db.row_count(t).max(1) as f64;
    }
    for &e in &cand.tree.edges {
        let edge = db.graph().edge(e);
        let d = db
            .stats()
            .column(edge.a)
            .distinct_count
            .max(db.stats().column(edge.b).distinct_count)
            .max(1);
        est /= d as f64;
    }
    est
}

/// Result of candidate enumeration.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    pub candidates: Vec<Candidate>,
    /// True if enumeration stopped early (cap or deadline).
    pub truncated: bool,
}

/// Enumerate all candidates for the related-column sets.
pub fn enumerate_candidates(
    db: &Database,
    related: &RelatedColumns,
    config: &DiscoveryConfig,
    deadline: Option<Instant>,
) -> CandidateSet {
    let mut out = CandidateSet::default();
    let mut tiers = Tiers::new(db, related, config, deadline);
    while tiers.grow(&mut out) {}
    out
}

/// Candidate enumeration one tier (join-tree size) at a time. The caller's
/// [`CandidateSet`] accumulates the tiers, so candidate ids, the candidate
/// cap and truncation behave as one [`enumerate_candidates`] call.
pub(crate) struct Tiers<'a> {
    db: &'a Database,
    related: &'a RelatedColumns,
    config: &'a DiscoveryConfig,
    deadline: Option<Instant>,
    /// Every anchored tree, in non-decreasing size.
    trees: Vec<JoinTree>,
    /// The first tree not yet enumerated.
    next: usize,
}

impl<'a> Tiers<'a> {
    pub(crate) fn new(
        db: &'a Database,
        related: &'a RelatedColumns,
        config: &'a DiscoveryConfig,
        deadline: Option<Instant>,
    ) -> Tiers<'a> {
        let trees = if related.has_empty_column() {
            Vec::new()
        } else {
            db.graph()
                .enumerate_trees(config.max_tables, &related.anchor_tables())
        };
        Tiers {
            db,
            related,
            config,
            deadline,
            trees,
            next: 0,
        }
    }

    /// Append the next tier's candidates to `out`; false if no tier was
    /// left. Hitting the candidate cap or the deadline sets
    /// `out.truncated` and ends enumeration.
    pub(crate) fn grow(&mut self, out: &mut CandidateSet) -> bool {
        let Some(size) = self.trees.get(self.next).map(JoinTree::table_count) else {
            return false;
        };
        let tier = &self.trees[self.next..];
        let end = self.next + tier.partition_point(|t| t.table_count() == size);
        for tree in &self.trees[self.next..end] {
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                out.truncated = true;
                break;
            }
            // Options per target column, restricted to this tree's tables.
            let options: Vec<Vec<ColumnRef>> = self
                .related
                .per_column
                .iter()
                .map(|cols| {
                    cols.iter()
                        .copied()
                        .filter(|c| tree.contains_table(c.table))
                        .collect::<Vec<_>>()
                })
                .collect();
            if options.iter().any(Vec::is_empty) {
                continue;
            }
            let leaves = tree.leaf_tables(self.db.graph());
            let mut assignment: Vec<ColumnRef> = Vec::with_capacity(options.len());
            let (db, config) = (self.db, self.config);
            if !assign(db, tree, &leaves, &options, &mut assignment, config, out) {
                break; // global cap hit
            }
        }
        self.next = if out.truncated { self.trees.len() } else { end };
        true
    }
}

/// Recursive assignment enumeration; returns false when the global
/// candidate cap was reached.
fn assign(
    db: &Database,
    tree: &JoinTree,
    leaves: &[TableId],
    options: &[Vec<ColumnRef>],
    assignment: &mut Vec<ColumnRef>,
    config: &DiscoveryConfig,
    out: &mut CandidateSet,
) -> bool {
    if assignment.len() == options.len() {
        // Minimality: every leaf hosts at least one assigned column.
        let covered = leaves
            .iter()
            .all(|leaf| assignment.iter().any(|c| c.table == *leaf));
        if !covered {
            return true;
        }
        if out.candidates.len() >= config.max_candidates {
            out.truncated = true;
            return false;
        }
        let id = out.candidates.len();
        let query = build_query(db, tree, assignment);
        out.candidates.push(Candidate {
            id,
            tree: tree.clone(),
            assignment: assignment.clone(),
            query,
        });
        return true;
    }
    let i = assignment.len();
    for &col in &options[i] {
        if assignment.contains(&col) {
            continue; // target columns map to distinct source columns
        }
        assignment.push(col);
        let ok = assign(db, tree, leaves, options, assignment, config, out);
        assignment.pop();
        if !ok {
            return false;
        }
    }
    true
}

/// Materialize the PJ query of a `(tree, assignment)` pair.
pub fn build_query(db: &Database, tree: &JoinTree, assignment: &[ColumnRef]) -> PjQuery {
    let nodes: Vec<TableId> = tree.tables.clone();
    let slot_of = |t: TableId| nodes.iter().position(|&x| x == t).expect("table in tree");
    let joins: Vec<JoinCond> = tree
        .edges
        .iter()
        .map(|&e| {
            let edge = db.graph().edge(e);
            JoinCond {
                left_node: slot_of(edge.a.table),
                left_col: edge.a.column,
                right_node: slot_of(edge.b.table),
                right_col: edge.b.column,
            }
        })
        .collect();
    let projection = assignment
        .iter()
        .map(|c| (slot_of(c.table), c.column))
        .collect();
    PjQuery {
        nodes,
        joins,
        projection,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::TargetConstraints;
    use crate::related::find_related;
    use prism_datasets::mondial;
    use prism_db::render_sql;

    fn some(s: &str) -> Option<String> {
        Some(s.to_string())
    }

    fn walkthrough_candidates(db: &Database) -> CandidateSet {
        let tc = TargetConstraints::parse(
            3,
            &[vec![some("California || Nevada"), some("Lake Tahoe"), None]],
            &[None, None, some("DataType=='decimal' AND MinValue>='0'")],
        )
        .unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(db, &tc, &config);
        enumerate_candidates(db, &rel, &config, None)
    }

    #[test]
    fn walkthrough_candidates_include_the_desired_query() {
        let db = mondial(42, 1);
        let set = walkthrough_candidates(&db);
        assert!(!set.truncated);
        assert!(!set.candidates.is_empty());
        let sqls: Vec<String> = set
            .candidates
            .iter()
            .map(|c| render_sql(&c.query, &db))
            .collect();
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        assert!(
            sqls.iter().any(|s| s == want),
            "desired query missing; got {} candidates, e.g. {:?}",
            sqls.len(),
            &sqls[..sqls.len().min(5)]
        );
    }

    #[test]
    fn all_candidates_are_valid_queries_with_full_assignments() {
        let db = mondial(42, 1);
        let set = walkthrough_candidates(&db);
        for c in &set.candidates {
            assert_eq!(c.assignment.len(), 3);
            c.query
                .validate(&db)
                .expect("candidate query is executable");
            // Distinct source columns.
            let mut cols = c.assignment.clone();
            cols.sort();
            cols.dedup();
            assert_eq!(cols.len(), 3, "assignment reuses a column: {c:?}");
        }
    }

    #[test]
    fn leaf_minimality_is_enforced() {
        let db = mondial(42, 1);
        let set = walkthrough_candidates(&db);
        for c in &set.candidates {
            for leaf in c.tree.leaf_tables(db.graph()) {
                assert!(
                    c.assignment.iter().any(|col| col.table == leaf),
                    "leaf {:?} hosts no projected column in {}",
                    db.catalog().table(leaf).name,
                    render_sql(&c.query, &db)
                );
            }
        }
    }

    #[test]
    fn candidates_are_emitted_smallest_trees_first() {
        let db = mondial(42, 1);
        let set = walkthrough_candidates(&db);
        let sizes: Vec<usize> = set
            .candidates
            .iter()
            .map(|c| c.tree.table_count())
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn cap_truncates_enumeration() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(
            3,
            &[vec![some("California || Nevada"), some("Lake Tahoe"), None]],
            &[None, None, some("DataType=='decimal' AND MinValue>='0'")],
        )
        .unwrap();
        let config = DiscoveryConfig {
            max_candidates: 3,
            ..DiscoveryConfig::default()
        };
        let rel = find_related(&db, &tc, &config);
        let set = enumerate_candidates(&db, &rel, &config, None);
        assert_eq!(set.candidates.len(), 3);
        assert!(set.truncated);
    }

    #[test]
    fn empty_related_column_yields_no_candidates() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(1, &[vec![some("Atlantis Prime")]], &[]).unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let set = enumerate_candidates(&db, &rel, &config, None);
        assert!(set.candidates.is_empty());
    }

    #[test]
    fn expired_deadline_truncates_immediately() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(1, &[vec![some("Lake Tahoe")]], &[]).unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let set = enumerate_candidates(&db, &rel, &config, Some(past));
        assert!(set.truncated);
        assert!(set.candidates.is_empty());
    }

    #[test]
    fn single_keyword_yields_single_table_candidates_too() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(1, &[vec![some("Lake Tahoe")]], &[]).unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let set = enumerate_candidates(&db, &rel, &config, None);
        assert!(set
            .candidates
            .iter()
            .any(|c| c.tree.table_count() == 1 && c.query.joins.is_empty()));
    }
}
