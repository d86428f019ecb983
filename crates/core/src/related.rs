//! Step 1a: related-column discovery.
//!
//! Section 2.3: *"finding related columns is essentially finding columns in
//! the database matching at least a value constraint or metadata
//! constraint."* A source column is **related to target column i** when:
//!
//! * for every sample row that constrains cell *i*, the column contains at
//!   least one value satisfying that cell's constraint (pure
//!   keyword-disjunction constraints are answered entirely by the inverted
//!   index; anything else falls back to an early-exit scan, prefiltered by
//!   min/max statistics), and
//! * the column's statistics satisfy target column *i*'s metadata
//!   constraint, if one was given.
//!
//! Target columns with no constraints at all accept every column, capped at
//! `max_related_per_column` (catalog order) to keep the candidate search
//! bounded — the paper's Section 2.4 observes exactly this blow-up when
//! "there were too many missing values".

use crate::config::DiscoveryConfig;
use crate::constraints::TargetConstraints;
use prism_db::schema::ColumnRef;
use prism_db::Database;
use prism_lang::{metadata_satisfied_with, UdfRegistry, ValueConstraint};
use std::collections::BTreeSet;

/// The result of related-column discovery.
#[derive(Debug, Clone)]
pub struct RelatedColumns {
    /// `per_column[i]` = source columns related to target column `i`,
    /// sorted for determinism.
    pub per_column: Vec<Vec<ColumnRef>>,
    /// Whether any target column hit the relatedness cap.
    pub capped: bool,
}

impl RelatedColumns {
    /// Tables hosting at least one related column — the anchors of the
    /// join-tree search.
    pub fn anchor_tables(&self) -> Vec<prism_db::TableId> {
        let mut set = BTreeSet::new();
        for cols in &self.per_column {
            for c in cols {
                set.insert(c.table);
            }
        }
        set.into_iter().collect()
    }

    /// True when some target column has no related column at all (discovery
    /// can stop: no query can satisfy the constraints).
    pub fn has_empty_column(&self) -> bool {
        self.per_column.iter().any(Vec::is_empty)
    }
}

/// Find related columns for every target column.
pub fn find_related(
    db: &Database,
    constraints: &TargetConstraints,
    config: &DiscoveryConfig,
) -> RelatedColumns {
    let mut per_column = Vec::with_capacity(constraints.column_count);
    let mut capped = false;
    for i in 0..constraints.column_count {
        let value_cs: Vec<&ValueConstraint> = constraints
            .column_value_constraints(i)
            .map(|(_, c)| c)
            .collect();
        let meta = constraints.metadata[i].as_ref();

        let mut cols: Vec<ColumnRef> = Vec::new();
        if value_cs.is_empty() && meta.is_none() {
            // Unconstrained column: every column qualifies, capped.
            for col in db.catalog().all_columns() {
                if cols.len() >= config.max_related_per_column {
                    capped = true;
                    break;
                }
                cols.push(col);
            }
        } else {
            // Candidate universe: answered by the index when the *first*
            // constraint is a keyword disjunction, else all columns.
            let universe: Vec<ColumnRef> = match value_cs.first().and_then(|c| c.eq_keywords()) {
                Some(keywords) => {
                    let mut set = BTreeSet::new();
                    for lit in keywords {
                        for col in db.index().columns_with_cell(&lit.raw) {
                            set.insert(col);
                        }
                    }
                    set.into_iter().collect()
                }
                None => db.catalog().all_columns().collect(),
            };
            for col in universe {
                if let Some(m) = meta {
                    let def = db.catalog().column_def(col);
                    if !metadata_satisfied_with(
                        m,
                        &def.name,
                        db.stats().column(col),
                        &constraints.udfs,
                    ) {
                        continue;
                    }
                }
                if value_cs
                    .iter()
                    .all(|c| column_satisfies(db, col, c, &constraints.udfs))
                {
                    if cols.len() >= config.max_related_per_column {
                        capped = true;
                        break;
                    }
                    cols.push(col);
                }
            }
        }
        per_column.push(cols);
    }
    RelatedColumns { per_column, capped }
}

/// Does `col` contain at least one value satisfying `c`?
fn column_satisfies(
    db: &Database,
    col: ColumnRef,
    c: &ValueConstraint,
    udfs: &UdfRegistry,
) -> bool {
    // Keyword disjunctions: answered by the inverted index.
    if let Some(keywords) = c.eq_keywords() {
        return keywords
            .iter()
            .any(|lit| db.index().column_has_cell(col, &lit.raw));
    }
    // Statistics prefilter: a purely numeric range constraint cannot match a
    // column whose min/max lie entirely outside it. (UDF predicates get a
    // nonzero default selectivity, so they always reach the scan below.)
    let stats = db.stats().column(col);
    if stats.non_null_count() == 0 {
        return false;
    }
    if prism_lang::estimate_selectivity(c, stats) <= 0.0 {
        // Selectivity 0 from the histogram is an estimate, not a proof —
        // but for range predicates it is driven by hard min/max bounds, so
        // use it as a prefilter and confirm by scan only on nonzero.
        // (Equality constraints were handled by the index above.)
        return false;
    }
    // Early-exit scan over borrowed cell views (no clones).
    db.table(col.table)
        .column(col.column)
        .iter(db.symbols())
        .any(|v| prism_lang::matches_value_ref_with(c, v, udfs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoveryConfig;
    use crate::constraints::TargetConstraints;
    use prism_datasets::mondial;

    fn some(s: &str) -> Option<String> {
        Some(s.to_string())
    }

    fn walkthrough() -> TargetConstraints {
        TargetConstraints::parse(
            3,
            &[vec![some("California || Nevada"), some("Lake Tahoe"), None]],
            &[None, None, some("DataType=='decimal' AND MinValue>='0'")],
        )
        .unwrap()
    }

    #[test]
    fn walkthrough_finds_the_ground_truth_columns() {
        let db = mondial(42, 1);
        let rel = find_related(&db, &walkthrough(), &DiscoveryConfig::default());
        assert!(!rel.has_empty_column());
        // Column 0 ("California || Nevada") must include geo_lake.Province
        // and Province.Name.
        let geo_prov = db.catalog().column_ref("geo_lake", "Province").unwrap();
        let prov_name = db.catalog().column_ref("Province", "Name").unwrap();
        assert!(rel.per_column[0].contains(&geo_prov));
        assert!(rel.per_column[0].contains(&prov_name));
        // Column 1 ("Lake Tahoe") must include Lake.Name and geo_lake.Lake.
        let lake_name = db.catalog().column_ref("Lake", "Name").unwrap();
        let geo_lake = db.catalog().column_ref("geo_lake", "Lake").unwrap();
        assert!(rel.per_column[1].contains(&lake_name));
        assert!(rel.per_column[1].contains(&geo_lake));
        // Column 2 (decimal, min >= 0): Lake.Area qualifies; text columns
        // do not.
        let area = db.catalog().column_ref("Lake", "Area").unwrap();
        assert!(rel.per_column[2].contains(&area));
        assert!(!rel.per_column[2].contains(&lake_name));
    }

    #[test]
    fn keyword_constraints_restrict_to_index_hits() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(1, &[vec![some("Lake Tahoe")]], &[]).unwrap();
        let rel = find_related(&db, &tc, &DiscoveryConfig::default());
        // Only the two columns that physically contain the keyword.
        assert_eq!(rel.per_column[0].len(), 2);
    }

    #[test]
    fn range_constraints_scan_numeric_columns() {
        let db = mondial(42, 1);
        // Area 497 (Lake Tahoe) lies in [490, 500]; very few columns have a
        // value in that band, but Lake.Area must.
        let tc = TargetConstraints::parse(1, &[vec![some(">= 490 && <= 500")]], &[]).unwrap();
        let rel = find_related(&db, &tc, &DiscoveryConfig::default());
        let area = db.catalog().column_ref("Lake", "Area").unwrap();
        assert!(rel.per_column[0].contains(&area));
        // Text columns can never satisfy a numeric range.
        let lake_name = db.catalog().column_ref("Lake", "Name").unwrap();
        assert!(!rel.per_column[0].contains(&lake_name));
    }

    #[test]
    fn multiple_samples_intersect() {
        let db = mondial(42, 1);
        // One sample says California, another says a lake name: no single
        // column contains both.
        let tc = TargetConstraints::parse(
            1,
            &[vec![some("California")], vec![some("Lake Tahoe")]],
            &[],
        )
        .unwrap();
        let rel = find_related(&db, &tc, &DiscoveryConfig::default());
        assert!(rel.per_column[0].is_empty());
        // Whereas two provinces intersect fine.
        let tc2 =
            TargetConstraints::parse(1, &[vec![some("California")], vec![some("Oregon")]], &[])
                .unwrap();
        let rel2 = find_related(&db, &tc2, &DiscoveryConfig::default());
        assert!(!rel2.per_column[0].is_empty());
    }

    #[test]
    fn unconstrained_columns_are_capped() {
        let db = mondial(42, 1);
        let config = DiscoveryConfig {
            max_related_per_column: 5,
            ..DiscoveryConfig::default()
        };
        let tc = TargetConstraints::parse(2, &[vec![some("Lake Tahoe"), None]], &[]).unwrap();
        let rel = find_related(&db, &tc, &config);
        assert_eq!(rel.per_column[1].len(), 5);
        assert!(rel.capped);
    }

    #[test]
    fn impossible_keyword_yields_empty_column() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(1, &[vec![some("Atlantis Prime")]], &[]).unwrap();
        let rel = find_related(&db, &tc, &DiscoveryConfig::default());
        assert!(rel.has_empty_column());
        assert!(rel.anchor_tables().is_empty());
    }

    #[test]
    fn metadata_only_column_uses_stats() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(1, &[vec![None]], &[some("DataType == 'date'")]).unwrap();
        let rel = find_related(&db, &tc, &DiscoveryConfig::default());
        // Only Politics.Independence is a date column in Mondial.
        assert_eq!(rel.per_column[0].len(), 1);
        let indep = db.catalog().column_ref("Politics", "Independence").unwrap();
        assert_eq!(rel.per_column[0][0], indep);
    }

    #[test]
    fn anchor_tables_are_deduped_and_sorted() {
        let db = mondial(42, 1);
        let rel = find_related(&db, &walkthrough(), &DiscoveryConfig::default());
        let anchors = rel.anchor_tables();
        let mut sorted = anchors.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(anchors, sorted);
        assert!(anchors.len() >= 2);
    }
}
