//! Step 2b: executing one filter against the database.
//!
//! Validating a filter asks: *does the result of the filter's sub-join-tree
//! contain at least one tuple satisfying the sample constraint restricted to
//! the filter's columns?* This maps directly onto
//! [`prism_db::PreparedQuery::exists_matching`], which early-exits on the
//! first witness.
//!
//! Validation is where the prepare/execute split pays: the interactive loop
//! runs thousands of tiny existence probes per refinement round, so
//! [`validate_filter_cached`] compiles each filter's query at most once per
//! [`FilterSet`] (shared [`crate::filters::PlanCache`], keyed by
//! [`Filter::query_class`]) and executes it against a caller-owned
//! [`ExecScratch`] that clears rather than reallocates. Numeric hulls were
//! already hoisted to constraint parse time
//! ([`crate::constraints::SampleConstraint::hull`]), and the per-slot
//! predicate closures are plain stack values — no boxing. The per-call
//! [`validate_filter`] remains for one-shot callers and as the reference
//! semantics the cached path must match.
//!
//! The schedulers run every slot, inline or on a pool worker, through one
//! fault-contained path under the round's [`SchedCtx`]: the round deadline
//! is the only thing that stops a slot early (unknown verdict), and a
//! contained panic or an executor error the only way one fails.

use crate::candidates::build_query;
use crate::constraints::TargetConstraints;
use crate::faults::SlotVerdict;
use crate::filters::{Filter, FilterId, FilterSet, PlanCache};
use crate::scheduler::SchedCtx;
use prism_db::{
    panic_message, Database, DbError, ExecScratch, ExecStats, PjQuery, ProjPred, ScanPred, ValueRef,
};
use prism_lang::matches_value_ref_with;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Validation without a deadline attached to the scratch cannot be
/// interrupted, so the `Result` of the inner path is vacuous for the plain
/// `bool` wrappers.
const UNINTERRUPTED: &str = "validation without a deadline cannot be cancelled";

/// Validate `filter` against `db` under `constraints`. Returns whether the
/// filter is satisfied; work is accumulated into `stats`.
///
/// One-shot path: compiles the filter's query and uses a fresh scratch
/// every call. Scheduling engines validate through the fault-contained
/// slot path instead, and the oracle through [`validate_filter_cached`].
pub fn validate_filter(
    db: &Database,
    filter: &Filter,
    constraints: &TargetConstraints,
    stats: &mut ExecStats,
) -> bool {
    let mut scratch = ExecScratch::new();
    run_validation(db, filter, constraints, None, &mut scratch, stats).expect(UNINTERRUPTED)
}

/// Validate one filter of `fs`, reusing its shared prepared-plan cache and
/// the caller's `scratch`. Identical verdicts to [`validate_filter`]; the
/// only difference is that compilation happens at most once per query class
/// ([`ExecStats::plans_built`]) and the scratch amortizes its allocations
/// across calls ([`ExecStats::scratch_reuses`]).
///
/// The caller's scratch must not carry a deadline — this wrapper panics on
/// interruption. The schedulers, which run under the round deadline,
/// validate through the fault-contained slot path instead.
pub fn validate_filter_cached(
    db: &Database,
    fs: &FilterSet,
    f: FilterId,
    constraints: &TargetConstraints,
    scratch: &mut ExecScratch,
    stats: &mut ExecStats,
) -> bool {
    run_validation(
        db,
        fs.filter(f),
        constraints,
        Some(&fs.plans),
        scratch,
        stats,
    )
    .expect(UNINTERRUPTED)
}

/// Fault-contained validation of one slot under the round's deadline and
/// fault spec: the engine-facing entry point of the robustness layer, run
/// once per slot, inline or on a pool worker. Injected faults are counted
/// into `injected`.
///
/// Differences from [`validate_filter_cached`]:
///
/// * the round deadline is attached to `scratch`, so the executor's step
///   tick stops a long scan once it passes; the slot then reports
///   [`SlotVerdict::Skipped`] — unknown, not failed;
/// * a panic anywhere inside the validation (a user UDF, an injected chaos
///   fault, a genuine engine bug) is caught; the slot reports
///   [`SlotVerdict::Faulted`] with the panic message and the scratch is
///   **quarantined** — dropped and rebuilt, because an unwound executor may
///   hold arbitrary partial state. Any other executor error faults the
///   slot with the error's text.
pub(crate) fn validate_filter_guarded(
    ctx: &SchedCtx<'_>,
    f: FilterId,
    scratch: &mut ExecScratch,
    stats: &mut ExecStats,
    injected: &mut u64,
) -> SlotVerdict {
    scratch.set_deadline(ctx.deadline);
    let token = f.index() as u64;
    let fired = ctx.faults.as_ref().and_then(|s| s.check(token));
    *injected += u64::from(fired.is_some());
    let run = catch_unwind(AssertUnwindSafe(|| {
        if let Some(kind) = fired {
            kind.inject(token);
        }
        run_validation(
            ctx.db,
            ctx.fs.filter(f),
            ctx.constraints,
            Some(&ctx.fs.plans),
            scratch,
            stats,
        )
    }));
    match run {
        Ok(Ok(b)) => SlotVerdict::Done(b),
        Ok(Err(DbError::Cancelled)) => SlotVerdict::Skipped,
        Ok(Err(e)) => SlotVerdict::Faulted(e.to_string()),
        Err(payload) => {
            *scratch = ExecScratch::new();
            SlotVerdict::Faulted(panic_message(&*payload))
        }
    }
}

fn run_validation(
    db: &Database,
    filter: &Filter,
    constraints: &TargetConstraints,
    plans: Option<&PlanCache>,
    scratch: &mut ExecScratch,
    stats: &mut ExecStats,
) -> Result<bool, DbError> {
    let sample = &constraints.samples[filter.sample];
    let udfs = &constraints.udfs;
    // One closure per projection slot (= per filter predicate). Cells reach
    // the closures as zero-copy views out of typed column storage. All
    // closures share one anonymous type, so the vector needs no boxing.
    let cell_preds: Vec<_> = filter
        .preds
        .iter()
        .map(|(target, _)| {
            let c = sample.cells()[*target]
                .as_ref()
                .expect("filter predicates reference constrained cells");
            move |v: ValueRef<'_>| matches_value_ref_with(c, v, udfs)
        })
        .collect();
    // Each predicate carries its constraint's precomputed numeric hull so
    // the executor can prune scan blocks of numeric columns against zone
    // maps. An unbounded hull is omitted — it could never prune.
    let pred_refs: Vec<ProjPred<'_>> = cell_preds
        .iter()
        .zip(&filter.preds)
        .map(|(p, &(target, _))| {
            let (lo, hi) = sample.hull(target);
            let mut sp = ScanPred::new(p);
            if lo > f64::NEG_INFINITY || hi < f64::INFINITY {
                sp = sp.with_range(lo, hi);
            }
            Some(sp)
        })
        .collect();
    // Preparation failures are construction bugs, not runtime faults — the
    // expect stays. Execution errors propagate: `Cancelled` is the
    // executor's deadline tick firing mid-scan, and the guarded path must
    // see it rather than have it swallowed here.
    const VALID: &str = "filter queries are structurally valid by construction";
    match plans {
        Some(cache) => {
            let (prepared, built) = cache.get_or_prepare(filter.query_class, || {
                filter_query(db, filter)
                    .prepare(db, &pred_refs)
                    .expect(VALID)
            });
            if built {
                stats.plans_built += 1;
                stats.nodes_reordered += prepared.nodes_reordered();
            }
            prepared.exists_matching(db, &pred_refs, scratch, stats)
        }
        None => {
            stats.plans_built += 1;
            let prepared = filter_query(db, filter)
                .prepare(db, &pred_refs)
                .expect(VALID);
            stats.nodes_reordered += prepared.nodes_reordered();
            prepared.exists_matching(db, &pred_refs, scratch, stats)
        }
    }
}

/// The executable PJ query of a filter: its subtree with the constrained
/// columns projected.
pub fn filter_query(db: &Database, filter: &Filter) -> PjQuery {
    let cols: Vec<prism_db::ColumnRef> = filter.preds.iter().map(|(_, c)| *c).collect();
    if cols.is_empty() {
        // Non-emptiness top filter: project the first column of the first
        // table (any column works for an existence check).
        let t = filter.tree.tables[0];
        return build_query(db, &filter.tree, &[prism_db::ColumnRef::new(t, 0)]);
    }
    build_query(db, &filter.tree, &cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::enumerate_candidates;
    use crate::config::DiscoveryConfig;
    use crate::filters::build_filters;
    use crate::related::find_related;
    use prism_datasets::mondial;
    use prism_db::render_sql;

    fn some(s: &str) -> Option<String> {
        Some(s.to_string())
    }

    #[test]
    fn walkthrough_top_filter_of_the_true_candidate_succeeds() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(
            3,
            &[vec![some("California || Nevada"), some("Lake Tahoe"), None]],
            &[None, None, some("DataType=='decimal' AND MinValue>='0'")],
        )
        .unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let cands = enumerate_candidates(&db, &rel, &config, None).candidates;
        let fs = build_filters(&db, &cands, &tc, None);
        // Find the ground-truth candidate (Lake ⋈ geo_lake with the right
        // projection) and check its top filter validates.
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        let truth = cands
            .iter()
            .find(|c| render_sql(&c.query, &db) == want)
            .expect("ground truth enumerated");
        let mut stats = ExecStats::default();
        let top = fs.filter(fs.tops[truth.id][0]);
        assert!(validate_filter(&db, top, &tc, &mut stats));
        assert!(stats.rows_examined > 0);
    }

    #[test]
    fn contradictory_filter_fails() {
        let db = mondial(42, 1);
        // Crater Lake is in Oregon, not California — the joined pair fails.
        let tc = TargetConstraints::parse(2, &[vec![some("California"), some("Crater Lake")]], &[])
            .unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let cands = enumerate_candidates(&db, &rel, &config, None).candidates;
        let fs = build_filters(&db, &cands, &tc, None);
        // Among candidates joining geo_lake.Province with Lake.Name, every
        // two-table top filter must fail.
        let mut validated_any = false;
        for c in &cands {
            if c.tree.table_count() != 2 {
                continue;
            }
            let geo = db.catalog().table_id("geo_lake").unwrap();
            let lake = db.catalog().table_id("Lake").unwrap();
            if !(c.tree.contains_table(geo) && c.tree.contains_table(lake)) {
                continue;
            }
            let mut stats = ExecStats::default();
            let top = fs.filter(fs.tops[c.id][0]);
            assert!(
                !validate_filter(&db, top, &tc, &mut stats),
                "candidate {} should fail",
                render_sql(&c.query, &db)
            );
            validated_any = true;
        }
        assert!(validated_any, "expected geo_lake ⋈ Lake candidates");
    }

    #[test]
    fn filter_query_projects_constrained_columns() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(2, &[vec![some("Lake Tahoe"), some("California")]], &[])
            .unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let cands = enumerate_candidates(&db, &rel, &config, None).candidates;
        let fs = build_filters(&db, &cands, &tc, None);
        for f in &fs.filters {
            let q = filter_query(&db, f);
            q.validate(&db).expect("valid filter query");
            assert_eq!(q.projection.len(), f.preds.len().max(1));
        }
    }
}
