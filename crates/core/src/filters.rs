//! Step 2a: filter decomposition and the filter dependency graph.
//!
//! Section 2.3: *"we divide such an expensive verification task into a set
//! of cheap validations of filters, i.e. sub(join)trees along with projected
//! attributes (shorter PJ queries) … If a filter fails, its parent filters
//! and entire candidate schema mapping query, from which the filter is
//! derived, automatically fail, and thereby pruned."*
//!
//! A **filter** is `(subtree, constrained projected columns, sample index)`.
//! For each candidate and each sample constraint, every connected subtree of
//! the candidate's join tree that hosts at least one constrained column
//! yields a filter; the subtree equal to the full tree is the candidate's
//! **top filter** for that sample (validating it accepts the sample).
//! Filters are deduplicated *across* candidates — shared filters are what
//! make scheduling pay off: one failed validation can kill many candidates.
//!
//! Dependency edges are per-candidate tree containment: within one
//! candidate and sample, `f ⊑ g` iff `f.tree ⊆ g.tree` (predicate inclusion
//! is then automatic). Failure propagates up (`f` fails ⇒ every `g ⊒ f`
//! fails ⇒ all their member candidates fail); success propagates down
//! (`g` succeeds ⇒ every `f ⊑ g` succeeds without validation).
//!
//! Single-table, single-predicate filters are **pre-validated**: Step 1's
//! related-column search already proved a matching value exists (this is
//! why the paper performs keyword checks in Step 1 and defers joins to
//! Step 2).
//!
//! The containment structure doubles as the scheduler's score-cache
//! reconciliation index ([`crate::scheduler`]): `per_candidate` maps a
//! changed candidate back to every filter whose score reads it, and the
//! direct `superfilters` edges bound the one extra hop a filter's score
//! sees through its `subfilters` — so invalidating a cached score is a
//! local walk, never a whole-set sweep.
//!
//! ## Shapes and interned keys
//!
//! A round has far fewer distinct join trees than candidates (on the
//! benchmark's paper mix, 7,753 trees for 62,411 candidates), and a
//! candidate's subtrees depend on its tree alone. Each distinct tree is
//! therefore interned once per round as a *shape*: its connected subtrees
//! (each interned to a round-local `u32` id), the position of the full
//! tree among them, and its strict-containment pairs, all computed once.
//! A shape is keyed on the tree's edges *and* tables: every single-table
//! tree has the same empty edge list, and keying on edges alone would hand
//! every later single-table candidate the first one's subtrees — no top
//! filter, zero filters — so it would pass acceptance unvalidated.
//! Candidates of one tree are contiguous in enumeration order, so the
//! builder compares with the previous candidate's tree before it looks a
//! shape up.
//!
//! Per candidate and sample, each subtree's predicate list is built in a
//! reused buffer and interned by slice (a hit allocates nothing). Filters
//! are keyed by `(subtree, predicate list, sample)` and query classes by
//! `(subtree, column list)`, all `Copy` ids; a class's `Vec` identity for
//! the [`SharedPlanCache`] is built only when the class is new.
//!
//! ## Why lattice edges come only with a new superfilter
//!
//! A filter `(T, P, s)`'s subfilters are the filters `(T', P restricted to
//! T', s)` over the proper connected subtrees `T'` of `T` whose restricted
//! predicate list is non-empty: the subtrees of a candidate's tree that
//! lie inside `T` are exactly `T`'s own connected subtrees, whatever the
//! candidate. So the subfilter set is a function of the filter, and the
//! candidate-sample that creates a filter already adds every edge below
//! it. The builder walks a shape's pairs only in candidate-samples that
//! created a filter, and pushes an edge only when its superfilter is new;
//! no edge is ever pushed twice, so no dedup scan or set is needed, and the
//! edges come out in the order a pairwise loop over every candidate-sample
//! would push them.

use crate::candidates::Candidate;
use crate::constraints::TargetConstraints;
use prism_db::graph::{EdgeId, JoinTree};
use prism_db::hash::MulRotMap;
use prism_db::schema::{ColumnRef, TableId};
use prism_db::{Database, PreparedQuery};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Index of a filter within a [`FilterSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FilterId(pub u32);

impl FilterId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One deduplicated filter.
#[derive(Debug, Clone)]
pub struct Filter {
    pub id: FilterId,
    /// The sub-join-tree this filter executes.
    pub tree: JoinTree,
    /// Constrained projected columns within the subtree:
    /// `(target column, source column)`, sorted by target column. May be
    /// empty only for a top filter of a fully-unconstrained sample row
    /// (plain non-emptiness check).
    pub preds: Vec<(usize, ColumnRef)>,
    /// Which sample-constraint row this filter tests.
    pub sample: usize,
    /// Candidate ids containing this filter.
    pub members: Vec<u32>,
    /// Candidates for which this is the top (full-tree) filter.
    pub top_for: Vec<u32>,
    /// Filters strictly contained in this one (success propagates to them).
    pub subfilters: Vec<FilterId>,
    /// Filters strictly containing this one (failure propagates to them).
    pub superfilters: Vec<FilterId>,
    /// Proven satisfiable by Step 1's related-column search.
    pub prevalidated: bool,
    /// Equivalence class of this filter's executable query `(tree,
    /// projected columns)` — filters differing only in their sample index
    /// share a class and therefore a prepared plan ([`FilterSet::plans`]).
    pub query_class: u32,
}

impl Filter {
    /// The number of joins — the baseline scheduler's "join path length".
    pub fn join_count(&self) -> usize {
        self.tree.edges.len()
    }
}

/// All filters of a discovery round plus per-candidate bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct FilterSet {
    pub filters: Vec<Filter>,
    /// `per_candidate[c]` = ids of all filters of candidate `c`.
    pub per_candidate: Vec<Vec<FilterId>>,
    /// `tops[c][s]` = the top filter of candidate `c` for sample `s`.
    pub tops: Vec<Vec<FilterId>>,
    /// True if decomposition stopped early on the deadline.
    pub truncated: bool,
    /// `decomposed[c]` = candidate `c` was reached before the deadline and
    /// its filters exist. A candidate left `false` by truncation has *no*
    /// filters at all, so acceptance checks must never treat its empty top
    /// list as "all tops succeeded". Empty means "no truncation happened"
    /// (hand-built sets): every candidate counts as decomposed.
    pub decomposed: Vec<bool>,
    /// Lazily-populated prepared query plans, one slot per query class
    /// ([`Filter::query_class`]). Shared by every scheduling run over this
    /// filter set — the sequential coordinator, all pool workers, repeated
    /// engine comparisons — so each query is compiled at most once.
    pub plans: PlanCache,
}

impl FilterSet {
    pub fn filter(&self, id: FilterId) -> &Filter {
        &self.filters[id.index()]
    }

    pub fn len(&self) -> usize {
        self.filters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }
}

/// Shared cache of [`PreparedQuery`]s, one slot per filter query class.
/// `OnceLock` slots make it safely shareable across validation worker
/// threads with exactly-once compilation and lock-free reads after that.
///
/// Slots are `Arc`-shared: a filter set built through a
/// [`SharedPlanCache`] (the service-global cache) holds the *same* slots
/// as every other filter set over the same query classes, so a plan
/// compiled by one session is immediately warm for all others. A filter
/// set built without a shared cache owns private slots, exactly as before.
///
/// Plans are *derived* data (recomputable from the filters), so cloning a
/// `FilterSet` yields an equivalent set with a cold cache.
#[derive(Default)]
pub struct PlanCache {
    slots: Vec<Arc<OnceLock<PreparedQuery>>>,
}

impl PlanCache {
    /// An empty cache with one slot per query class.
    pub(crate) fn with_classes(n: usize) -> PlanCache {
        PlanCache {
            slots: (0..n).map(|_| Arc::new(OnceLock::new())).collect(),
        }
    }

    /// A cache whose slots are resolved through the service-global
    /// `shared` cache: classes another session already registered reuse
    /// its (possibly already compiled) slot.
    pub(crate) fn from_shared(shared: &SharedPlanCache, keys: Vec<QueryKey>) -> PlanCache {
        PlanCache {
            slots: keys.into_iter().map(|k| shared.slot(k)).collect(),
        }
    }

    /// The prepared plan of `class`, compiling it via `build` exactly once
    /// (concurrent callers block on the first). Returns the plan and
    /// whether *this* call compiled it — callers count the latter into
    /// [`prism_db::ExecStats::plans_built`].
    pub fn get_or_prepare(
        &self,
        class: u32,
        build: impl FnOnce() -> PreparedQuery,
    ) -> (&PreparedQuery, bool) {
        let mut built = false;
        let plan = self.slots[class as usize].get_or_init(|| {
            built = true;
            build()
        });
        (plan, built)
    }

    /// Number of query classes (slots).
    pub fn classes(&self) -> usize {
        self.slots.len()
    }

    /// Plans actually compiled so far.
    pub fn prepared_count(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }
}

impl Clone for PlanCache {
    fn clone(&self) -> PlanCache {
        PlanCache::with_classes(self.slots.len())
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("classes", &self.classes())
            .field("prepared", &self.prepared_count())
            .finish()
    }
}

/// Canonical identity of a filter's *executable query* — the key of the
/// service-global plan cache. Filters differing only by sample share a key;
/// so do identical filters built by different sessions over the same
/// database.
pub(crate) type QueryKey = (Vec<EdgeId>, Vec<TableId>, Vec<ColumnRef>);

/// Service-global prepared-plan cache, shared across concurrent discovery
/// sessions.
///
/// The per-[`FilterSet`] [`PlanCache`] indexes plans by a dense
/// per-round class id; this cache keys the same slots by the query's
/// *identity* (subtree edges + tables + projected columns), so query
/// classes recur across sessions exploring the same schema — which is the
/// common interactive workload. [`build_filters_with_cache`] resolves each
/// round's classes through it: a key seen before is a **hit** (its slot,
/// compiled or not, is reused), a new key is a **miss** (a fresh slot is
/// registered). A warm session therefore compiles zero plans — observable
/// both here ([`SharedPlanCache::stats`]) and in the round's
/// `ExecStats::plans_built`.
///
/// Concurrency: the key map sits behind a `Mutex` touched once per class
/// per round (filter-set build time, never validation time); compilation
/// itself stays on the slots' lock-free `OnceLock` fast path.
#[derive(Default)]
pub struct SharedPlanCache {
    slots: Mutex<HashMap<QueryKey, Arc<OnceLock<PreparedQuery>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A point-in-time snapshot of a [`SharedPlanCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Class resolutions served by an already-registered slot.
    pub hits: u64,
    /// Class resolutions that registered a fresh slot.
    pub misses: u64,
    /// Distinct query classes registered.
    pub entries: usize,
    /// Slots actually holding a compiled plan.
    pub compiled: usize,
}

impl SharedPlanCache {
    pub fn new() -> SharedPlanCache {
        SharedPlanCache::default()
    }

    /// The shared slot for `key`, registering a fresh one on first sight.
    pub(crate) fn slot(&self, key: QueryKey) -> Arc<OnceLock<PreparedQuery>> {
        let mut slots = self.slots.lock().expect("shared plan cache lock");
        match slots.entry(key) {
            Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                e.get().clone()
            }
            Entry::Vacant(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                e.insert(Arc::new(OnceLock::new())).clone()
            }
        }
    }

    /// Snapshot the hit/miss/compile counters.
    pub fn stats(&self) -> PlanCacheStats {
        let slots = self.slots.lock().expect("shared plan cache lock");
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: slots.len(),
            compiled: slots.values().filter(|s| s.get().is_some()).count(),
        }
    }
}

impl std::fmt::Debug for SharedPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SharedPlanCache")
            .field("entries", &stats.entries)
            .field("compiled", &stats.compiled)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// Decompose every candidate into filters, with a private plan cache.
pub fn build_filters(
    db: &Database,
    candidates: &[Candidate],
    constraints: &TargetConstraints,
    deadline: Option<Instant>,
) -> FilterSet {
    build_filters_with_cache(db, candidates, constraints, deadline, None)
}

/// Marks a shape position whose subtree yields no filter in the current
/// candidate and sample.
const NO_FILTER: u32 = u32::MAX;

/// One distinct candidate tree of the round (see the module docs).
struct Shape {
    /// Interned ids of the tree's connected subtrees, in
    /// [`prism_db::graph::SchemaGraph::subtrees`] order.
    subtrees: Vec<u32>,
    /// Position of the full tree among `subtrees`.
    top: Option<usize>,
    /// Strict containments `(sub position, sup position)`, in the order of
    /// a pairwise loop `x < y` over positions.
    pairs: Vec<(u32, u32)>,
}

/// The round's distinct candidate trees and their interned subtrees.
#[derive(Default)]
struct Shapes {
    shape_of: MulRotMap<JoinTree, u32>,
    shapes: Vec<Shape>,
    subtree_of: MulRotMap<JoinTree, u32>,
    subtrees: Vec<JoinTree>,
}

impl Shapes {
    fn intern(&mut self, db: &Database, tree: &JoinTree) -> u32 {
        if let Some(&id) = self.shape_of.get(tree) {
            return id;
        }
        let subs = db.graph().subtrees(tree);
        let top = subs.iter().position(|t| t == tree);
        let mut pairs = Vec::new();
        for (x, a) in subs.iter().enumerate() {
            for (y, b) in subs.iter().enumerate().skip(x + 1) {
                if a.table_count() < b.table_count() && b.contains_tree(a) {
                    pairs.push((x as u32, y as u32));
                } else if b.table_count() < a.table_count() && a.contains_tree(b) {
                    pairs.push((y as u32, x as u32));
                }
            }
        }
        let subtrees = subs.into_iter().map(|t| self.subtree(t)).collect();
        let id = self.shapes.len() as u32;
        self.shapes.push(Shape {
            subtrees,
            top,
            pairs,
        });
        self.shape_of.insert(tree.clone(), id);
        id
    }

    fn subtree(&mut self, tree: JoinTree) -> u32 {
        if let Some(&id) = self.subtree_of.get(&tree) {
            return id;
        }
        let id = self.subtrees.len() as u32;
        self.subtree_of.insert(tree.clone(), id);
        self.subtrees.push(tree);
        id
    }
}

/// Round-local keys: every key the builder hashes per subtree visit is a
/// `Copy` tuple of ids, or a slice looked up without allocating.
#[derive(Default)]
struct Keys {
    /// Predicate lists, and the column list each one projects.
    preds_of: MulRotMap<Vec<(usize, ColumnRef)>, u32>,
    pred_cols: Vec<u32>,
    cols_of: MulRotMap<Vec<ColumnRef>, u32>,
    /// `(subtree, predicate list, sample)` → filter.
    filter_of: MulRotMap<(u32, u32, usize), FilterId>,
    /// `(subtree, column list)` → query class.
    class_of: MulRotMap<(u32, u32), u32>,
}

impl Keys {
    fn preds(&mut self, preds: &[(usize, ColumnRef)]) -> u32 {
        if let Some(&id) = self.preds_of.get(preds) {
            return id;
        }
        let cols: Vec<ColumnRef> = preds.iter().map(|&(_, c)| c).collect();
        let next = self.cols_of.len() as u32;
        self.pred_cols
            .push(*self.cols_of.entry(cols).or_insert(next));
        let id = self.preds_of.len() as u32;
        self.preds_of.insert(preds.to_vec(), id);
        id
    }
}

/// Decompose every candidate into filters. With `shared` set, the filter
/// set's plan slots are resolved through the service-global
/// [`SharedPlanCache`], so query classes another session already compiled
/// arrive warm.
pub fn build_filters_with_cache(
    db: &Database,
    candidates: &[Candidate],
    constraints: &TargetConstraints,
    deadline: Option<Instant>,
    shared: Option<&SharedPlanCache>,
) -> FilterSet {
    let mut set = FilterSet {
        per_candidate: vec![Vec::new(); candidates.len()],
        tops: vec![Vec::new(); candidates.len()],
        decomposed: vec![false; candidates.len()],
        ..FilterSet::default()
    };
    let mut shapes = Shapes::default();
    let mut keys = Keys::default();
    // `class_keys[class]` keeps each query class's identity for resolution
    // through the service-global cache.
    let mut class_keys: Vec<QueryKey> = Vec::new();
    let sample_cols: Vec<Vec<usize>> = constraints
        .samples
        .iter()
        .map(|s| s.constrained_columns().collect())
        .collect();
    let mut prev: Option<(&JoinTree, u32)> = None;
    let mut constrained: Vec<(usize, ColumnRef)> = Vec::new();
    let mut preds: Vec<(usize, ColumnRef)> = Vec::new();
    let mut slot: Vec<u32> = Vec::new();
    let mut cand_ids: Vec<FilterId> = Vec::new();

    for cand in candidates {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                set.truncated = true;
                break;
            }
        }
        set.decomposed[cand.id] = true;
        let cid = cand.id as u32;
        // Candidates of one tree are contiguous in enumeration order.
        let shape_id = match prev {
            Some((tree, id)) if *tree == cand.tree => id,
            _ => shapes.intern(db, &cand.tree),
        };
        prev = Some((&cand.tree, shape_id));
        let shape = &shapes.shapes[shape_id as usize];
        slot.clear();
        slot.resize(shape.subtrees.len(), NO_FILTER);
        cand_ids.clear();
        set.tops[cand.id].reserve_exact(sample_cols.len());
        for (s, cols) in sample_cols.iter().enumerate() {
            constrained.clear();
            constrained.extend(cols.iter().map(|&i| (i, cand.assignment[i])));
            let first_new = set.filters.len() as u32;
            for (pos, &sub) in shape.subtrees.iter().enumerate() {
                let tree = &shapes.subtrees[sub as usize];
                preds.clear();
                preds.extend(
                    constrained
                        .iter()
                        .filter(|(_, col)| tree.contains_table(col.table)),
                );
                let is_top = shape.top == Some(pos);
                if preds.is_empty() && !is_top {
                    slot[pos] = NO_FILTER;
                    continue; // unconstrained interior subtrees prune nothing
                }
                let pred_list = keys.preds(&preds);
                let next = FilterId(set.filters.len() as u32);
                let id = *keys.filter_of.entry((sub, pred_list, s)).or_insert(next);
                if id == next {
                    let cols = keys.pred_cols[pred_list as usize];
                    let classes = class_keys.len() as u32;
                    let query_class = *keys.class_of.entry((sub, cols)).or_insert(classes);
                    if query_class == classes {
                        let cols = preds.iter().map(|&(_, c)| c).collect();
                        class_keys.push((tree.edges.clone(), tree.tables.clone(), cols));
                    }
                    set.filters.push(Filter {
                        id,
                        tree: tree.clone(),
                        preds: preds.clone(),
                        sample: s,
                        members: Vec::new(),
                        top_for: Vec::new(),
                        subfilters: Vec::new(),
                        superfilters: Vec::new(),
                        prevalidated: tree.edges.is_empty() && preds.len() == 1,
                        query_class,
                    });
                }
                let f = &mut set.filters[id.index()];
                if f.members.last() != Some(&cid) {
                    f.members.push(cid);
                }
                if is_top {
                    f.top_for.push(cid);
                    set.tops[cand.id].push(id);
                }
                cand_ids.push(id);
                slot[pos] = id.0;
            }
            // Lattice edges arise only with a new superfilter (module docs).
            if set.filters.len() as u32 == first_new {
                continue;
            }
            for &(sub_pos, sup_pos) in &shape.pairs {
                let (sub, sup) = (slot[sub_pos as usize], slot[sup_pos as usize]);
                if sub != NO_FILTER && sup != NO_FILTER && sup >= first_new {
                    set.filters[sup as usize].subfilters.push(FilterId(sub));
                    set.filters[sub as usize].superfilters.push(FilterId(sup));
                }
            }
        }
        // A candidate's filter list may repeat ids across samples; dedupe.
        cand_ids.sort_unstable();
        cand_ids.dedup();
        set.per_candidate[cand.id] = cand_ids.clone();
    }
    set.plans = match shared {
        Some(cache) => PlanCache::from_shared(cache, class_keys),
        None => PlanCache::with_classes(class_keys.len()),
    };
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::enumerate_candidates;
    use crate::config::DiscoveryConfig;
    use crate::related::find_related;
    use prism_datasets::mondial;

    fn some(s: &str) -> Option<String> {
        Some(s.to_string())
    }

    fn walkthrough_filters(db: &Database) -> (Vec<Candidate>, TargetConstraints, FilterSet) {
        let tc = TargetConstraints::parse(
            3,
            &[vec![some("California || Nevada"), some("Lake Tahoe"), None]],
            &[None, None, some("DataType=='decimal' AND MinValue>='0'")],
        )
        .unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(db, &tc, &config);
        let cands = enumerate_candidates(db, &rel, &config, None).candidates;
        let filters = build_filters(db, &cands, &tc, None);
        (cands, tc, filters)
    }

    #[test]
    fn every_candidate_gets_one_top_filter_per_sample() {
        let db = mondial(42, 1);
        let (cands, tc, fs) = walkthrough_filters(&db);
        assert_eq!(fs.tops.len(), cands.len());
        for (c, tops) in fs.tops.iter().enumerate() {
            assert_eq!(
                tops.len(),
                tc.samples.len(),
                "candidate {c} missing top filters"
            );
            for &t in tops {
                let f = fs.filter(t);
                assert!(f.top_for.contains(&(c as u32)));
                assert_eq!(f.tree.edges, cands[c].tree.edges);
            }
        }
    }

    #[test]
    fn filters_are_shared_across_candidates() {
        let db = mondial(42, 1);
        let (cands, _, fs) = walkthrough_filters(&db);
        assert!(cands.len() > 1);
        let shared = fs.filters.iter().filter(|f| f.members.len() > 1).count();
        assert!(
            shared > 0,
            "some filters must be shared across the {} candidates",
            cands.len()
        );
        // Sharing means total filters < sum of per-candidate filters.
        let total_refs: usize = fs.per_candidate.iter().map(Vec::len).sum();
        assert!(fs.len() < total_refs);
    }

    #[test]
    fn single_table_single_pred_filters_are_prevalidated() {
        let db = mondial(42, 1);
        let (_, _, fs) = walkthrough_filters(&db);
        let mut saw_prevalidated = false;
        for f in &fs.filters {
            if f.tree.edges.is_empty() && f.preds.len() == 1 {
                assert!(f.prevalidated, "{f:?}");
                saw_prevalidated = true;
            } else {
                assert!(!f.prevalidated, "{f:?}");
            }
        }
        assert!(saw_prevalidated);
    }

    #[test]
    fn containment_edges_are_consistent() {
        let db = mondial(42, 1);
        let (_, _, fs) = walkthrough_filters(&db);
        let mut edge_count = 0;
        for f in &fs.filters {
            for &sub in &f.subfilters {
                edge_count += 1;
                let g = fs.filter(sub);
                assert_eq!(g.sample, f.sample);
                assert!(f.tree.contains_tree(&g.tree));
                assert!(g.tree.table_count() < f.tree.table_count());
                assert!(g.superfilters.contains(&f.id));
                // Predicate inclusion must follow from tree inclusion.
                for p in &g.preds {
                    assert!(f.preds.contains(p), "{p:?} of sub not in super");
                }
            }
        }
        assert!(edge_count > 0, "the lattice must be non-trivial");
    }

    #[test]
    fn interior_subtrees_without_preds_are_skipped() {
        let db = mondial(42, 1);
        let (_, _, fs) = walkthrough_filters(&db);
        for f in &fs.filters {
            if f.preds.is_empty() {
                assert!(
                    !f.top_for.is_empty(),
                    "pred-less filters may exist only as non-emptiness tops"
                );
            }
        }
    }

    #[test]
    fn multiple_samples_produce_per_sample_filters() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(
            2,
            &[
                vec![some("Lake Tahoe"), some("California")],
                vec![some("Crater Lake"), some("Oregon")],
            ],
            &[],
        )
        .unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let cands = enumerate_candidates(&db, &rel, &config, None).candidates;
        assert!(!cands.is_empty());
        let fs = build_filters(&db, &cands, &tc, None);
        let s0 = fs.filters.iter().filter(|f| f.sample == 0).count();
        let s1 = fs.filters.iter().filter(|f| f.sample == 1).count();
        assert!(s0 > 0 && s1 > 0);
        for tops in &fs.tops {
            assert_eq!(tops.len(), 2);
        }
    }

    #[test]
    fn query_classes_dedupe_identical_queries_across_samples() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(
            2,
            &[
                vec![some("Lake Tahoe"), some("California")],
                vec![some("Crater Lake"), some("Oregon")],
            ],
            &[],
        )
        .unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let cands = enumerate_candidates(&db, &rel, &config, None).candidates;
        let fs = build_filters(&db, &cands, &tc, None);
        assert_eq!(fs.plans.classes() > 0, !fs.is_empty());
        assert_eq!(fs.plans.prepared_count(), 0, "plans compile lazily");
        for f in &fs.filters {
            assert!((f.query_class as usize) < fs.plans.classes());
        }
        // Same (tree, projected columns) ⇒ same class, regardless of
        // sample; different projections ⇒ different classes.
        for a in &fs.filters {
            for b in &fs.filters {
                let cols = |f: &Filter| f.preds.iter().map(|&(_, c)| c).collect::<Vec<_>>();
                let same_query = a.tree.edges == b.tree.edges
                    && a.tree.tables == b.tree.tables
                    && cols(a) == cols(b);
                assert_eq!(same_query, a.query_class == b.query_class, "{a:?} vs {b:?}");
            }
        }
        // Both samples produced filters over the same trees/columns, so
        // classes must be strictly fewer than filters.
        assert!(fs.plans.classes() < fs.len(), "cross-sample sharing");
    }

    #[test]
    fn shared_cache_hands_out_the_same_slots_across_builds() {
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
        let shared = SharedPlanCache::new();
        // Cold build: every class is a miss.
        let fs1 = build_filters_with_cache(&db, &cands, &tc, None, Some(&shared));
        let s1 = shared.stats();
        assert_eq!(s1.misses as usize, fs1.plans.classes());
        assert_eq!(s1.hits, 0);
        assert_eq!(s1.entries, fs1.plans.classes());
        // Warm build of the same round: every class is a hit, nothing new.
        let fs2 = build_filters_with_cache(&db, &cands, &tc, None, Some(&shared));
        let s2 = shared.stats();
        assert_eq!(s2.hits as usize, fs2.plans.classes());
        assert_eq!(s2.misses, s1.misses);
        assert_eq!(s2.entries, s1.entries);
        // The slots really are shared: a plan compiled through fs1 is
        // already present (and not recompiled) when fs2 asks for it.
        let f = &fs1.filters[0];
        let q = crate::validate::filter_query(&db, f);
        let preds: Vec<prism_db::ProjPred<'_>> = (0..q.projection.len()).map(|_| None).collect();
        let (_, built) = fs1
            .plans
            .get_or_prepare(f.query_class, || q.prepare(&db, &preds).unwrap());
        assert!(built, "first compile happens through fs1");
        let g = &fs2.filters[0];
        assert_eq!(
            g.query_class, f.query_class,
            "same build order, same classes"
        );
        let (_, built_again) = fs2
            .plans
            .get_or_prepare(g.query_class, || unreachable!("slot must be warm"));
        assert!(!built_again);
        assert_eq!(shared.stats().compiled, 1);
        assert!(fs2.plans.prepared_count() >= 1);
    }

    #[test]
    fn deadline_truncates_decomposition() {
        let db = mondial(42, 1);
        let tc = TargetConstraints::parse(1, &[vec![some("Lake Tahoe")]], &[]).unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let cands = enumerate_candidates(&db, &rel, &config, None).candidates;
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let fs = build_filters(&db, &cands, &tc, Some(past));
        assert!(fs.truncated);
        assert!(fs.is_empty());
        // Truncated-away candidates must be marked undecomposed so the
        // scheduler never mistakes their empty top lists for acceptance.
        assert!(fs.decomposed.iter().all(|&d| !d));
    }

    #[test]
    fn every_candidate_gets_its_own_top_filters() {
        // Regression: the subtree cache used to key on the edge list alone,
        // so all single-table candidates (empty edge list) shared the first
        // one's subtrees — later ones ended up with zero filters and were
        // accepted without any validation.
        let db = mondial(42, 1);
        // "Nevada" lives in several tables (Province.Name, geo_lake.Province,
        // City.Province, …), so enumeration yields one single-table candidate
        // per hosting table — all with the same empty edge list.
        let tc = TargetConstraints::parse(1, &[vec![some("Nevada")]], &[]).unwrap();
        let config = DiscoveryConfig::default();
        let rel = find_related(&db, &tc, &config);
        let cands = enumerate_candidates(&db, &rel, &config, None).candidates;
        assert!(
            cands
                .iter()
                .filter(|c| c.tree.edges.is_empty())
                .map(|c| &c.tree.tables)
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1,
            "fixture must produce single-table candidates on distinct tables"
        );
        let fs = build_filters(&db, &cands, &tc, None);
        for cand in &cands {
            assert!(fs.decomposed[cand.id]);
            assert!(
                !fs.tops[cand.id].is_empty(),
                "candidate {} ({:?}) has no top filters",
                cand.id,
                cand.tree
            );
            assert!(
                fs.tops[cand.id]
                    .iter()
                    .all(|&t| fs.filter(t).tree.tables == cand.tree.tables
                        && fs.filter(t).tree.edges == cand.tree.edges),
                "top filters must cover the candidate's own full tree"
            );
        }
    }
}
