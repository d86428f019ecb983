//! Filter decomposition must match a straightforward reference field for
//! field.
//!
//! `reference_build` below is the direct decomposition the library's
//! interned builder replaced: per candidate it looks up (cached) subtrees,
//! keys filters and query classes by freshly built `Vec`s, and checks every
//! pair of a candidate-sample's filters for containment, deduplicating
//! lattice edges with a linear scan. `reference_subtrees` is the subtree
//! enumeration it ran on. The library builder interns tree shapes and keys
//! instead; both must produce the same `FilterSet`, the same query classes,
//! and the same shared-cache traffic.

use prism_core::candidates::{enumerate_candidates, Candidate};
use prism_core::filters::{build_filters, build_filters_with_cache, SharedPlanCache};
use prism_core::related::find_related;
use prism_core::{DiscoveryConfig, Filter, FilterId, FilterSet, TargetConstraints};
use prism_datasets::{imdb, mondial, nba, skewed, Resolution, TaskGenConfig, TaskGenerator};
use prism_db::graph::{EdgeId, JoinTree};
use prism_db::schema::{ColumnDef, ColumnRef, TableId};
use prism_db::types::{DataType, Value};
use prism_db::{Database, DatabaseBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// A query class's identity: subtree edges, tables and projected columns.
type QueryKey = (Vec<EdgeId>, Vec<TableId>, Vec<ColumnRef>);

#[derive(PartialEq, Eq, Hash)]
struct FilterKey {
    edges: Vec<EdgeId>,
    tables: Vec<TableId>,
    preds: Vec<(usize, ColumnRef)>,
    sample: usize,
}

/// Connected subtrees of `tree`, breadth-first by size.
fn reference_subtrees(db: &Database, tree: &JoinTree) -> Vec<JoinTree> {
    let graph = db.graph();
    let mut seen: HashSet<Vec<EdgeId>> = HashSet::new();
    let mut out: Vec<JoinTree> = Vec::new();
    for &t in &tree.tables {
        out.push(JoinTree::single(t));
    }
    let mut frontier: Vec<JoinTree> = out.clone();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for sub in &frontier {
            for &t in &sub.tables {
                for &eid in graph.incident_edges(t) {
                    if tree.edges.binary_search(&eid).is_err() {
                        continue;
                    }
                    let Some(other) = graph.edge(eid).other(t) else {
                        continue;
                    };
                    if sub.contains_table(other) {
                        continue;
                    }
                    let mut edges = sub.edges.clone();
                    let pos = edges.binary_search(&eid).unwrap_err();
                    edges.insert(pos, eid);
                    if !seen.insert(edges.clone()) {
                        continue;
                    }
                    let mut tables = sub.tables.clone();
                    let tpos = tables.binary_search(&other).unwrap_err();
                    tables.insert(tpos, other);
                    next.push(JoinTree { edges, tables });
                }
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// The reference decomposition. Returns the filter set (with an empty plan
/// cache) and the query-class keys in class order.
fn reference_build(
    db: &Database,
    candidates: &[Candidate],
    constraints: &TargetConstraints,
    deadline: Option<Instant>,
) -> (FilterSet, Vec<QueryKey>) {
    let mut set = FilterSet {
        per_candidate: vec![Vec::new(); candidates.len()],
        tops: vec![Vec::new(); candidates.len()],
        decomposed: vec![false; candidates.len()],
        ..FilterSet::default()
    };
    let mut by_key: HashMap<FilterKey, FilterId> = HashMap::new();
    let mut class_by_query: HashMap<QueryKey, u32> = HashMap::new();
    let mut class_keys: Vec<QueryKey> = Vec::new();
    let mut subtree_cache: HashMap<(Vec<EdgeId>, Vec<TableId>), Vec<JoinTree>> = HashMap::new();

    for cand in candidates {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                set.truncated = true;
                break;
            }
        }
        set.decomposed[cand.id] = true;
        let subtrees = subtree_cache
            .entry((cand.tree.edges.clone(), cand.tree.tables.clone()))
            .or_insert_with(|| reference_subtrees(db, &cand.tree))
            .clone();
        for (s, sample) in constraints.samples.iter().enumerate() {
            let constrained: Vec<(usize, ColumnRef)> = sample
                .constrained_columns()
                .map(|i| (i, cand.assignment[i]))
                .collect();
            let mut cand_filter_ids: Vec<FilterId> = Vec::new();
            for sub in &subtrees {
                let preds: Vec<(usize, ColumnRef)> = constrained
                    .iter()
                    .copied()
                    .filter(|(_, col)| sub.contains_table(col.table))
                    .collect();
                let is_top = sub.edges == cand.tree.edges && sub.tables == cand.tree.tables;
                if preds.is_empty() && !is_top {
                    continue;
                }
                let key = FilterKey {
                    edges: sub.edges.clone(),
                    tables: sub.tables.clone(),
                    preds: preds.clone(),
                    sample: s,
                };
                let id = *by_key.entry(key).or_insert_with(|| {
                    let id = FilterId(set.filters.len() as u32);
                    let prevalidated = sub.edges.is_empty() && preds.len() == 1;
                    let cols: Vec<ColumnRef> = preds.iter().map(|&(_, c)| c).collect();
                    let query_key = (sub.edges.clone(), sub.tables.clone(), cols);
                    let query_class = match class_by_query.entry(query_key.clone()) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => {
                            let c = class_keys.len() as u32;
                            class_keys.push(query_key);
                            *e.insert(c)
                        }
                    };
                    set.filters.push(Filter {
                        id,
                        tree: sub.clone(),
                        preds,
                        sample: s,
                        members: Vec::new(),
                        top_for: Vec::new(),
                        subfilters: Vec::new(),
                        superfilters: Vec::new(),
                        prevalidated,
                        query_class,
                    });
                    id
                });
                let f = &mut set.filters[id.index()];
                if f.members.last() != Some(&(cand.id as u32)) {
                    f.members.push(cand.id as u32);
                }
                if is_top {
                    f.top_for.push(cand.id as u32);
                    set.tops[cand.id].push(id);
                }
                cand_filter_ids.push(id);
            }
            for (x, &fx) in cand_filter_ids.iter().enumerate() {
                for &fy in cand_filter_ids.iter().skip(x + 1) {
                    let a = &set.filters[fx.index()];
                    let b = &set.filters[fy.index()];
                    let (sub_id, sup_id) = if b.tree.contains_tree(&a.tree)
                        && a.tree.table_count() < b.tree.table_count()
                    {
                        (fx, fy)
                    } else if a.tree.contains_tree(&b.tree)
                        && b.tree.table_count() < a.tree.table_count()
                    {
                        (fy, fx)
                    } else {
                        continue;
                    };
                    if !set.filters[sup_id.index()].subfilters.contains(&sub_id) {
                        set.filters[sup_id.index()].subfilters.push(sub_id);
                        set.filters[sub_id.index()].superfilters.push(sup_id);
                    }
                }
            }
            set.per_candidate[cand.id].extend(cand_filter_ids);
        }
        let list = &mut set.per_candidate[cand.id];
        list.sort_unstable();
        list.dedup();
    }
    (set, class_keys)
}

/// Every field of a filter, for one `assert_eq!`.
#[allow(clippy::type_complexity)]
fn fields(
    f: &Filter,
) -> (
    FilterId,
    &JoinTree,
    &[(usize, ColumnRef)],
    usize,
    &[u32],
    &[u32],
    &[FilterId],
    &[FilterId],
    bool,
    u32,
) {
    (
        f.id,
        &f.tree,
        &f.preds,
        f.sample,
        &f.members,
        &f.top_for,
        &f.subfilters,
        &f.superfilters,
        f.prevalidated,
        f.query_class,
    )
}

fn assert_same(got: &FilterSet, want: &FilterSet, want_classes: usize, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: filter count");
    for (g, w) in got.filters.iter().zip(&want.filters) {
        assert_eq!(fields(g), fields(w), "{what}: filter {}", w.id.0);
    }
    assert_eq!(
        got.per_candidate, want.per_candidate,
        "{what}: per_candidate"
    );
    assert_eq!(got.tops, want.tops, "{what}: tops");
    assert_eq!(got.decomposed, want.decomposed, "{what}: decomposed");
    assert_eq!(got.truncated, want.truncated, "{what}: truncated");
    assert_eq!(got.plans.classes(), want_classes, "{what}: class count");
}

fn candidates(db: &Database, tc: &TargetConstraints, config: &DiscoveryConfig) -> Vec<Candidate> {
    let related = find_related(db, tc, config);
    enumerate_candidates(db, &related, config, None).candidates
}

/// Build with the library and the reference; assert equality. Returns the
/// reference's class keys.
fn check(
    db: &Database,
    tc: &TargetConstraints,
    config: &DiscoveryConfig,
    what: &str,
) -> Vec<QueryKey> {
    let cands = candidates(db, tc, config);
    let trees: HashSet<&JoinTree> = cands.iter().map(|c| &c.tree).collect();
    for tree in trees {
        assert_eq!(
            db.graph().subtrees(tree),
            reference_subtrees(db, tree),
            "{what}: subtrees"
        );
    }
    let got = build_filters(db, &cands, tc, None);
    let (want, keys) = reference_build(db, &cands, tc, None);
    assert_same(&got, &want, keys.len(), what);
    keys
}

fn some(s: &str) -> Option<String> {
    Some(s.to_string())
}

/// Generated tasks at every resolution, each compared build for build; then
/// consecutive task pairs go through one shared cache, whose counters must
/// be the ones the reference's class keys imply.
fn check_corpus(db: &Database, per_resolution: usize, seed: u64) {
    let config = DiscoveryConfig::default();
    let taskgen = TaskGenerator::new(db, TaskGenConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut built: Vec<(TargetConstraints, Vec<QueryKey>)> = Vec::new();
    for res in Resolution::ALL {
        let tasks = taskgen.generate_many(res, per_resolution, &mut rng);
        assert!(
            !tasks.is_empty(),
            "no {} tasks on {}",
            res.name(),
            db.name()
        );
        for (i, task) in tasks.iter().enumerate() {
            let tc =
                TargetConstraints::parse(task.column_count, &task.samples, &task.metadata).unwrap();
            let what = format!("{} {} task {i}", db.name(), res.name());
            let keys = check(db, &tc, &config, &what);
            built.push((tc, keys));
        }
    }
    let mut nonempty = 0;
    for pair in built.windows(2) {
        let [(tc_a, keys_a), (tc_b, keys_b)] = pair else {
            unreachable!()
        };
        let shared = SharedPlanCache::new();
        build_filters_with_cache(
            db,
            &candidates(db, tc_a, &config),
            tc_a,
            None,
            Some(&shared),
        );
        let a = shared.stats();
        assert_eq!(
            (a.hits, a.misses, a.entries),
            (0, keys_a.len() as u64, keys_a.len())
        );
        build_filters_with_cache(
            db,
            &candidates(db, tc_b, &config),
            tc_b,
            None,
            Some(&shared),
        );
        let b = shared.stats();
        let seen: HashSet<&QueryKey> = keys_a.iter().collect();
        let hits = keys_b.iter().filter(|k| seen.contains(k)).count();
        let union: HashSet<&QueryKey> = keys_a.iter().chain(keys_b).collect();
        assert_eq!(
            (b.hits, b.misses, b.entries),
            (
                hits as u64,
                (keys_a.len() + keys_b.len() - hits) as u64,
                union.len()
            ),
            "{}: shared-cache traffic",
            db.name()
        );
        nonempty += usize::from(!keys_a.is_empty());
    }
    assert!(nonempty > 0, "{}: every task built no classes", db.name());
}

#[test]
fn mondial_tasks_match_the_reference() {
    check_corpus(&mondial(42, 1), 5, 1);
}

#[test]
fn imdb_tasks_match_the_reference() {
    check_corpus(&imdb(42, 1), 5, 2);
}

#[test]
fn nba_tasks_match_the_reference() {
    check_corpus(&nba(42, 1), 5, 3);
}

#[test]
fn skewed_tasks_match_the_reference() {
    check_corpus(&skewed(5, 1, 1.2), 5, 4);
}

#[test]
fn single_table_candidates_match_the_reference() {
    // "Nevada" lives in several tables, so several single-table candidates
    // share the empty edge list and differ only in their table.
    let db = mondial(42, 1);
    let tc = TargetConstraints::parse(1, &[vec![some("Nevada")]], &[]).unwrap();
    let config = DiscoveryConfig::default();
    let cands = candidates(&db, &tc, &config);
    assert!(cands.iter().filter(|c| c.tree.edges.is_empty()).count() > 1);
    check(&db, &tc, &config, "Nevada");
}

#[test]
fn parallel_edges_match_the_reference() {
    // NBA's Game joins Team twice (home and away): same tables, different
    // edges.
    let db = nba(42, 1);
    let tc = TargetConstraints::parse(
        2,
        &[vec![some("Lakers"), None]],
        &[None, some("DataType=='int' AND MinValue>='0'")],
    )
    .unwrap();
    let config = DiscoveryConfig::default();
    let cands = candidates(&db, &tc, &config);
    let two_table: Vec<&Candidate> = cands.iter().filter(|c| c.tree.edges.len() == 1).collect();
    assert!(two_table.iter().any(|a| two_table
        .iter()
        .any(|b| a.tree.tables == b.tree.tables && a.tree.edges != b.tree.edges)));
    check(&db, &tc, &config, "Lakers");
}

#[test]
fn truncated_builds_match_the_reference_on_their_prefix() {
    let db = mondial(42, 1);
    let tc = TargetConstraints::parse(
        3,
        &[vec![some("California || Nevada"), some("Lake Tahoe"), None]],
        &[None, None, some("DataType=='decimal' AND MinValue>='0'")],
    )
    .unwrap();
    let cands = candidates(&db, &tc, &DiscoveryConfig::default());
    let n = cands.len();
    assert!(n > 1);

    // A deadline already past: nothing is decomposed.
    let past = Instant::now() - Duration::from_millis(1);
    let got = build_filters(&db, &cands, &tc, Some(past));
    let (want, keys) = reference_build(&db, &cands, &tc, Some(past));
    assert!(want.truncated && want.decomposed.iter().all(|&d| !d));
    assert_same(&got, &want, keys.len(), "past deadline");

    // A deadline inside the build: whatever prefix was decomposed must
    // equal the reference's build of exactly that prefix.
    let start = Instant::now();
    build_filters(&db, &cands, &tc, None);
    let full = start.elapsed();
    let mut cut_inside = false;
    for attempt in 1..=8u32 {
        let deadline = Instant::now() + full * attempt / 16;
        let got = build_filters(&db, &cands, &tc, Some(deadline));
        let k = got.decomposed.iter().take_while(|&&d| d).count();
        assert!(got.decomposed[k..].iter().all(|&d| !d));
        assert_eq!(got.truncated, k < n);
        let (mut want, keys) = reference_build(&db, &cands[..k], &tc, None);
        want.per_candidate.resize(n, Vec::new());
        want.tops.resize(n, Vec::new());
        want.decomposed.resize(n, false);
        want.truncated = k < n;
        assert_same(
            &got,
            &want,
            keys.len(),
            &format!("deadline cut after {k} of {n}"),
        );
        cut_inside |= 0 < k && k < n;
        if cut_inside {
            break;
        }
    }
    assert!(cut_inside, "no deadline cut inside the build");
}

#[test]
fn wide_chain_matches_the_reference() {
    // A chain of 70 one-row tables, one target column per table, each
    // constrained to that table's value: one candidate whose tree has
    // 70 * 71 / 2 = 2,485 connected subtrees, every one constrained. Wider
    // than any fixed 64-bit mask over tables or constrained columns.
    const N: usize = 70;
    let mut b = DatabaseBuilder::new("chain");
    for i in 0..N {
        let t = format!("T{i}");
        b.add_table(
            &t,
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("next", DataType::Int),
                ColumnDef::new("v", DataType::Text),
            ],
        )
        .unwrap();
        let row = vec![
            Value::Int(i as i64),
            Value::Int(i as i64 + 1),
            Value::Text(format!("w{i}")),
        ];
        b.add_row(&t, row).unwrap();
    }
    for i in 0..N - 1 {
        b.add_foreign_key(&format!("T{i}"), "next", &format!("T{}", i + 1), "id")
            .unwrap();
    }
    let db = b.build();
    let row: Vec<Option<String>> = (0..N).map(|i| some(&format!("w{i}"))).collect();
    let tc = TargetConstraints::parse(N, &[row], &[]).unwrap();
    let config = DiscoveryConfig {
        max_tables: N,
        ..DiscoveryConfig::default()
    };
    let cands = candidates(&db, &tc, &config);
    assert_eq!(cands.len(), 1);
    assert_eq!(db.graph().subtrees(&cands[0].tree).len(), N * (N + 1) / 2);
    let keys = check(&db, &tc, &config, "wide chain");
    assert_eq!(keys.len(), N * (N + 1) / 2);
}
