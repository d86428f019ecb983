//! The schema graph and join-tree enumeration.
//!
//! Nodes are tables; edges are joinable column pairs (the declared foreign
//! keys, traversable in both directions). Candidate discovery (Section 2.3:
//! *"we exhaustively search through the source database schema graph and find
//! all possible join paths"*) enumerates **join trees** — acyclic, connected
//! edge sets — up to a size bound. We enumerate edge sets rather than vertex
//! sets because schema graphs are cyclic (e.g. City→Province→Country and
//! City→Country) and different spanning trees of the same tables are
//! different join conditions, hence different PJ queries.

use crate::hash::MulRotSet;
use crate::schema::{ColumnRef, TableId};
use std::collections::HashSet;

/// Index of an edge within the schema graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An undirected join edge. `a`/`b` order follows the foreign-key declaration
/// (`a` = referencing column, `b` = referenced column) but traversal ignores
/// direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    pub a: ColumnRef,
    pub b: ColumnRef,
}

impl JoinEdge {
    /// The endpoint column on `table`, if this edge touches it.
    pub fn endpoint_on(&self, table: TableId) -> Option<ColumnRef> {
        if self.a.table == table {
            Some(self.a)
        } else if self.b.table == table {
            Some(self.b)
        } else {
            None
        }
    }

    /// The table on the other side of `table`.
    pub fn other(&self, table: TableId) -> Option<TableId> {
        if self.a.table == table {
            Some(self.b.table)
        } else if self.b.table == table {
            Some(self.a.table)
        } else {
            None
        }
    }
}

/// An acyclic connected set of join edges plus the tables it spans.
/// A single table with no edges is a valid (trivial) join tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinTree {
    /// Sorted edge ids — the canonical identity of the tree.
    pub edges: Vec<EdgeId>,
    /// Sorted table ids spanned by the edges (or the single trivial table).
    pub tables: Vec<TableId>,
}

impl JoinTree {
    /// A tree with one table and no joins.
    pub fn single(table: TableId) -> JoinTree {
        JoinTree {
            edges: Vec::new(),
            tables: vec![table],
        }
    }

    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    pub fn contains_table(&self, t: TableId) -> bool {
        self.tables.binary_search(&t).is_ok()
    }

    /// True if `other`'s edge set is a subset of this tree's and, for trivial
    /// (edgeless) `other`, its table is spanned by this tree.
    pub fn contains_tree(&self, other: &JoinTree) -> bool {
        if other.edges.is_empty() {
            return other.tables.iter().all(|t| self.contains_table(*t));
        }
        other
            .edges
            .iter()
            .all(|e| self.edges.binary_search(e).is_ok())
    }

    /// Tables with exactly one incident edge in this tree (tree leaves).
    /// Trivial single-table trees have no leaves by this definition.
    pub fn leaf_tables(&self, graph: &SchemaGraph) -> Vec<TableId> {
        if self.edges.is_empty() {
            return Vec::new();
        }
        self.tables
            .iter()
            .copied()
            .filter(|&t| {
                self.edges
                    .iter()
                    .filter(|&&e| graph.edge(e).endpoint_on(t).is_some())
                    .count()
                    == 1
            })
            .collect()
    }
}

/// The join graph of one database.
#[derive(Debug, Clone, Default)]
pub struct SchemaGraph {
    edges: Vec<JoinEdge>,
    /// adjacency[t] = edge ids incident to table t.
    adjacency: Vec<Vec<EdgeId>>,
}

impl SchemaGraph {
    pub fn new(table_count: usize, edges: Vec<JoinEdge>) -> SchemaGraph {
        let mut adjacency = vec![Vec::new(); table_count];
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            adjacency[e.a.table.index()].push(id);
            if e.b.table != e.a.table {
                adjacency[e.b.table.index()].push(id);
            }
        }
        SchemaGraph { edges, adjacency }
    }

    pub fn edge(&self, id: EdgeId) -> &JoinEdge {
        &self.edges[id.index()]
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn table_count(&self) -> usize {
        self.adjacency.len()
    }

    pub fn incident_edges(&self, table: TableId) -> &[EdgeId] {
        &self.adjacency[table.index()]
    }

    /// Enumerate every join tree spanning at most `max_tables` tables whose
    /// table set intersects `anchor_tables` (trees that touch none of the
    /// anchors can never host a related column, so they are skipped at the
    /// source). Trees are produced in non-decreasing size order —
    /// single-table trees first, then two-table joins, and so on — which lets
    /// callers with a time budget see cheap candidates first.
    pub fn enumerate_trees(&self, max_tables: usize, anchor_tables: &[TableId]) -> Vec<JoinTree> {
        let mut out = Vec::new();
        if max_tables == 0 {
            return out;
        }
        let anchors: HashSet<TableId> = anchor_tables.iter().copied().collect();
        let mut seen: HashSet<Vec<EdgeId>> = HashSet::new();
        // Frontier of trees of the current size, grown breadth-first.
        let mut frontier: Vec<JoinTree> = Vec::new();
        for &t in anchor_tables {
            let tree = JoinTree::single(t);
            frontier.push(tree.clone());
            out.push(tree);
        }
        // Expansion: attach one incident edge leading to a table not yet in
        // the tree. Dedup by canonical sorted edge list; a tree reached via
        // different growth orders collapses to one entry.
        for _size in 2..=max_tables {
            let mut next: Vec<JoinTree> = Vec::new();
            for tree in &frontier {
                for &t in &tree.tables {
                    for &eid in self.incident_edges(t) {
                        let edge = self.edge(eid);
                        let Some(other) = edge.other(t) else { continue };
                        if tree.contains_table(other) {
                            continue; // would revisit a table (self-join: out of scope)
                        }
                        let mut edges = tree.edges.clone();
                        let pos = edges.binary_search(&eid).unwrap_err();
                        edges.insert(pos, eid);
                        if !seen.insert(edges.clone()) {
                            continue;
                        }
                        let mut tables = tree.tables.clone();
                        let tpos = tables.binary_search(&other).unwrap_err();
                        tables.insert(tpos, other);
                        let grown = JoinTree { edges, tables };
                        next.push(grown);
                    }
                }
            }
            // Anchored trees only — but growth must pass through non-anchored
            // intermediate tables, so filter at emission, not expansion.
            out.extend(
                next.iter()
                    .filter(|t| t.tables.iter().any(|x| anchors.contains(x)))
                    .cloned(),
            );
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    /// All connected sub-trees of the given tree that span ≥1 table
    /// (including the full tree itself and trivial single-table trees),
    /// smallest first: the single tables in the tree's table order, then
    /// each size grown breadth-first from the previous one. Candidate trees
    /// are small (≤ ~5 tables), so the 2^edges worst case is negligible.
    pub fn subtrees(&self, tree: &JoinTree) -> Vec<JoinTree> {
        let mut seen: MulRotSet<Vec<EdgeId>> = MulRotSet::default();
        let mut out: Vec<JoinTree> = tree.tables.iter().map(|&t| JoinTree::single(t)).collect();
        // `out[level..]` is the previous size's subtrees, grown in place.
        let mut level = 0;
        while level < out.len() {
            let end = out.len();
            for i in level..end {
                for ti in 0..out[i].tables.len() {
                    let t = out[i].tables[ti];
                    for &eid in self.incident_edges(t) {
                        if tree.edges.binary_search(&eid).is_err() {
                            continue; // not an edge of the parent tree
                        }
                        let sub = &out[i];
                        let Some(other) = self.edge(eid).other(t) else {
                            continue;
                        };
                        if sub.contains_table(other) {
                            continue;
                        }
                        let mut edges = sub.edges.clone();
                        let pos = edges.binary_search(&eid).unwrap_err();
                        edges.insert(pos, eid);
                        if seen.contains(&edges) {
                            continue;
                        }
                        seen.insert(edges.clone());
                        let mut tables = sub.tables.clone();
                        let tpos = tables.binary_search(&other).unwrap_err();
                        tables.insert(tpos, other);
                        out.push(JoinTree { edges, tables });
                    }
                }
            }
            level = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cref(t: u32, c: u32) -> ColumnRef {
        ColumnRef::new(TableId(t), c)
    }

    /// Triangle graph: 0-1, 1-2, 0-2 — cyclic, like City/Province/Country.
    fn triangle() -> SchemaGraph {
        SchemaGraph::new(
            3,
            vec![
                JoinEdge {
                    a: cref(0, 0),
                    b: cref(1, 0),
                },
                JoinEdge {
                    a: cref(1, 1),
                    b: cref(2, 0),
                },
                JoinEdge {
                    a: cref(0, 1),
                    b: cref(2, 1),
                },
            ],
        )
    }

    /// Path graph 0-1-2-3.
    fn path4() -> SchemaGraph {
        SchemaGraph::new(
            4,
            vec![
                JoinEdge {
                    a: cref(0, 0),
                    b: cref(1, 0),
                },
                JoinEdge {
                    a: cref(1, 1),
                    b: cref(2, 0),
                },
                JoinEdge {
                    a: cref(2, 1),
                    b: cref(3, 0),
                },
            ],
        )
    }

    fn all_tables(n: u32) -> Vec<TableId> {
        (0..n).map(TableId).collect()
    }

    #[test]
    fn single_table_trees_enumerated_first() {
        let g = triangle();
        let trees = g.enumerate_trees(1, &all_tables(3));
        assert_eq!(trees.len(), 3);
        assert!(trees.iter().all(|t| t.edges.is_empty()));
    }

    #[test]
    fn triangle_two_table_trees() {
        let g = triangle();
        let trees = g.enumerate_trees(2, &all_tables(3));
        // 3 singles + 3 edges.
        assert_eq!(trees.len(), 6);
        assert_eq!(trees.iter().filter(|t| t.edges.len() == 1).count(), 3);
    }

    #[test]
    fn triangle_three_table_trees_are_spanning_trees() {
        let g = triangle();
        let trees = g.enumerate_trees(3, &all_tables(3));
        // Spanning trees of a triangle: 3 (choose which edge to drop).
        let three: Vec<_> = trees.iter().filter(|t| t.table_count() == 3).collect();
        assert_eq!(three.len(), 3);
        for t in &three {
            assert_eq!(t.edges.len(), 2, "a tree on 3 tables has 2 edges");
        }
    }

    #[test]
    fn no_duplicate_trees() {
        let g = path4();
        let trees = g.enumerate_trees(4, &all_tables(4));
        let mut keys: Vec<_> = trees
            .iter()
            .map(|t| (t.edges.clone(), t.tables.clone()))
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
        // Path graph subtrees (contiguous segments): 4 singles + 3 pairs +
        // 2 triples + 1 quad = 10.
        assert_eq!(trees.len(), 10);
    }

    #[test]
    fn anchor_filter_drops_untouched_trees() {
        let g = path4();
        // Anchored only at table 3: trees must contain table 3.
        let trees = g.enumerate_trees(4, &[TableId(3)]);
        assert!(trees.iter().all(|t| t.contains_table(TableId(3))));
        // Segments containing 3: [3], [2,3], [1..3], [0..3].
        assert_eq!(trees.len(), 4);
    }

    #[test]
    fn trees_emitted_in_nondecreasing_size() {
        let g = triangle();
        let trees = g.enumerate_trees(3, &all_tables(3));
        let sizes: Vec<usize> = trees.iter().map(|t| t.table_count()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn leaf_tables_of_a_path() {
        let g = path4();
        let full = g
            .enumerate_trees(4, &all_tables(4))
            .into_iter()
            .find(|t| t.table_count() == 4)
            .unwrap();
        let mut leaves = full.leaf_tables(&g);
        leaves.sort();
        assert_eq!(leaves, vec![TableId(0), TableId(3)]);
    }

    #[test]
    fn subtrees_of_a_path_tree() {
        let g = path4();
        let full = g
            .enumerate_trees(4, &all_tables(4))
            .into_iter()
            .find(|t| t.table_count() == 4)
            .unwrap();
        let subs = g.subtrees(&full);
        // Contiguous sub-segments of a 4-path: 4+3+2+1 = 10.
        assert_eq!(subs.len(), 10);
        assert!(subs
            .iter()
            .any(|s| s.contains_tree(&full) && full.contains_tree(s)));
    }

    #[test]
    fn contains_tree_subset_semantics() {
        let g = path4();
        let trees = g.enumerate_trees(4, &all_tables(4));
        let full = trees.iter().find(|t| t.table_count() == 4).unwrap();
        let pair = trees
            .iter()
            .find(|t| t.edges.len() == 1 && t.contains_table(TableId(1)))
            .unwrap();
        assert!(full.contains_tree(pair));
        assert!(!pair.contains_tree(full));
        let trivial = JoinTree::single(TableId(2));
        assert!(full.contains_tree(&trivial));
    }

    #[test]
    fn parallel_edges_yield_distinct_trees() {
        // Two different FKs between tables 0 and 1 (e.g. HomeTeam/AwayTeam).
        let g = SchemaGraph::new(
            2,
            vec![
                JoinEdge {
                    a: cref(0, 0),
                    b: cref(1, 0),
                },
                JoinEdge {
                    a: cref(0, 1),
                    b: cref(1, 0),
                },
            ],
        );
        let trees = g.enumerate_trees(2, &all_tables(2));
        let pairs: Vec<_> = trees.iter().filter(|t| t.edges.len() == 1).collect();
        assert_eq!(pairs.len(), 2, "each parallel edge is its own join tree");
    }
}
