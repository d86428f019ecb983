//! A nested-loop evaluator of PJ queries over materialized rows: the
//! brute-force reference that the executor (`prop_exec_reference`) and
//! discovery (`prism_core`'s `prop_matrix`) are checked against. It uses no
//! index, plan, zone map or memo. NULL never equi-joins, and numeric keys
//! compare by value (`Value`'s equality, under which `Int(3)` equals
//! `Decimal(3.0)`).

use prism_db::types::Value;
use prism_db::PjQuery;

/// One optional test per projection slot, applied to the slot's cell.
pub type SlotPred<'a> = Option<Box<dyn Fn(&Value) -> bool + 'a>>;

/// Visits every row tuple of `q` that satisfies all of its join conditions
/// and slot predicates, passing `found` the row index bound to each node
/// slot, until `found` returns `false`. `tables[node]` holds the rows of
/// node slot `node`'s table; a slot beyond `preds` is unconstrained.
///
/// Each node's rows are first narrowed to those passing its slots'
/// predicates. Nodes are then bound in a connected order (each one joined
/// to an earlier one), so no level enumerates a cross product, and a join
/// condition is tested once both of its endpoints are bound. Returns
/// `true` iff `found` stopped the enumeration.
pub fn for_each_match(
    tables: &[&[Vec<Value>]],
    q: &PjQuery,
    preds: &[SlotPred<'_>],
    found: &mut dyn FnMut(&[usize]) -> bool,
) -> bool {
    let n = q.nodes.len();
    let mut order = vec![0];
    while order.len() < n {
        let next = q
            .joins
            .iter()
            .find_map(
                |j| match (order.contains(&j.left_node), order.contains(&j.right_node)) {
                    (true, false) => Some(j.right_node),
                    (false, true) => Some(j.left_node),
                    _ => None,
                },
            )
            .expect("the joins connect every node");
        order.push(next);
    }
    let mut depth = vec![0; n];
    for (d, &node) in order.iter().enumerate() {
        depth[node] = d;
    }
    let passing: Vec<Vec<usize>> = (0..n)
        .map(|node| {
            (0..tables[node].len())
                .filter(|&row| {
                    q.projection.iter().zip(preds).all(|(&(m, col), p)| {
                        m != node
                            || p.as_ref()
                                .is_none_or(|p| p(&tables[node][row][col as usize]))
                    })
                })
                .collect()
        })
        .collect();
    let level = Level {
        tables,
        q,
        passing: &passing,
        order: &order,
        depth: &depth,
    };
    level.extend(0, &mut vec![0; n], found)
}

struct Level<'a> {
    tables: &'a [&'a [Vec<Value>]],
    q: &'a PjQuery,
    /// Per node slot, the rows that pass its predicates.
    passing: &'a [Vec<usize>],
    order: &'a [usize],
    depth: &'a [usize],
}

impl Level<'_> {
    /// Binds the node at depth `d` to each of its rows in turn; `true` iff
    /// `found` stopped the enumeration.
    fn extend(
        &self,
        d: usize,
        at: &mut Vec<usize>,
        found: &mut dyn FnMut(&[usize]) -> bool,
    ) -> bool {
        if d == self.order.len() {
            return !found(at);
        }
        let node = self.order[d];
        for &row in &self.passing[node] {
            at[node] = row;
            let cell = |node: usize, col: u32| &self.tables[node][at[node]][col as usize];
            let joins_hold = self
                .q
                .joins
                .iter()
                .filter(|j| self.depth[j.left_node].max(self.depth[j.right_node]) == d)
                .all(|j| {
                    let l = cell(j.left_node, j.left_col);
                    !l.is_null() && l == cell(j.right_node, j.right_col)
                });
            if joins_hold && self.extend(d + 1, at, found) {
                return true;
            }
        }
        false
    }
}
