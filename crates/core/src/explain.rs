//! Query explanation — the Figure 4c query graph.
//!
//! Section 2.3: *"Whenever the user points to a schema mapping SQL query, we
//! draw a corresponding query graph representation for this query. Orange
//! squares represent relations, green ellipses are the attributes to
//! project, and edges represent join conditions. … the user could pick one
//! or more constraints, and Prism draws these constraints (as blue boxes) in
//! the previous graph to show the locations in the database where these
//! constraints are satisfied."*
//!
//! [`QueryGraph`] is the renderer-independent model; [`QueryGraph::to_dot`]
//! emits Graphviz with the paper's color scheme and
//! [`QueryGraph::to_ascii`] a terminal rendering for the CLI demo.

use crate::candidates::Candidate;
use crate::constraints::TargetConstraints;
use prism_db::Database;

/// Which constraints to draw into the graph (indices into the constraint
/// set), mirroring the multi-select at the bottom of Figure 4a.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintPick {
    /// A sample-constraint cell: (sample row, target column).
    Value { sample: usize, column: usize },
    /// A metadata constraint: target column.
    Metadata { column: usize },
}

/// A relation node (orange square in Figure 4c).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationNode {
    pub name: String,
}

/// A projected attribute (green ellipse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeNode {
    /// Index into [`QueryGraph::relations`].
    pub relation: usize,
    pub column: String,
    /// Which target-schema column this attribute produces.
    pub target_column: usize,
}

/// A join edge between two relations, labelled with its condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdgeView {
    pub left_relation: usize,
    pub left_column: String,
    pub right_relation: usize,
    pub right_column: String,
}

/// A constraint box (blue in Figure 4c), attached where it is satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintBox {
    /// The constraint text as the user wrote it.
    pub label: String,
    /// Attribute node index this constraint is satisfied at.
    pub attribute: usize,
    /// True for metadata constraints (drawn dashed).
    pub metadata: bool,
}

/// The explanation graph of one discovered query.
#[derive(Debug, Clone, Default)]
pub struct QueryGraph {
    pub relations: Vec<RelationNode>,
    pub attributes: Vec<AttributeNode>,
    pub joins: Vec<JoinEdgeView>,
    pub constraints: Vec<ConstraintBox>,
}

/// Build the explanation graph for a candidate, drawing the picked
/// constraints (pass all picks for Figure 4c's "all constraints" view).
pub fn explain(
    db: &Database,
    candidate: &Candidate,
    constraints: &TargetConstraints,
    picks: &[ConstraintPick],
) -> QueryGraph {
    let catalog = db.catalog();
    let mut g = QueryGraph::default();
    for &tid in &candidate.query.nodes {
        g.relations.push(RelationNode {
            name: catalog.table(tid).name.clone(),
        });
    }
    for (target, &(node, col)) in candidate.query.projection.iter().enumerate() {
        let tid = candidate.query.nodes[node];
        g.attributes.push(AttributeNode {
            relation: node,
            column: catalog.table(tid).column(col).name.clone(),
            target_column: target,
        });
    }
    for j in &candidate.query.joins {
        let lt = candidate.query.nodes[j.left_node];
        let rt = candidate.query.nodes[j.right_node];
        g.joins.push(JoinEdgeView {
            left_relation: j.left_node,
            left_column: catalog.table(lt).column(j.left_col).name.clone(),
            right_relation: j.right_node,
            right_column: catalog.table(rt).column(j.right_col).name.clone(),
        });
    }
    for pick in picks {
        match *pick {
            ConstraintPick::Value { sample, column } => {
                let Some(c) = constraints
                    .samples
                    .get(sample)
                    .and_then(|s| s.cells().get(column))
                    .and_then(Option::as_ref)
                else {
                    continue;
                };
                if let Some(attr) = g.attributes.iter().position(|a| a.target_column == column) {
                    g.constraints.push(ConstraintBox {
                        label: c.to_string(),
                        attribute: attr,
                        metadata: false,
                    });
                }
            }
            ConstraintPick::Metadata { column } => {
                let Some(m) = constraints.metadata.get(column).and_then(Option::as_ref) else {
                    continue;
                };
                if let Some(attr) = g.attributes.iter().position(|a| a.target_column == column) {
                    g.constraints.push(ConstraintBox {
                        label: m.to_string(),
                        attribute: attr,
                        metadata: true,
                    });
                }
            }
        }
    }
    g
}

/// Every pick for the full Figure 4c view.
pub fn all_picks(constraints: &TargetConstraints) -> Vec<ConstraintPick> {
    let mut picks = Vec::new();
    for (s, row) in constraints.samples.iter().enumerate() {
        for c in row.constrained_columns() {
            picks.push(ConstraintPick::Value {
                sample: s,
                column: c,
            });
        }
    }
    for (c, m) in constraints.metadata.iter().enumerate() {
        if m.is_some() {
            picks.push(ConstraintPick::Metadata { column: c });
        }
    }
    picks
}

impl QueryGraph {
    /// Graphviz rendering with the paper's palette: orange boxes for
    /// relations, green ellipses for projected attributes, blue notes for
    /// constraints (dashed when metadata).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("graph query {\n  rankdir=LR;\n");
        for (i, r) in self.relations.iter().enumerate() {
            out.push_str(&format!(
                "  r{i} [label=\"{}\", shape=box, style=filled, fillcolor=orange];\n",
                r.name
            ));
        }
        for (i, a) in self.attributes.iter().enumerate() {
            out.push_str(&format!(
                "  a{i} [label=\"{}\", shape=ellipse, style=filled, fillcolor=palegreen];\n",
                a.column
            ));
            out.push_str(&format!("  r{} -- a{i} [style=dotted];\n", a.relation));
        }
        for j in &self.joins {
            out.push_str(&format!(
                "  r{} -- r{} [label=\"{}.{} = {}.{}\"];\n",
                j.left_relation,
                j.right_relation,
                self.relations[j.left_relation].name,
                j.left_column,
                self.relations[j.right_relation].name,
                j.right_column
            ));
        }
        for (i, c) in self.constraints.iter().enumerate() {
            let style = if c.metadata { "dashed" } else { "solid" };
            out.push_str(&format!(
                "  c{i} [label=\"{}\", shape=note, style=\"filled,{style}\", fillcolor=lightblue];\n",
                c.label.replace('"', "\\\"")
            ));
            out.push_str(&format!("  c{i} -- a{} [style=dashed];\n", c.attribute));
        }
        out.push_str("}\n");
        out
    }

    /// Terminal rendering: one line per relation with its projected
    /// attributes and attached constraints, then the join conditions.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        for (ri, r) in self.relations.iter().enumerate() {
            out.push_str(&format!("[{}]\n", r.name));
            for (ai, a) in self.attributes.iter().enumerate() {
                if a.relation != ri {
                    continue;
                }
                out.push_str(&format!(
                    "  ({}) -> target column {}\n",
                    a.column, a.target_column
                ));
                for c in &self.constraints {
                    if c.attribute == ai {
                        let kind = if c.metadata { "metadata" } else { "value" };
                        out.push_str(&format!("      <{kind}: {}>\n", c.label));
                    }
                }
            }
        }
        if !self.joins.is_empty() {
            out.push_str("joins:\n");
            for j in &self.joins {
                out.push_str(&format!(
                    "  {}.{} == {}.{}\n",
                    self.relations[j.left_relation].name,
                    j.left_column,
                    self.relations[j.right_relation].name,
                    j.right_column
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoveryConfig;
    use crate::service::DiscoveryService;
    use prism_datasets::mondial;
    use prism_db::Database;
    use std::sync::Arc;

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

    fn desired_candidate(db: &Arc<Database>, tc: &TargetConstraints) -> Candidate {
        let result = DiscoveryService::new(Arc::clone(db), DiscoveryConfig::default()).run(tc);
        assert!(!result.degraded, "{:?}", result.fault_reports);
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        result
            .queries
            .into_iter()
            .find(|q| q.sql == want)
            .expect("desired query discovered")
            .candidate
    }

    #[test]
    fn graph_structure_matches_figure_4c() {
        let db = Arc::new(mondial(42, 1));
        let tc = walkthrough();
        let cand = desired_candidate(&db, &tc);
        let g = explain(&db, &cand, &tc, &all_picks(&tc));
        // Two orange squares, three green ellipses, one join edge, three
        // blue constraint boxes (two value + one metadata).
        assert_eq!(g.relations.len(), 2);
        assert_eq!(g.attributes.len(), 3);
        assert_eq!(g.joins.len(), 1);
        assert_eq!(g.constraints.len(), 3);
        assert_eq!(g.constraints.iter().filter(|c| c.metadata).count(), 1);
        let names: Vec<&str> = g.relations.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"Lake") && names.contains(&"geo_lake"));
    }

    #[test]
    fn constraints_attach_to_the_satisfying_attribute() {
        let db = Arc::new(mondial(42, 1));
        let tc = walkthrough();
        let cand = desired_candidate(&db, &tc);
        let g = explain(&db, &cand, &tc, &all_picks(&tc));
        // "Lake Tahoe" (target column 1) must attach to the attribute
        // producing target column 1, which is Lake.Name.
        let tahoe = g
            .constraints
            .iter()
            .find(|c| c.label.contains("Lake Tahoe"))
            .expect("value constraint drawn");
        let attr = &g.attributes[tahoe.attribute];
        assert_eq!(attr.target_column, 1);
        assert_eq!(attr.column, "Name");
        assert_eq!(g.relations[attr.relation].name, "Lake");
    }

    #[test]
    fn dot_output_is_well_formed_and_colored() {
        let db = Arc::new(mondial(42, 1));
        let tc = walkthrough();
        let cand = desired_candidate(&db, &tc);
        let dot = explain(&db, &cand, &tc, &all_picks(&tc)).to_dot();
        assert!(dot.starts_with("graph query {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("fillcolor=orange"));
        assert!(dot.contains("fillcolor=palegreen"));
        assert!(dot.contains("fillcolor=lightblue"));
        assert!(
            dot.contains("geo_lake.Lake = Lake.Name") || dot.contains("Lake.Name = geo_lake.Lake")
        );
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn ascii_output_mentions_everything() {
        let db = Arc::new(mondial(42, 1));
        let tc = walkthrough();
        let cand = desired_candidate(&db, &tc);
        let text = explain(&db, &cand, &tc, &all_picks(&tc)).to_ascii();
        for needle in [
            "[Lake]",
            "[geo_lake]",
            "(Area)",
            "joins:",
            "Lake Tahoe",
            "metadata:",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn empty_picks_draw_no_constraint_boxes() {
        let db = Arc::new(mondial(42, 1));
        let tc = walkthrough();
        let cand = desired_candidate(&db, &tc);
        let g = explain(&db, &cand, &tc, &[]);
        assert!(g.constraints.is_empty());
        assert!(!g.to_ascii().contains('<'));
    }

    #[test]
    fn out_of_range_picks_are_ignored() {
        let db = Arc::new(mondial(42, 1));
        let tc = walkthrough();
        let cand = desired_candidate(&db, &tc);
        let g = explain(
            &db,
            &cand,
            &tc,
            &[
                ConstraintPick::Value {
                    sample: 9,
                    column: 0,
                },
                ConstraintPick::Metadata { column: 9 },
                ConstraintPick::Value {
                    sample: 0,
                    column: 2,
                }, // unconstrained cell
            ],
        );
        assert!(g.constraints.is_empty());
    }
}
