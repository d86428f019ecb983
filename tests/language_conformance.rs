//! Figure 1 conformance: the multiresolution schema mapping language,
//! exercised through the public facade, plus property-based parser tests.

use prism::core::TargetConstraints;
use prism::db::Value;
use prism::lang::lexer::lex;
use prism::lang::{
    matches_value, parse_metadata_constraint, parse_value_constraint, CmpOp, ConstraintExpr,
};
use proptest::prelude::*;

/// Every production of Figure 1 has a concrete spelling that must parse.
#[test]
fn figure_1_productions_parse() {
    // ck := pv
    parse_value_constraint("Lake Tahoe").unwrap();
    // ck := pv logicalop pv (∨)
    parse_value_constraint("California || Nevada").unwrap();
    parse_value_constraint("California OR Nevada").unwrap();
    // ck := pv logicalop pv (∧) — value range
    parse_value_constraint(">= 100 && <= 600").unwrap();
    parse_value_constraint(">= 100 AND <= 600").unwrap();
    // pv := binop const, all six binops
    for op in ["<", "<=", ">", ">=", "=", "!="] {
        parse_value_constraint(&format!("{op} 42")).unwrap();
    }
    // Unicode spellings of the grammar's symbols.
    parse_value_constraint("\u{2265} 100 \u{2227} \u{2264} 600").unwrap();
    parse_value_constraint("\u{2260} 'x'").unwrap();
    // cm := pm | pm logicalop pm, all four metadata types of Figure 1.
    parse_metadata_constraint("DataType == 'decimal'").unwrap();
    parse_metadata_constraint("ColumnName != 'id'").unwrap();
    parse_metadata_constraint("MaxValue <= '100'").unwrap();
    parse_metadata_constraint("MinValue >= '0'").unwrap();
    parse_metadata_constraint("DataType=='int' OR DataType=='decimal'").unwrap();
    // The paper's "maximum text length" metadata.
    parse_metadata_constraint("MaxLength <= '32'").unwrap();
}

#[test]
fn the_demo_walkthrough_strings_parse_verbatim() {
    parse_value_constraint("California || Nevada").unwrap();
    parse_value_constraint("Lake Tahoe").unwrap();
    // As typed in the paper (with `==` and quoted '0').
    parse_metadata_constraint("DataType==\u{2018}decimal\u{2019} AND MinValue>=\u{2018}0\u{2019}")
        .unwrap();
}

// ---- property-based tests ----

/// Generate random value-constraint ASTs and check Display → parse is an
/// identity (round-trip property).
fn arb_literal() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z][a-zA-Z0-9 ]{0,12}".prop_map(|s| s.trim().to_string()),
        (-10_000i64..10_000).prop_map(|n| n.to_string()),
        (0u32..100_000, 1u32..100).prop_map(|(a, b)| format!("{}.{}", a, b)),
    ]
    .prop_filter("non-empty", |s| !s.trim().is_empty())
}

fn arb_value_constraint() -> impl Strategy<Value = prism::lang::ValueConstraint> {
    let leaf = (
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
            Just(CmpOp::Contains),
        ],
        arb_literal(),
    )
        .prop_map(|(op, raw)| {
            ConstraintExpr::Pred(prism::lang::ValuePred {
                op,
                lit: prism::lang::Literal::new(raw),
            })
        });
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ConstraintExpr::and(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| ConstraintExpr::or(a, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_then_parse_is_identity(c in arb_value_constraint()) {
        let rendered = c.to_string();
        let reparsed = parse_value_constraint(&rendered)
            .unwrap_or_else(|e| panic!("rendered `{rendered}` failed to parse: {e}"));
        prop_assert_eq!(c, reparsed);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,64}") {
        let _ = parse_value_constraint(&s);
        let _ = parse_metadata_constraint(&s);
    }

    /// `\PC` draws printable ASCII and six fixed extras, none of which the
    /// lexer special-cases, so this draws from every character `lex`
    /// matches or treats as a word boundary: curly quotes, logic and
    /// comparison symbols, the ASCII operators, quotes, `@`, parentheses,
    /// letters of the keywords, digits and spaces.
    #[test]
    fn lexer_terminates_on_its_own_alphabet(
        s in "[\u{2018}\u{2019}\u{201C}\u{201D}\u{2227}\u{2228}\u{2260}\u{2264}\u{2265}&|=!<>'\"@() .ADNORadnor0-9-]{0,32}"
    ) {
        if let Ok(tokens) = lex(&s) {
            prop_assert!(tokens.len() <= s.chars().count(), "{:?} from {:?}", tokens, s);
        }
        let _ = parse_value_constraint(&s);
        let _ = parse_metadata_constraint(&s);
        let _ = TargetConstraints::parse(1, &[vec![Some(s.clone())]], &[Some(s.clone())]);
    }

    #[test]
    fn evaluation_is_deterministic(c in arb_value_constraint(), n in -1000i64..1000) {
        let v = Value::Int(n);
        prop_assert_eq!(matches_value(&c, &v), matches_value(&c, &v));
    }

    #[test]
    fn disjunction_is_monotone(c in arb_value_constraint(), n in -1000i64..1000) {
        // v matches c ⟹ v matches (c OR anything).
        let v = Value::Int(n);
        let widened = ConstraintExpr::or(
            c.clone(),
            ConstraintExpr::Pred(prism::lang::ValuePred {
                op: CmpOp::Eq,
                lit: prism::lang::Literal::new("zzz-never"),
            }),
        );
        if matches_value(&c, &v) {
            prop_assert!(matches_value(&widened, &v));
        }
    }

    #[test]
    fn conjunction_is_restrictive(c in arb_value_constraint(), n in -1000i64..1000) {
        // v matches (c AND x) ⟹ v matches c.
        let v = Value::Int(n);
        let narrowed = ConstraintExpr::and(
            c.clone(),
            ConstraintExpr::Pred(prism::lang::ValuePred {
                op: CmpOp::Ge,
                lit: prism::lang::Literal::new("-999999"),
            }),
        );
        if matches_value(&narrowed, &v) {
            prop_assert!(matches_value(&c, &v));
        }
    }

    #[test]
    fn nulls_never_match(c in arb_value_constraint()) {
        prop_assert!(!matches_value(&c, &Value::Null));
    }
}
