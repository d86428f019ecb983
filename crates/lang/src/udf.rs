//! User-defined functions as constraints.
//!
//! Section 2.1 of the paper: *"In the future, we plan to support more
//! metadata constraints, and even user-defined functions."* This module
//! implements that extension. Two kinds are supported, mirroring the
//! language's two constraint classes:
//!
//! * **value UDFs** — cell-level predicates usable in value constraints
//!   (`@is_zip_code`), and
//! * **column UDFs** — column-level predicates over statistics usable in
//!   metadata constraints (`@looks_like_year`).
//!
//! Syntax: `@name` wherever a predicate may appear; UDFs combine freely
//! with the built-in predicates (`@is_zip_code || Lake Tahoe`). Semantics
//! when a name is not registered: the predicate is **false** (conservative
//! for discovery soundness); [`UdfRegistry::missing_names`] lets front-ends
//! report unknown names before searching.

use crate::error::Error;
use prism_db::stats::ColumnStats;
use prism_db::types::Value;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A cell-level predicate.
pub type ValueUdf = Arc<dyn Fn(&Value) -> bool + Send + Sync>;

/// A column-level predicate over collected statistics.
pub type ColumnUdf = Arc<dyn Fn(&ColumnStats) -> bool + Send + Sync>;

/// Named user-defined predicates available to a discovery round.
///
/// Cloning is cheap (the functions are reference-counted). Equality and
/// hashing consider only the registered *names* — two registries with the
/// same names are interchangeable for constraint-set comparison purposes.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    value: HashMap<String, ValueUdf>,
    column: HashMap<String, ColumnUdf>,
}

impl UdfRegistry {
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Register a cell-level predicate. Names are case-insensitive.
    pub fn register_value(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> &mut Self {
        self.value.insert(name.into().to_lowercase(), Arc::new(f));
        self
    }

    /// Register a column-level predicate. Names are case-insensitive.
    pub fn register_column(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&ColumnStats) -> bool + Send + Sync + 'static,
    ) -> &mut Self {
        self.column.insert(name.into().to_lowercase(), Arc::new(f));
        self
    }

    /// Evaluate a value UDF; unregistered names are false. User code is
    /// untrusted: a panic inside the UDF is caught and re-raised with the
    /// UDF's name attached, so the validation slot's containment layer
    /// above reports *which* user function faulted instead of an anonymous
    /// unwind.
    pub fn eval_value(&self, name: &str, v: &Value) -> bool {
        match self.try_eval_value(name, v) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Panic-contained value-UDF evaluation: `Err(UdfPanic)` instead of an
    /// unwind when the user's closure panics. Unregistered names are
    /// `Ok(false)`.
    pub fn try_eval_value(&self, name: &str, v: &Value) -> Result<bool, Error> {
        let key = name.to_lowercase();
        let Some(f) = self.value.get(&key) else {
            return Ok(false);
        };
        catch_unwind(AssertUnwindSafe(|| f(v))).map_err(|_| Error::UdfPanic(key))
    }

    /// Evaluate a column UDF; unregistered names are false. Panic handling
    /// mirrors [`UdfRegistry::eval_value`].
    pub fn eval_column(&self, name: &str, stats: &ColumnStats) -> bool {
        match self.try_eval_column(name, stats) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Panic-contained column-UDF evaluation (see
    /// [`UdfRegistry::try_eval_value`]).
    pub fn try_eval_column(&self, name: &str, stats: &ColumnStats) -> Result<bool, Error> {
        let key = name.to_lowercase();
        let Some(f) = self.column.get(&key) else {
            return Ok(false);
        };
        catch_unwind(AssertUnwindSafe(|| f(stats))).map_err(|_| Error::UdfPanic(key))
    }

    pub fn has_value_udf(&self, name: &str) -> bool {
        self.value.contains_key(&name.to_lowercase())
    }

    pub fn has_column_udf(&self, name: &str) -> bool {
        self.column.contains_key(&name.to_lowercase())
    }

    pub fn is_empty(&self) -> bool {
        self.value.is_empty() && self.column.is_empty()
    }

    /// Sorted names, for diagnostics and equality.
    fn names(&self) -> (Vec<&str>, Vec<&str>) {
        let mut v: Vec<&str> = self.value.keys().map(String::as_str).collect();
        let mut c: Vec<&str> = self.column.keys().map(String::as_str).collect();
        v.sort_unstable();
        c.sort_unstable();
        (v, c)
    }

    /// Which of `wanted_value`/`wanted_column` names are not registered.
    pub fn missing_names<'a>(
        &self,
        wanted_value: impl IntoIterator<Item = &'a str>,
        wanted_column: impl IntoIterator<Item = &'a str>,
    ) -> Vec<String> {
        let mut missing = Vec::new();
        for n in wanted_value {
            if !self.has_value_udf(n) {
                missing.push(format!("@{n} (value)"));
            }
        }
        for n in wanted_column {
            if !self.has_column_udf(n) {
                missing.push(format!("@{n} (column)"));
            }
        }
        missing
    }
}

// The scheduler's parallel validation engine evaluates UDF predicates from
// worker threads through a shared `&UdfRegistry`. The `Send + Sync` bounds
// on `ValueUdf`/`ColumnUdf` make that sound; prove it at the type level so
// a future unsynchronized closure type fails to compile here.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<UdfRegistry>();

// Manual Debug/PartialEq (by registered names only) so the registry can
// live inside constraint sets that derive both.
impl fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (v, c) = self.names();
        f.debug_struct("UdfRegistry")
            .field("value", &v)
            .field("column", &c)
            .finish()
    }
}

impl PartialEq for UdfRegistry {
    fn eq(&self, other: &UdfRegistry) -> bool {
        self.names() == other.names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> UdfRegistry {
        let mut r = UdfRegistry::new();
        r.register_value("is_positive", |v: &Value| {
            v.as_number().is_some_and(|x| x > 0.0)
        });
        r.register_column("mostly_non_null", |s: &ColumnStats| {
            s.null_count * 2 < s.row_count.max(1)
        });
        r
    }

    #[test]
    fn value_udf_evaluates() {
        let r = registry();
        assert!(r.eval_value("is_positive", &Value::Int(5)));
        assert!(!r.eval_value("is_positive", &Value::Int(-5)));
        assert!(!r.eval_value("is_positive", &Value::text("x")));
        assert!(!r.eval_value("is_positive", &Value::Null));
    }

    #[test]
    fn names_are_case_insensitive() {
        let r = registry();
        assert!(r.has_value_udf("IS_POSITIVE"));
        assert!(r.eval_value("Is_Positive", &Value::Int(1)));
    }

    #[test]
    fn unregistered_names_are_false() {
        let r = registry();
        assert!(!r.eval_value("nope", &Value::Int(1)));
    }

    #[test]
    fn missing_names_reports_only_gaps() {
        let r = registry();
        let missing = r.missing_names(["is_positive", "ghost"], ["mostly_non_null", "phantom"]);
        assert_eq!(missing, vec!["@ghost (value)", "@phantom (column)"]);
    }

    #[test]
    fn equality_is_by_name() {
        let a = registry();
        let mut b = UdfRegistry::new();
        b.register_value("is_positive", |_| true); // different body, same name
        b.register_column("mostly_non_null", |_| false);
        assert_eq!(a, b);
        let mut c = UdfRegistry::new();
        c.register_value("other", |_| true);
        assert_ne!(a, c);
    }

    #[test]
    fn debug_lists_names() {
        let r = registry();
        let s = format!("{r:?}");
        assert!(s.contains("is_positive") && s.contains("mostly_non_null"));
    }

    #[test]
    fn panicking_udf_is_contained_as_udf_panic() {
        let mut r = UdfRegistry::new();
        r.register_value("explodes", |_: &Value| -> bool {
            panic!("user bug: index out of bounds")
        });
        let err = r.try_eval_value("Explodes", &Value::Int(1)).unwrap_err();
        assert_eq!(err, Error::UdfPanic("explodes".to_string()));
        assert!(err.to_string().contains("@explodes"));
        // A healthy UDF in the same registry is unaffected afterwards.
        r.register_value("fine", |_: &Value| true);
        assert_eq!(r.try_eval_value("fine", &Value::Int(1)), Ok(true));
    }

    #[test]
    fn panicking_column_udf_is_contained() {
        let mut r = UdfRegistry::new();
        r.register_column("bad_stats", |_: &ColumnStats| -> bool {
            panic!("divide by zero")
        });
        let stats = ColumnStats {
            dtype: prism_db::DataType::Int,
            row_count: 0,
            null_count: 0,
            distinct_count: 0,
            min_num: None,
            max_num: None,
            min_text: None,
            max_text: None,
            max_text_len: None,
            histogram: None,
            most_common: Vec::new(),
            max_key_run: 0,
        };
        let err = r.try_eval_column("bad_stats", &stats).unwrap_err();
        assert_eq!(err, Error::UdfPanic("bad_stats".to_string()));
    }

    #[test]
    #[should_panic(expected = "UDF @explodes panicked")]
    fn bool_interface_reraises_with_the_udf_name() {
        let mut r = UdfRegistry::new();
        r.register_value("explodes", |_: &Value| -> bool { panic!("boom") });
        r.eval_value("explodes", &Value::Int(1));
    }
}
