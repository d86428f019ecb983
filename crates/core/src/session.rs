//! The demo workflow: Configuration → Description → Result (Figures 2–4).
//!
//! [`Session`] is the programmatic mirror of the web UI's three sections.
//! The `examples/interactive_demo.rs` binary drives it as a scripted CLI,
//! reproducing the demonstration walk-through of Section 3 step by step:
//! configure the source database and grid shape, type constraints into the
//! Description grid, hit "Start Searching!", then inspect SQL, pick
//! constraints, and render the explanation graph.

use crate::config::DiscoveryConfig;
use crate::constraints::TargetConstraints;
use crate::discovery::{Discovery, DiscoveryResult};
use crate::error::Error;
use crate::explain::{all_picks, explain, ConstraintPick, QueryGraph};
use prism_db::Database;
use prism_lang::UdfRegistry;

/// The Configuration section (Figure 2 / Section 3 step 1).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of columns in the target schema.
    pub target_columns: usize,
    /// Number of sample-constraint rows.
    pub sample_rows: usize,
    /// Whether the Description section offers a metadata row.
    pub with_metadata: bool,
    /// Engine configuration (time budget, scheduler, …).
    pub discovery: DiscoveryConfig,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            target_columns: 3,
            sample_rows: 1,
            with_metadata: true,
            discovery: DiscoveryConfig::default(),
        }
    }
}

/// The Description grid of one session, as raw text: sample cells plus the
/// optional metadata row, with the parse step that turns them into
/// [`TargetConstraints`]. Shared verbatim by the borrowed [`Session`] and
/// the owned [`crate::service::SessionHandle`] so both enforce identical
/// bounds and produce identical errors.
pub(crate) struct ConstraintGrid {
    target_columns: usize,
    sample_rows: usize,
    with_metadata: bool,
    grid: Vec<Vec<Option<String>>>,
    metadata: Vec<Option<String>>,
}

impl ConstraintGrid {
    pub(crate) fn new(config: &SessionConfig) -> ConstraintGrid {
        ConstraintGrid {
            target_columns: config.target_columns,
            sample_rows: config.sample_rows,
            with_metadata: config.with_metadata,
            grid: vec![vec![None; config.target_columns]; config.sample_rows],
            metadata: vec![None; config.target_columns],
        }
    }

    pub(crate) fn set_sample_cell(
        &mut self,
        row: usize,
        column: usize,
        text: String,
    ) -> Result<(), Error> {
        if row >= self.sample_rows || column >= self.target_columns {
            return Err(Error::OutOfRange { row, column });
        }
        self.grid[row][column] = if text.trim().is_empty() {
            None
        } else {
            Some(text)
        };
        Ok(())
    }

    pub(crate) fn set_metadata_cell(&mut self, column: usize, text: String) -> Result<(), Error> {
        if !self.with_metadata {
            return Err(Error::MetadataDisabled);
        }
        if column >= self.target_columns {
            return Err(Error::OutOfRange { row: 0, column });
        }
        self.metadata[column] = if text.trim().is_empty() {
            None
        } else {
            Some(text)
        };
        Ok(())
    }

    /// Parse the grid into constraints, resolving `@name` predicates
    /// against `udfs`.
    pub(crate) fn parse(&self, udfs: &UdfRegistry) -> Result<TargetConstraints, Error> {
        let constraints =
            TargetConstraints::parse(self.target_columns, &self.grid, &self.metadata)?
                .with_udfs(udfs.clone());
        let missing = constraints.missing_udfs();
        if !missing.is_empty() {
            return Err(Error::UnknownUdfs(missing));
        }
        Ok(constraints)
    }
}

/// One interactive schema-mapping session against a source database.
///
/// `Session` borrows its database; [`crate::service::DiscoveryService`]
/// hands out the owned, `Send` equivalent ([`crate::service::SessionHandle`])
/// for concurrent multi-session serving.
pub struct Session<'a> {
    engine: Discovery<'a>,
    config: SessionConfig,
    grid: ConstraintGrid,
    udfs: UdfRegistry,
    /// Parsed constraints of the last search.
    last_constraints: Option<TargetConstraints>,
    /// The Result section of the last search.
    last_result: Option<DiscoveryResult>,
}

impl<'a> Session<'a> {
    /// Step 1: choose the source database and configure the grid.
    pub fn new(db: &'a Database, config: SessionConfig) -> Session<'a> {
        Session {
            engine: Discovery::new(db, config.discovery.clone()),
            grid: ConstraintGrid::new(&config),
            config,
            udfs: UdfRegistry::new(),
            last_constraints: None,
            last_result: None,
        }
    }

    /// Register user-defined functions available to `@name` predicates.
    pub fn set_udfs(&mut self, udfs: UdfRegistry) {
        self.udfs = udfs;
    }

    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    pub fn database_name(&self) -> &str {
        self.engine.database().name()
    }

    /// Step 2: type into a cell of the Sample/Result Constraints grid.
    pub fn set_sample_cell(
        &mut self,
        row: usize,
        column: usize,
        text: impl Into<String>,
    ) -> Result<(), Error> {
        self.grid.set_sample_cell(row, column, text.into())
    }

    /// Step 2 (metadata row): type into a Metadata Constraints cell.
    pub fn set_metadata_cell(
        &mut self,
        column: usize,
        text: impl Into<String>,
    ) -> Result<(), Error> {
        self.grid.set_metadata_cell(column, text.into())
    }

    /// Step 3: hit "Start Searching!". Parses the grid, runs discovery, and
    /// stores the Result section.
    ///
    /// A faulting filter (a panicking UDF, an injected fault under
    /// `PRISM_FAULT`) does not abort the search: its candidates are
    /// abandoned, the Result section comes back with
    /// [`DiscoveryResult::degraded`] set and a fault report per affected
    /// filter, and every query listed is still fully validated. Use
    /// [`Session::degradation_notice`] for the user-facing banner.
    pub fn start_searching(&mut self) -> Result<&DiscoveryResult, Error> {
        let constraints = self.grid.parse(&self.udfs)?;
        let result = self.engine.run(&constraints);
        self.last_constraints = Some(constraints);
        self.last_result = Some(result);
        Ok(self.last_result.as_ref().expect("just stored"))
    }

    /// The Result section of the last search.
    pub fn result(&self) -> Option<&DiscoveryResult> {
        self.last_result.as_ref()
    }

    /// The Result section's degradation banner: `None` when the last
    /// search completed cleanly, `Some(text)` when faults or the watchdog
    /// reduced it to a sound subset (see
    /// [`DiscoveryResult::degradation_notice`]).
    pub fn degradation_notice(&self) -> Option<String> {
        self.last_result.as_ref()?.degradation_notice()
    }

    /// Step 4.1: the SQL text of one discovered query (Figure 4b).
    pub fn result_sql(&self, index: usize) -> Result<&str, Error> {
        let r = self.last_result.as_ref().ok_or(Error::NoSearchRun)?;
        r.queries
            .get(index)
            .map(|q| q.sql.as_str())
            .ok_or(Error::NoSuchResult(index))
    }

    /// Steps 4.2–4.3: the query graph of one discovered query with the
    /// chosen constraints drawn in (Figure 4c). `picks = None` draws all.
    pub fn explain_result(
        &self,
        index: usize,
        picks: Option<&[ConstraintPick]>,
    ) -> Result<QueryGraph, Error> {
        let r = self.last_result.as_ref().ok_or(Error::NoSearchRun)?;
        let q = r.queries.get(index).ok_or(Error::NoSuchResult(index))?;
        let constraints = self
            .last_constraints
            .as_ref()
            .expect("constraints stored with result");
        let owned_all;
        let picks = match picks {
            Some(p) => p,
            None => {
                owned_all = all_picks(constraints);
                &owned_all
            }
        };
        Ok(explain(
            self.engine.database(),
            &q.candidate,
            constraints,
            picks,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintError;
    use prism_datasets::mondial;

    /// The full Section 3 walk-through as a session script.
    #[test]
    fn section_3_walkthrough() {
        let db = mondial(42, 1);
        // Step 1: configure — Mondial, 3 columns, 1 sample, metadata on.
        let mut session = Session::new(&db, SessionConfig::default());
        assert_eq!(session.database_name(), "Mondial");
        // Step 2: describe.
        session
            .set_sample_cell(0, 0, "California || Nevada")
            .unwrap();
        session.set_sample_cell(0, 1, "Lake Tahoe").unwrap();
        session
            .set_metadata_cell(2, "DataType=='decimal' AND MinValue>='0'")
            .unwrap();
        // Step 3: search.
        let result = session.start_searching().unwrap();
        assert!(!result.queries.is_empty());
        // Step 4: view the first queries and explain them.
        let n = result.queries.len();
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        let idx = (0..n)
            .find(|&i| session.result_sql(i).unwrap() == want)
            .expect("desired query listed");
        let graph = session.explain_result(idx, None).unwrap();
        assert_eq!(graph.relations.len(), 2);
        assert_eq!(graph.constraints.len(), 3);
        // Step 4.3: picking a single constraint draws only it.
        let one = session
            .explain_result(
                idx,
                Some(&[ConstraintPick::Value {
                    sample: 0,
                    column: 1,
                }]),
            )
            .unwrap();
        assert_eq!(one.constraints.len(), 1);
        assert!(one.constraints[0].label.contains("Lake Tahoe"));
    }

    #[test]
    fn grid_bounds_are_enforced() {
        let db = mondial(42, 1);
        let mut session = Session::new(&db, SessionConfig::default());
        assert!(matches!(
            session.set_sample_cell(5, 0, "x"),
            Err(Error::OutOfRange { .. })
        ));
        assert!(matches!(
            session.set_metadata_cell(7, "DataType=='int'"),
            Err(Error::OutOfRange { .. })
        ));
    }

    #[test]
    fn metadata_can_be_disabled() {
        let db = mondial(42, 1);
        let mut session = Session::new(
            &db,
            SessionConfig {
                with_metadata: false,
                ..SessionConfig::default()
            },
        );
        assert!(matches!(
            session.set_metadata_cell(0, "DataType=='int'"),
            Err(Error::MetadataDisabled)
        ));
    }

    #[test]
    fn searching_without_constraints_fails_cleanly() {
        let db = mondial(42, 1);
        let mut session = Session::new(&db, SessionConfig::default());
        assert!(matches!(
            session.start_searching(),
            Err(Error::Constraint(_))
        ));
        assert!(session.result().is_none());
        assert!(session.result_sql(0).is_err());
    }

    #[test]
    fn clearing_a_cell_removes_the_constraint() {
        let db = mondial(42, 1);
        let mut session = Session::new(&db, SessionConfig::default());
        session.set_sample_cell(0, 0, "Lake Tahoe").unwrap();
        session.set_sample_cell(0, 0, "   ").unwrap();
        assert!(matches!(
            session.start_searching(),
            Err(Error::Constraint(ConstraintError::Empty))
        ));
    }

    #[test]
    fn bad_constraint_text_reports_cell() {
        let db = mondial(42, 1);
        let mut session = Session::new(&db, SessionConfig::default());
        session.set_sample_cell(0, 1, "a ||").unwrap();
        match session.start_searching() {
            Err(Error::Constraint(ConstraintError::Parse { row, column, .. })) => {
                assert_eq!(row, Some(0));
                assert_eq!(column, 1);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
