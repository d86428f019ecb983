//! The demo workflow: Configuration → Description → Result (Figures 2–4).
//!
//! [`SessionHandle`] is the programmatic mirror of the web UI's three
//! sections; [`crate::service::DiscoveryService::open_session`] hands it
//! out. The `examples/interactive_demo.rs` binary drives it as a scripted
//! CLI, reproducing the demonstration walk-through of Section 3 step by
//! step: configure the source database and grid shape, type constraints
//! into the Description grid, hit "Start Searching!", then inspect SQL,
//! pick constraints, and render the explanation graph.

use crate::config::DiscoveryConfig;
use crate::constraints::TargetConstraints;
use crate::discovery::{DiscoveredQuery, DiscoveryResult};
use crate::error::Error;
use crate::explain::{all_picks, explain, ConstraintPick, QueryGraph};
use crate::service::ServiceCore;
use prism_lang::UdfRegistry;
use std::sync::Arc;

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

/// One interactive schema-mapping session: the Configuration →
/// Description → Result workflow over a
/// [`crate::service::DiscoveryService`]. A handle owns its grid and its
/// last result and shares everything else with its service, so it is
/// `Send` and runs on any thread while its siblings run on others.
pub struct SessionHandle {
    svc: Arc<ServiceCore>,
    id: u64,
    config: SessionConfig,
    udfs: UdfRegistry,
    /// The Description grid as typed: `sample_rows × target_columns`
    /// sample cells and one metadata cell per target column.
    samples: Vec<Vec<Option<String>>>,
    metadata: Vec<Option<String>>,
    /// The last search: its parsed constraints and its Result section.
    last: Option<(TargetConstraints, DiscoveryResult)>,
}

// A handle must be movable into worker threads (the whole point of the
// owned design); everything it shares is behind `Arc` + `Sync` types.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<SessionHandle>();

impl SessionHandle {
    /// Step 1: a session over `svc` with the grid `config` shapes.
    pub(crate) fn new(svc: Arc<ServiceCore>, id: u64, config: SessionConfig) -> SessionHandle {
        SessionHandle {
            svc,
            id,
            udfs: UdfRegistry::new(),
            samples: vec![vec![None; config.target_columns]; config.sample_rows],
            metadata: vec![None; config.target_columns],
            config,
            last: None,
        }
    }

    /// Service-unique session id (allocation order).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    pub fn database_name(&self) -> &str {
        self.svc.db.name()
    }

    /// Register user-defined functions available to `@name` predicates.
    pub fn set_udfs(&mut self, udfs: UdfRegistry) {
        self.udfs = udfs;
    }

    /// Step 2: type into a cell of the Sample/Result Constraints grid.
    /// Blank text clears the cell.
    pub fn set_sample_cell(
        &mut self,
        row: usize,
        column: usize,
        text: impl Into<String>,
    ) -> Result<(), Error> {
        let cell = self
            .samples
            .get_mut(row)
            .and_then(|r| r.get_mut(column))
            .ok_or(Error::OutOfRange { row, column })?;
        *cell = non_blank(text.into());
        Ok(())
    }

    /// Step 2 (metadata row): type into a Metadata Constraints cell.
    pub fn set_metadata_cell(
        &mut self,
        column: usize,
        text: impl Into<String>,
    ) -> Result<(), Error> {
        if !self.config.with_metadata {
            return Err(Error::MetadataDisabled);
        }
        let cell = self
            .metadata
            .get_mut(column)
            .ok_or(Error::OutOfRange { row: 0, column })?;
        *cell = non_blank(text.into());
        Ok(())
    }

    /// Step 3: "Start Searching!". Parses the grid, resolving `@name`
    /// predicates against the session's UDFs, runs one round on the
    /// service under the session's engine configuration, and stores the
    /// Result section.
    ///
    /// A faulting filter (a panicking UDF, or an injected fault armed by
    /// [`crate::DiscoveryConfig::faults`]) does not abort the search: its
    /// candidates are abandoned, the Result section comes back with
    /// [`DiscoveryResult::degraded`] set and a fault report per affected
    /// filter, and every query listed is still fully validated
    /// ([`DiscoveryResult::degradation_notice`] renders the banner). A
    /// panic in the round coordinator itself degrades this session alone.
    pub fn start_searching(&mut self) -> Result<&DiscoveryResult, Error> {
        let constraints =
            TargetConstraints::parse(self.config.target_columns, &self.samples, &self.metadata)?
                .with_udfs(self.udfs.clone());
        let missing = constraints.missing_udfs();
        if !missing.is_empty() {
            return Err(Error::UnknownUdfs(missing));
        }
        let result = self.svc.round(&self.config.discovery, &constraints);
        let (_, result) = self.last.insert((constraints, result));
        Ok(result)
    }

    /// The Result section of the last search.
    pub fn result(&self) -> Option<&DiscoveryResult> {
        self.last.as_ref().map(|(_, result)| result)
    }

    /// Step 4.1: the SQL text of one discovered query (Figure 4b).
    pub fn result_sql(&self, index: usize) -> Result<&str, Error> {
        Ok(&self.last_query(index)?.1.sql)
    }

    /// Steps 4.2–4.3: the query graph of one discovered query with the
    /// chosen constraints drawn in (Figure 4c). `picks = None` draws all.
    pub fn explain_result(
        &self,
        index: usize,
        picks: Option<&[ConstraintPick]>,
    ) -> Result<QueryGraph, Error> {
        let (constraints, q) = self.last_query(index)?;
        let owned_all;
        let picks = match picks {
            Some(p) => p,
            None => {
                owned_all = all_picks(constraints);
                &owned_all
            }
        };
        Ok(explain(&self.svc.db, &q.candidate, constraints, picks))
    }

    /// Query `index` of the last search, with that search's constraints.
    fn last_query(&self, index: usize) -> Result<(&TargetConstraints, &DiscoveredQuery), Error> {
        let (constraints, result) = self.last.as_ref().ok_or(Error::NoSearchRun)?;
        let q = result
            .queries
            .get(index)
            .ok_or(Error::NoSuchResult(index))?;
        Ok((constraints, q))
    }
}

/// A typed cell's text, or `None` when it is blank.
fn non_blank(text: String) -> Option<String> {
    (!text.trim().is_empty()).then_some(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintError;
    use crate::scheduler::SchedulerKind;
    use crate::service::DiscoveryService;
    use prism_datasets::mondial;

    /// A session on Mondial. The grid tests never search, so the service
    /// skips training the Bayesian estimator.
    fn session(config: SessionConfig) -> SessionHandle {
        let engine = DiscoveryConfig::with_scheduler(SchedulerKind::PathLength);
        DiscoveryService::new(Arc::new(mondial(42, 1)), engine).open_session(config)
    }

    #[test]
    fn grid_bounds_are_enforced() {
        let mut session = session(SessionConfig::default());
        assert!(matches!(
            session.set_sample_cell(5, 0, "x"),
            Err(Error::OutOfRange { .. })
        ));
        assert!(matches!(
            session.set_sample_cell(0, 3, "x"),
            Err(Error::OutOfRange { row: 0, column: 3 })
        ));
        assert!(matches!(
            session.set_metadata_cell(7, "DataType=='int'"),
            Err(Error::OutOfRange { .. })
        ));
    }

    #[test]
    fn metadata_can_be_disabled() {
        let mut session = session(SessionConfig {
            with_metadata: false,
            ..SessionConfig::default()
        });
        assert!(matches!(
            session.set_metadata_cell(0, "DataType=='int'"),
            Err(Error::MetadataDisabled)
        ));
    }

    #[test]
    fn searching_without_constraints_fails_cleanly() {
        let mut session = session(SessionConfig::default());
        assert!(matches!(
            session.start_searching(),
            Err(Error::Constraint(_))
        ));
        assert!(session.result().is_none());
        assert!(matches!(session.result_sql(0), Err(Error::NoSearchRun)));
        assert!(matches!(
            session.explain_result(0, None),
            Err(Error::NoSearchRun)
        ));
    }

    #[test]
    fn clearing_a_cell_removes_the_constraint() {
        let mut session = session(SessionConfig::default());
        session.set_sample_cell(0, 0, "Lake Tahoe").unwrap();
        session.set_sample_cell(0, 0, "   ").unwrap();
        assert!(matches!(
            session.start_searching(),
            Err(Error::Constraint(ConstraintError::Empty))
        ));
    }

    #[test]
    fn bad_constraint_text_reports_cell() {
        let mut session = session(SessionConfig::default());
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
