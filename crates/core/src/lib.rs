//! # prism-core — multiresolution schema mapping query discovery
//!
//! This crate is the paper's primary contribution: given a source
//! [`prism_db::Database`] and a set of **multiresolution constraints**
//! (exact sample values, disjunctions, value ranges, column metadata — see
//! [`prism_lang`]), synthesize every Project–Join query whose result
//! satisfies all of them.
//!
//! Discovery follows the two-step architecture of Section 2.3:
//!
//! 1. **Candidate discovery** ([`related`], [`candidates`]) — find *related
//!    columns* (columns matching at least one value or metadata constraint,
//!    answered by the inverted index and the statistics store), then walk
//!    the schema graph enumerating join trees that connect a full
//!    assignment of target columns to related columns.
//! 2. **Validation through filters** ([`filters`], [`validate`],
//!    [`scheduler`]) — decompose each candidate into *filters* (sub-join-tree
//!    PJ queries with the sample constraint restricted to their columns),
//!    dedupe filters shared across candidates, and validate them in an order
//!    chosen by a pluggable scheduler. A failed filter kills every candidate
//!    containing it; a satisfied filter certifies all of its sub-filters for
//!    free. Schedulers: [`scheduler::SchedulerKind::PathLength`] is the
//!    baseline of Shen et al. (the paper's "Filter"), `Bayes` uses the
//!    trained [`prism_bayes::BayesEstimator`], `Oracle` computes the
//!    hindsight optimum, `Naive` skips decomposition entirely.
//!
//! Greedy schedulers run one loop whose batch width is
//! [`config::DiscoveryConfig::validation_threads`]. Width 1 validates one
//! filter per round inline on the calling thread; wider batches of
//! mutually non-implying filters go to the [`parallel`] validation engine,
//! a scoped worker pool over the frozen database. Every width provably
//! accepts the identical candidate set.
//!
//! [`DiscoveryService`] is the one entry point: it runs both steps under
//! an interactive time budget (the demo's 60-second limit), directly with
//! [`DiscoveryService::run`] or through the owned [`SessionHandle`]s of
//! [`session`], which mirror the demo UI's Configuration / Description /
//! Result workflow. [`explain`] renders the Figure-4c query graphs.

pub mod candidates;
pub mod config;
pub mod constraints;
pub mod discovery;
pub mod error;
pub mod explain;
pub mod faults;
pub mod filters;
pub mod parallel;
pub mod related;
pub mod scheduler;
pub mod service;
pub mod session;
pub mod validate;

pub use candidates::Candidate;
pub use config::DiscoveryConfig;
pub use constraints::TargetConstraints;
pub use discovery::{DiscoveredQuery, DiscoveryResult, DiscoveryStats};
pub use error::Error;
pub use explain::QueryGraph;
pub use faults::{FaultKind, FaultReport, FaultSpec, SlotVerdict};
pub use filters::{Filter, FilterId, FilterSet, PlanCacheStats};
pub use related::RelatedColumns;
pub use scheduler::{Engine, FaultedFilter, SchedCtx, Scheduler, SchedulerKind};
pub use service::{DiscoveryService, ThreadBudget};
pub use session::{SessionConfig, SessionHandle};
