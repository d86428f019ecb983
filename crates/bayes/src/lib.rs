//! # prism-bayes — Bayesian models for filter scheduling
//!
//! Section 2.3 of the Prism paper: *"we estimate the filter probability
//! using Bayesian models trained a priori for the source database. A
//! Bayesian model is able to give an estimated probability of a certain
//! record matching the sample constraint exists. … learning a model
//! capturing the correlations among multiple relations … is solved by using
//! the join indicator introduced by Getoor et al."*
//!
//! The demo paper defers the exact formulation to a "future paper", so this
//! crate implements the construction the paper cites:
//!
//! * **Per-relation models** — tree-structured Bayesian networks learned
//!   with the Chow–Liu algorithm (maximum spanning tree over pairwise
//!   mutual information of discretized columns), with Laplace-smoothed
//!   CPTs. These capture intra-relation attribute correlation, e.g. that
//!   `Province = 'California'` and `Country = 'USA'` co-occur.
//! * **Join indicators** — per join edge, the probability that a random
//!   tuple pair joins (`|R ⋈ S| / (|R|·|S|)`) together with a sampled set of
//!   joined pairs used to measure how predicates on the two sides correlate
//!   *given* that the tuples join (Getoor et al., SIGMOD 2001).
//!
//! [`BayesEstimator`] combines both into the quantity the scheduler needs:
//! the expected number of result tuples of a filter's join tree that satisfy
//! the sample constraint, and from it the filter **failure probability**
//! `P(fail) = exp(-E[matches])` (the Poisson zero-class approximation).

pub mod discretize;
pub mod estimator;
pub mod join_indicator;
pub mod model;

pub use discretize::Discretizer;
pub use estimator::{BayesEstimator, TrainConfig};
pub use join_indicator::{JoinIndicator, Side};
pub use model::RelationModel;
