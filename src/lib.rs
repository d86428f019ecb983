//! # prism — multiresolution schema mapping (facade crate)
//!
//! Re-exports the full public API of the Prism reproduction. See the README
//! for a tour; [`DiscoveryService`] is the one entry point, running rounds
//! directly or through owned, concurrent [`SessionHandle`]s.

pub use prism_bayes as bayes;
pub use prism_core as core;
pub use prism_datasets as datasets;
pub use prism_db as db;
pub use prism_lang as lang;

pub use prism_core::{DiscoveryService, Error, SessionHandle};
