//! A session shaped like a mapping task's constraint grid, shared by this
//! crate's integration tests.

use prism_core::{DiscoveryConfig, DiscoveryService, SessionConfig, SessionHandle};

/// Opens a session on `svc` under `discovery` and types the task's sample
/// rows and metadata into its grid; `None` cells stay empty.
pub fn task_session(
    svc: &DiscoveryService,
    column_count: usize,
    samples: &[Vec<Option<String>>],
    metadata: &[Option<String>],
    discovery: DiscoveryConfig,
) -> SessionHandle {
    let mut session = svc.open_session(SessionConfig {
        target_columns: column_count,
        sample_rows: samples.len(),
        with_metadata: true,
        discovery,
    });
    for (r, row) in samples.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if let Some(text) = cell {
                session.set_sample_cell(r, c, text.clone()).unwrap();
            }
        }
    }
    for (c, meta) in metadata.iter().enumerate() {
        if let Some(text) = meta {
            session.set_metadata_cell(c, text.clone()).unwrap();
        }
    }
    session
}
