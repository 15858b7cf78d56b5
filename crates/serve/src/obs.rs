//! Service-layer metrics published through the `bcbpt-obs` global
//! registry.
//!
//! Spool I/O latency is global (one distribution per process — latency is
//! a property of the disk, not of a server instance). Per-server counts
//! (request counters, queue gauges, cache hits) live on each
//! [`Server`](crate::Server)'s own registry instead, so co-resident test
//! servers keep independent `/stats`; see `ServerMetrics` in `server.rs`.

use bcbpt_obs::WallHistogram;
use std::sync::{Arc, OnceLock};

/// Wall-clock latency of one spool read (outcome, events, checkpoint or
/// job record; misses are timed too — they are the fast path).
pub(crate) fn spool_read_seconds() -> &'static Arc<WallHistogram> {
    static H: OnceLock<Arc<WallHistogram>> = OnceLock::new();
    H.get_or_init(|| {
        bcbpt_obs::global().histogram(
            "bcbpt_serve_spool_read_seconds",
            "Wall-clock latency of one spool file read",
        )
    })
}

/// Wall-clock latency of one spool write: an atomic file (temp file +
/// rename) or one record appended to a checkpoint journal.
pub(crate) fn spool_write_seconds() -> &'static Arc<WallHistogram> {
    static H: OnceLock<Arc<WallHistogram>> = OnceLock::new();
    H.get_or_init(|| {
        bcbpt_obs::global().histogram(
            "bcbpt_serve_spool_write_seconds",
            "Wall-clock latency of one spool write (atomic file or journal append)",
        )
    })
}

/// Touches every process-global metric the service contributes, plus the
/// sim/runner/shard metrics underneath it, so `/metrics` lists the full
/// set from the first scrape.
pub fn register_metrics() {
    bcbpt_core::obs::register_metrics();
    let _ = spool_read_seconds();
    let _ = spool_write_seconds();
}
