//! # simrunner — parallel experiment-campaign orchestration
//!
//! Every evaluation artifact in the paper is a grid — scenarios × flow
//! sizes × congestion controllers × seeds — and each grid cell is one
//! deterministic, independent simulation. This crate owns running such
//! grids fast:
//!
//! * [`Campaign`] expands an experiment into [`Cell`]s — one simulation
//!   each, identified by a label, a canonical parameter string, and a
//!   seed;
//! * [`Campaign::run`] hands the campaign to the [`Executor`] built by
//!   [`RunnerOpts::executor`] ([`exec`]), which runs the engine the
//!   options' [`ExecSpec`] selects: the deterministic token-tracked
//!   thread pool (the default — panic isolation, bounded retries,
//!   wall-clock and progress-stall watchdogs, flight-recorder crash
//!   dumps), or the sharded path (a single shard, the coordinator, or a
//!   merge of written shard manifests) that splits a campaign across
//!   processes sharing one cache and merges the shard manifests back
//!   into a single [`RunManifest`]. The coordinator is self-healing:
//!   shard children write heartbeat files ([`Heartbeat`]) monitored
//!   under a stall-aware lease ([`LeaseClock`]), a dead shard is
//!   restarted with bounded backoff, and whatever still has no usable
//!   manifest at merge time has its remaining cells reassigned inline
//!   through the warm shared cache. All engines commit results by cell
//!   index, so the aggregated output is **byte-identical regardless of
//!   engine, worker count, scheduling order, or shard count** — the core
//!   invariant, enforced by regression tests;
//! * failures follow [`FailurePolicy`]: raise on first terminal failure
//!   (the default) or record — the campaign completes, failed cells
//!   come back as `None`, and their [`CellStatus`] and terminal error
//!   land in the manifest. Failures are never cached, so a re-run
//!   against the warm cache re-executes exactly the failed cells;
//! * results are memoized in a content-addressed cache ([`cache`]) keyed
//!   by a stable hash of (experiment id, version tag, cell params, seed).
//!   The key is shard-independent, which is what lets N shard processes
//!   share one cache dir and the coordinator reassemble the full result
//!   set afterwards;
//! * every run produces a serde-derived [`RunManifest`] (workers, wall
//!   time, cache hits/misses, per-cell timings, a results digest and a
//!   content fingerprint) that the figure binaries write next to their
//!   `results/*.txt` artifacts;
//! * progress (cells done / total, cells/sec, ETA) streams to stderr
//!   ([`progress`]).
//!
//! ## Example
//!
//! ```
//! use simrunner::{Campaign, RunnerOpts};
//!
//! let mut c = Campaign::new("demo", "v1");
//! for seed in 0..8 {
//!     c.cell(format!("cell-{seed}"), format!("x={seed}"), seed);
//! }
//! let out = c.run(&RunnerOpts::default().executor(), |cell| cell.seed as f64 * 2.0);
//! assert_eq!(out.results[3], Some(6.0));
//! assert_eq!(out.manifest.total_cells, 8);
//! assert_eq!(out.expect_all()[3], 6.0);
//! ```
//!
//! ## Distributed campaigns
//!
//! ```no_run
//! use simrunner::{Campaign, ExecSpec, RunnerOpts};
//!
//! let mut c = Campaign::new("demo", "v1");
//! for seed in 0..28 {
//!     c.cell(format!("cell-{seed}"), format!("x={seed}"), seed);
//! }
//! // Split into 2 shards against a shared cache; in-process here, or
//! // pass `argv: Some(...)` to re-exec the current binary per shard
//! // (`SUSS_SHARD=k/N` in each child selects its slice).
//! let opts = RunnerOpts::default()
//!     .with_cache("/tmp/suss-cache")
//!     .with_executor(ExecSpec::Coordinator { shards: 2, argv: None });
//! let out = c.run(&opts.executor(), |cell| cell.seed as f64);
//! assert_eq!(out.manifest.total_cells, 28);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod campaign;
pub mod exec;
pub mod manifest;
pub mod pool;
pub mod progress;

pub use cache::{sweep_lru, Cache, CellIdentity, SweepStats};
pub use campaign::{
    parse_bytes, Campaign, CampaignReport, Cell, ExecSpec, FailurePolicy, RunnerOpts,
};
pub use exec::{Executor, LeaseClock, SHARD_FAILED_EXIT};
pub use manifest::{
    shard_heartbeat_path, shard_manifest_path, CellRecord, CellStatus, FctAnnotation, RunManifest,
    ShardInfo,
};
pub use progress::{read_heartbeat, Heartbeat, HeartbeatRecord};

/// FNV-1a 64-bit hash over a byte string — the stable content hash behind
/// cache keys. Stable across platforms, processes, and releases (never
/// replace with `DefaultHasher`, whose output is randomized per process).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Pinned values: changing the hash silently invalidates every
        // cache on disk, so make that an explicit decision.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
