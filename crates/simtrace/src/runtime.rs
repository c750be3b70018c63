//! Thread-local per-cell runtime accounting.
//!
//! A campaign worker cannot see inside the closure it runs, so the
//! simulation reports its own effort here: after a run completes, the
//! experiment layer calls [`add_cell_events`] with the number of simulator
//! events dispatched, and the campaign runner brackets each cell with
//! [`take_cell_events`] to attribute the count to that cell. Both sides
//! touch only a thread-local `Cell`, so the accounting is free of
//! synchronization and safe with any number of workers.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    static CELL_EVENTS: Cell<u64> = const { Cell::new(0) };
    static PROGRESS_SINK: RefCell<Option<Arc<AtomicU64>>> = const { RefCell::new(None) };
    static SCOPE_ANNOTATIONS: RefCell<Vec<ScopeAnnotation>> = const { RefCell::new(Vec::new()) };
}

/// A percentile summary of one scoped time-series (queue depth, link
/// utilization, sojourn time), reported by the cell that sampled it and
/// folded into the run manifest next to the FCT annotations — which have
/// the same shape, so `simrunner` exports this struct as `FctAnnotation`.
///
/// Lives here rather than in the stats crate so the experiment layer can
/// hand summaries to the campaign runner without a dependency cycle; it
/// carries plain numbers, not the histogram that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeAnnotation {
    /// What was sampled, e.g. `scope/<cell label>/queue_depth`.
    pub label: String,
    /// Number of samples summarized.
    pub n: u64,
    /// 50th percentile (units depend on the series; seconds for depth and
    /// sojourn, a 0–1 fraction for utilization).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

/// Queue a scope summary for the cell currently running on this thread.
/// No-op outside a campaign (the annotation is simply never taken).
pub fn add_scope_annotation(a: ScopeAnnotation) {
    SCOPE_ANNOTATIONS.with(|s| s.borrow_mut().push(a));
}

/// Take and reset this thread's queued scope annotations. Campaign
/// workers call this after each cell, pairing with [`take_cell_events`].
pub fn take_scope_annotations() -> Vec<ScopeAnnotation> {
    SCOPE_ANNOTATIONS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Credit `n` simulator events to the cell currently running on this
/// thread. No-op outside a campaign (the count is simply never taken).
pub fn add_cell_events(n: u64) {
    CELL_EVENTS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Take and reset this thread's event count. Campaign workers call this
/// after each cell; calling it before running a cell discards leftovers
/// from unrelated work on the same thread.
pub fn take_cell_events() -> u64 {
    CELL_EVENTS.with(|c| c.replace(0))
}

/// Install a liveness heartbeat for work running on this thread, or clear
/// it with `None`.
///
/// While a sink is installed, [`tick_progress`] bumps the shared counter; a
/// campaign watchdog on another thread reads it to distinguish a slow cell
/// (counter advancing) from a livelocked one (counter frozen). The simulator
/// ticks from its dispatch loop, so any cell built on `netsim` gets livelock
/// detection for free.
pub fn set_progress_sink(sink: Option<Arc<AtomicU64>>) {
    PROGRESS_SINK.with(|s| *s.borrow_mut() = sink);
}

/// Signal that work on this thread is still making progress. No-op when no
/// sink is installed (the common, non-campaign case).
pub fn tick_progress() {
    PROGRESS_SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            sink.fetch_add(1, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_resets() {
        take_cell_events();
        add_cell_events(3);
        add_cell_events(4);
        assert_eq!(take_cell_events(), 7);
        assert_eq!(take_cell_events(), 0);
    }

    #[test]
    fn progress_ticks_only_with_a_sink() {
        tick_progress(); // no sink installed: must not panic
        let sink = Arc::new(AtomicU64::new(0));
        set_progress_sink(Some(sink.clone()));
        tick_progress();
        tick_progress();
        set_progress_sink(None);
        tick_progress();
        assert_eq!(sink.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn scope_annotations_queue_and_reset() {
        take_scope_annotations();
        add_scope_annotation(ScopeAnnotation {
            label: "scope/x/queue_depth".into(),
            n: 10,
            p50: 0.001,
            p90: 0.002,
            p99: 0.003,
            p999: 0.004,
        });
        let taken = take_scope_annotations();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].label, "scope/x/queue_depth");
        assert!(take_scope_annotations().is_empty());
    }

    #[test]
    fn threads_are_independent() {
        take_cell_events();
        add_cell_events(5);
        let other = std::thread::spawn(|| {
            add_cell_events(1);
            take_cell_events()
        })
        .join()
        .unwrap();
        assert_eq!(other, 1);
        assert_eq!(take_cell_events(), 5);
    }
}
