//! The pluggable congestion-control interface, shared by both transports.
//!
//! Modeled on the controller traits of userspace QUIC stacks (quinn's
//! `congestion::Controller`): the transport owns reliability and delivery,
//! the controller owns the congestion window and pacing rate, and the two
//! communicate through per-ACK / per-loss callbacks. Everything SUSS needs
//! (ACK sequence positions, `snd_nxt`, timers for its guarded pacing
//! window) flows through this trait, which is what makes the paper's
//! algorithm portable to a real QUIC implementation.
//!
//! The TCP-like transport (`tcp-sim`) drives this trait directly with
//! sequence-space views; the QUIC-like transport (`quic-sim`) drives it
//! through `cc_algos::QuicAdapter`, which rebuilds the same views from
//! byte counters.

use crate::Nanos;
use std::time::Duration;

/// Everything a controller may inspect when an ACK arrives.
///
/// The transport calls [`CongestionControl::on_ack`] *before* transmitting
/// any data in response to the ACK, and before applying the controller's
/// new window — so `snd_nxt` and `inflight` reflect the pre-ACK world.
#[derive(Debug, Clone, Copy)]
pub struct AckView {
    /// Arrival time.
    pub now: Nanos,
    /// Cumulative ACK sequence (one past last in-order byte).
    pub ack_seq: u64,
    /// Bytes newly acknowledged by this ACK (cumulative + SACK).
    pub newly_acked: u64,
    /// RTT sample from this ACK, if valid (Karn-filtered).
    pub rtt_sample: Option<Duration>,
    /// Transport's smoothed RTT.
    pub srtt: Option<Duration>,
    /// Transport's lifetime minimum RTT.
    pub min_rtt: Option<Duration>,
    /// Bytes in flight *before* this ACK was applied.
    pub inflight: u64,
    /// One past the highest byte sent so far.
    pub snd_nxt: u64,
    /// Total bytes delivered (cumulatively acknowledged) including this ACK.
    pub delivered: u64,
    /// The sender had no data waiting when it last could have sent
    /// (controllers should not grow the window on app-limited samples).
    pub app_limited: bool,
}

/// A congestion (loss) event, reported once per recovery episode.
#[derive(Debug, Clone, Copy)]
pub struct LossView {
    /// Detection time.
    pub now: Nanos,
    /// How the loss was detected.
    pub kind: LossKind,
    /// Bytes currently deemed lost.
    pub lost_bytes: u64,
    /// Bytes in flight at detection.
    pub inflight: u64,
}

/// Loss detection mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Triple duplicate ACK / SACK threshold (fast retransmit).
    FastRetransmit,
    /// Retransmission timeout.
    Timeout,
}

/// A pluggable congestion controller.
///
/// Implementations own `cwnd` (in bytes) and optionally a pacing rate and
/// an internal timer (used by SUSS for its guard/pacing windows and by BBR
/// for ProbeRTT scheduling).
pub trait CongestionControl {
    /// Short algorithm name for traces and tables (e.g. `"cubic+suss"`).
    fn name(&self) -> &'static str;

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Whether the controller is in its exponential-growth phase.
    fn in_slow_start(&self) -> bool;

    /// A cumulative/SACK acknowledgment arrived.
    fn on_ack(&mut self, ack: &AckView);

    /// A loss episode was detected (at most once per episode).
    fn on_congestion_event(&mut self, loss: &LossView);

    /// Data was transmitted (`bytes` on the wire, new or retransmit).
    fn on_sent(&mut self, _now: Nanos, _bytes: u64, _snd_nxt: u64) {}

    /// Current pacing rate in bytes/sec; `None` = unpaced (ACK clocking).
    fn pacing_rate(&self) -> Option<f64> {
        None
    }

    /// When the controller next needs [`Self::on_timer`] called, if ever.
    /// Re-queried after every callback; returning a time at or before
    /// "now" fires immediately.
    fn next_timer(&self) -> Option<Nanos> {
        None
    }

    /// The timer requested via [`Self::next_timer`] fired.
    fn on_timer(&mut self, _now: Nanos) {}

    /// Diagnostic: the slow-start threshold, if meaningful.
    fn ssthresh(&self) -> Option<u64> {
        None
    }

    /// Drain controller-generated events for the connection trace.
    /// Called by the transport after every callback.
    fn take_events(&mut self) -> Vec<CcEvent> {
        Vec::new()
    }

    /// Attach metric handles from the owning simulation's registry.
    /// Called once when the endpoint is wired into a simulation.
    /// Controllers with internal state machines (SUSS) register their own
    /// counters here; the default registers nothing.
    fn bind_metrics(&mut self, _registry: &simtrace::Registry) {}
}

/// Events a controller reports into the connection trace.
///
/// Together these form the CC *decision* catalogue: each records one
/// discrete choice the controller made (not per-ACK state — the sample
/// stream carries that), with a short static `reason` code saying why.
/// Reason codes are part of the trace contract; the full table lives in
/// DESIGN.md §9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcEvent {
    /// A SUSS pacing period began with growth factor `g`.
    SussPacingStarted {
        /// The measured growth factor G.
        g: u32,
    },
    /// The congestion window was reset by a decision (loss response,
    /// timeout collapse). Routine per-ACK growth is *not* reported.
    CwndChanged {
        /// The new congestion window in bytes.
        cwnd: u64,
        /// Decision code, e.g. `loss`, `timeout`.
        reason: &'static str,
    },
    /// The slow-start threshold moved.
    SsthreshChanged {
        /// The new threshold in bytes.
        ssthresh: u64,
        /// Decision code, e.g. `loss`, `hystart_delay`, `suss_exit`.
        reason: &'static str,
    },
    /// The pacing rate changed (0 = pacing stopped).
    PacingRateChanged {
        /// The new rate in bits per second.
        rate_bps: u64,
        /// Decision code, e.g. `suss_pacing`, `suss_cancel`.
        reason: &'static str,
    },
    /// SUSS finished estimating a slow-start round.
    SussRound {
        /// The 1-based slow-start round index.
        round: u32,
        /// The growth estimate `k` for that round.
        k: u32,
    },
    /// A HyStart / HyStart++ phase transition.
    HystartPhase {
        /// The phase entered: `css`, `slow_start`, or `exit`.
        phase: &'static str,
        /// Trigger code, e.g. `rtt_rise`, `false_positive`, `css_confirmed`.
        reason: &'static str,
    },
}
