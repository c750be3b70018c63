//! A quinn-shaped QUIC congestion-controller adapter.
//!
//! The reproduction target for SUSS is "port into userspace QUIC
//! congestion control". quinn's `congestion::Controller` sees times, byte
//! counts and app-limited flags — no TCP sequence numbers. [`QuicAdapter`]
//! takes exactly those inputs and drives any of this crate's controllers,
//! proving that SUSS's requirements are satisfiable from the information a
//! QUIC stack exposes:
//!
//! * **round delimiting** — QUIC has no cumulative ACK sequence, but the
//!   monotone *delivered-bytes* counter is an exact substitute: SUSS's
//!   `ack_seq`/`snd_nxt` become `total_acked`/`total_sent`;
//! * **RTT samples** — provided per ACK by the QUIC loss detector;
//! * **pacing** — quinn paces from the window and pacing hooks; the
//!   wrapped controller's `pacing_rate()` is read through
//!   [`QuicAdapter::inner`].
//!
//! Only the three callbacks whose arguments differ from
//! [`CongestionControl`]'s live on the adapter; everything else (window,
//! pacing rate, timers, decision events) is the wrapped controller's own
//! method, reached through [`QuicAdapter::inner`] / [`QuicAdapter::inner_mut`].

use std::time::Duration;
use suss_core::cc::{AckView, CongestionControl, LossKind, LossView};
use suss_core::Nanos;

/// The RTT information quinn hands its controllers.
#[derive(Debug, Clone, Copy)]
pub struct QuicRtt {
    /// Latest sample.
    pub latest: Duration,
    /// Smoothed RTT.
    pub smoothed: Duration,
    /// Minimum observed RTT.
    pub min: Duration,
}

/// Drives a [`CongestionControl`] (including `CubicSuss`) with quinn's
/// byte-count/time callbacks, reconstructing the sequence-space view the
/// controller expects from two byte counters.
pub struct QuicAdapter {
    inner: Box<dyn CongestionControl>,
    total_sent: u64,
    total_acked: u64,
}

impl QuicAdapter {
    /// Wrap a controller.
    pub fn new(inner: Box<dyn CongestionControl>) -> Self {
        QuicAdapter {
            inner,
            total_sent: 0,
            total_acked: 0,
        }
    }

    /// The wrapped controller: window, pacing rate, timer and phase
    /// queries.
    pub fn inner(&self) -> &dyn CongestionControl {
        self.inner.as_ref()
    }

    /// Mutable access to the wrapped controller: timers, decision events,
    /// metric binding.
    pub fn inner_mut(&mut self) -> &mut dyn CongestionControl {
        self.inner.as_mut()
    }

    /// Packet(s) carrying `bytes` were newly acknowledged.
    ///
    /// `sent` is the (earliest) send time of the acknowledged packets,
    /// `app_limited` whether the path was under-utilized when they were
    /// sent, and `rtt` the loss-detector's current estimates.
    pub fn on_ack(
        &mut self,
        now: Nanos,
        sent: Nanos,
        bytes: u64,
        app_limited: bool,
        rtt: &QuicRtt,
    ) {
        self.total_acked += bytes;
        let inflight = self.total_sent.saturating_sub(self.total_acked);
        self.inner.on_ack(&AckView {
            now,
            // Delivered-bytes counters stand in for TCP sequence space:
            // both are monotone and round-delimit identically.
            ack_seq: self.total_acked,
            newly_acked: bytes,
            rtt_sample: (sent <= now).then_some(rtt.latest),
            srtt: Some(rtt.smoothed),
            min_rtt: Some(rtt.min),
            inflight,
            snd_nxt: self.total_sent,
            delivered: self.total_acked,
            app_limited,
        });
    }

    /// A congestion event (loss or ECN-CE) was detected. Persistent
    /// congestion maps to a timeout, anything else to fast retransmit.
    pub fn on_congestion_event(
        &mut self,
        now: Nanos,
        _sent: Nanos,
        is_persistent_congestion: bool,
        lost_bytes: u64,
    ) {
        let kind = if is_persistent_congestion {
            LossKind::Timeout
        } else {
            LossKind::FastRetransmit
        };
        let inflight = self.total_sent.saturating_sub(self.total_acked);
        self.inner.on_congestion_event(&LossView {
            now,
            kind,
            lost_bytes,
            inflight,
        });
    }

    /// Bytes transmitted (new data or retransmission).
    pub fn on_sent(&mut self, now: Nanos, bytes: u64) {
        self.total_sent += bytes;
        self.inner.on_sent(now, bytes, self.total_sent);
    }
}

/// Construct a QUIC-driven controller by [`CcKind`](crate::CcKind): the
/// factory the QUIC transport uses, mirroring [`crate::make_controller`].
/// Every controller in this crate runs unmodified behind the adapter.
pub fn make_quic_controller(kind: crate::CcKind, iw: u64, mss: u64) -> QuicAdapter {
    QuicAdapter::new(crate::make_controller(kind, iw, mss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cubic_suss::CubicSuss;
    use suss_core::{CcEvent, SussConfig};

    const MSS: u64 = 1_448;
    const IW: u64 = 10 * MSS;
    const RTT: Duration = Duration::from_millis(100);

    fn rtt() -> QuicRtt {
        QuicRtt {
            latest: RTT,
            smoothed: RTT,
            min: RTT,
        }
    }

    /// Drive SUSS through the QUIC-shaped interface only: one clean round
    /// of per-packet ACKs must trigger a G=4 pacing plan exactly as via the
    /// TCP interface.
    #[test]
    fn suss_accelerates_through_quic_interface() {
        let mut q = QuicAdapter::new(Box::new(CubicSuss::new(IW, MSS, SussConfig::default())));
        q.on_sent(0, IW); // initial window departs
        let rtt_ns = 100_000_000u64;
        let n = IW / MSS;
        for k in 0..n {
            let now = rtt_ns + k * 100_000; // tightly spaced ACK train
            q.on_ack(now, now - rtt_ns, MSS, false, &rtt());
            // ACK clocking at the QUIC layer: send what the window allows.
            let inflight = q.total_sent - q.total_acked;
            let w = q.inner().cwnd();
            if w > inflight {
                let grant = w - inflight;
                q.on_sent(now, grant);
            }
        }
        // A pacing timer must now be pending (guard interval).
        let t = q.inner().next_timer().expect("SUSS pacing plan expected");
        q.inner_mut().on_timer(t);
        assert!(q
            .inner_mut()
            .take_events()
            .contains(&CcEvent::SussPacingStarted { g: 4 }));
        // Run the window to completion.
        let mut guard_exceeded = 0;
        while let Some(at) = q.inner().next_timer() {
            q.inner_mut().on_timer(at);
            guard_exceeded += 1;
            assert!(guard_exceeded < 10_000, "pacing window must terminate");
        }
        assert!(
            q.inner().cwnd() >= 4 * IW,
            "window {} < 4·iw",
            q.inner().cwnd()
        );
    }

    #[test]
    fn persistent_congestion_maps_to_timeout() {
        let mut q = QuicAdapter::new(Box::new(CubicSuss::new(IW, MSS, SussConfig::default())));
        q.on_sent(0, IW);
        q.on_congestion_event(1_000_000, 0, true, MSS);
        assert_eq!(
            q.inner().cwnd(),
            MSS,
            "persistent congestion collapses the window"
        );
    }

    #[test]
    fn loss_event_maps_to_fast_retransmit() {
        let mut q = QuicAdapter::new(Box::new(CubicSuss::new(
            100 * MSS,
            MSS,
            SussConfig::default(),
        )));
        q.on_sent(0, 100 * MSS);
        let before = q.inner().cwnd();
        q.on_congestion_event(1_000_000, 0, false, MSS);
        assert!(q.inner().cwnd() < before);
        assert!(q.inner().cwnd() > MSS);
    }

    #[test]
    fn byte_counters_track() {
        let mut q = QuicAdapter::new(Box::new(CubicSuss::new(IW, MSS, SussConfig::default())));
        q.on_sent(0, 5_000);
        q.on_ack(1_000, 0, 2_000, false, &rtt());
        assert_eq!(q.total_sent, 5_000);
        assert_eq!(q.total_acked, 2_000);
    }
}
