//! Test controllers for the transport: a fixed window and a bare slow
//! start. The congestion-control contract itself lives in
//! [`suss_core::cc`], shared with the QUIC-like transport.

use suss_core::cc::{CongestionControl, LossView};

/// Kept at this path because the frozen `perfbench` harness imports
/// `tcp_sim::cc::AckView`.
pub use suss_core::cc::AckView;

/// A fixed-window controller for transport unit tests: no reaction to
/// anything, a constant cwnd.
#[derive(Debug, Clone)]
pub struct FixedCwnd {
    window: u64,
}

impl FixedCwnd {
    /// A controller pinned at `window` bytes.
    pub fn new(window: u64) -> Self {
        FixedCwnd { window }
    }
}

impl CongestionControl for FixedCwnd {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn cwnd(&self) -> u64 {
        self.window
    }
    fn in_slow_start(&self) -> bool {
        false
    }
    fn on_ack(&mut self, _ack: &AckView) {}
    fn on_congestion_event(&mut self, _loss: &LossView) {}
}

/// A minimal slow-start-only controller for transport tests: doubles per
/// round, halves on loss, never leaves slow start unless loss occurs.
#[derive(Debug, Clone)]
pub struct BasicSlowStart {
    cwnd: u64,
    ssthresh: u64,
    mss: u64,
}

impl BasicSlowStart {
    /// Start from `iw` bytes with the given MSS.
    pub fn new(iw: u64, mss: u64) -> Self {
        BasicSlowStart {
            cwnd: iw,
            ssthresh: u64::MAX,
            mss,
        }
    }
}

impl CongestionControl for BasicSlowStart {
    fn name(&self) -> &'static str {
        "basic-ss"
    }
    fn cwnd(&self) -> u64 {
        self.cwnd
    }
    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
    fn on_ack(&mut self, ack: &AckView) {
        if self.in_slow_start() {
            self.cwnd += ack.newly_acked;
        } else {
            // Linear: one MSS per cwnd of ACKed data.
            self.cwnd += self.mss * ack.newly_acked / self.cwnd.max(1);
        }
    }
    fn on_congestion_event(&mut self, _loss: &LossView) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
    }
    fn ssthresh(&self) -> Option<u64> {
        (self.ssthresh != u64::MAX).then_some(self.ssthresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suss_core::cc::LossKind;

    fn ack(newly: u64) -> AckView {
        AckView {
            now: 0,
            ack_seq: 0,
            newly_acked: newly,
            rtt_sample: None,
            srtt: None,
            min_rtt: None,
            inflight: 0,
            snd_nxt: 0,
            delivered: 0,
            app_limited: false,
        }
    }

    #[test]
    fn fixed_stays_fixed() {
        let mut c = FixedCwnd::new(10_000);
        c.on_ack(&ack(5_000));
        c.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: 1_000,
            inflight: 10_000,
        });
        assert_eq!(c.cwnd(), 10_000);
    }

    #[test]
    fn basic_slow_start_doubles_and_halves() {
        let mut c = BasicSlowStart::new(10_000, 1_000);
        assert!(c.in_slow_start());
        c.on_ack(&ack(10_000));
        assert_eq!(c.cwnd(), 20_000);
        c.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: 1_000,
            inflight: 20_000,
        });
        assert_eq!(c.cwnd(), 10_000);
        assert!(!c.in_slow_start());
        // Congestion avoidance: +MSS per cwnd acked.
        c.on_ack(&ack(10_000));
        assert_eq!(c.cwnd(), 11_000);
    }
}
