//! TCP Reno/NewReno congestion control (RFC 5681) — the canonical
//! loss-based baseline.

use suss_core::cc::{AckView, CongestionControl, LossKind, LossView};

/// Classic Reno: slow start doubling, AIMD congestion avoidance,
/// multiplicative decrease by 1/2 on loss.
#[derive(Debug, Clone)]
pub struct Reno {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Byte accumulator for congestion-avoidance growth.
    ca_acked: u64,
}

impl Reno {
    /// Start from an initial window of `iw` bytes.
    pub fn new(iw: u64, mss: u64) -> Self {
        Reno {
            mss,
            cwnd: iw,
            ssthresh: u64::MAX,
            ca_acked: 0,
        }
    }
}

impl CongestionControl for Reno {
    fn name(&self) -> &'static str {
        "reno"
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn on_ack(&mut self, ack: &AckView) {
        if ack.app_limited {
            return;
        }
        if self.in_slow_start() {
            self.cwnd += ack.newly_acked;
        } else {
            // cwnd += MSS per cwnd of acknowledged data.
            self.ca_acked += ack.newly_acked;
            while self.ca_acked >= self.cwnd {
                self.ca_acked -= self.cwnd;
                self.cwnd += self.mss;
            }
        }
    }

    fn on_congestion_event(&mut self, loss: &LossView) {
        match loss.kind {
            LossKind::FastRetransmit => {
                self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
                self.cwnd = self.ssthresh;
            }
            LossKind::Timeout => {
                self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
                self.cwnd = self.mss;
            }
        }
        self.ca_acked = 0;
    }

    fn ssthresh(&self) -> Option<u64> {
        (self.ssthresh != u64::MAX).then_some(self.ssthresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1_000;

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
    fn slow_start_doubles() {
        let mut r = Reno::new(10 * MSS, MSS);
        r.on_ack(&ack(10 * MSS));
        assert_eq!(r.cwnd(), 20 * MSS);
        assert!(r.in_slow_start());
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut r = Reno::new(40 * MSS, MSS);
        r.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: MSS,
            inflight: 40 * MSS,
        });
        assert_eq!(r.cwnd(), 20 * MSS);
        assert!(!r.in_slow_start());
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut r = Reno::new(40 * MSS, MSS);
        r.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::Timeout,
            lost_bytes: MSS,
            inflight: 40 * MSS,
        });
        assert_eq!(r.cwnd(), MSS);
        assert_eq!(r.ssthresh(), Some(20 * MSS));
        assert!(r.in_slow_start(), "after RTO Reno slow-starts to ssthresh");
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut r = Reno::new(10 * MSS, MSS);
        r.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: MSS,
            inflight: 10 * MSS,
        });
        let w0 = r.cwnd();
        // One full window of ACKs -> exactly +1 MSS.
        r.on_ack(&ack(w0));
        assert_eq!(r.cwnd(), w0 + MSS);
    }

    #[test]
    fn app_limited_acks_do_not_grow() {
        let mut r = Reno::new(10 * MSS, MSS);
        let mut a = ack(10 * MSS);
        a.app_limited = true;
        r.on_ack(&a);
        assert_eq!(r.cwnd(), 10 * MSS);
    }

    #[test]
    fn floor_at_two_mss() {
        let mut r = Reno::new(2 * MSS, MSS);
        for _ in 0..5 {
            r.on_congestion_event(&LossView {
                now: 0,
                kind: LossKind::FastRetransmit,
                lost_bytes: MSS,
                inflight: MSS,
            });
        }
        assert!(r.cwnd() >= 2 * MSS);
    }
}
