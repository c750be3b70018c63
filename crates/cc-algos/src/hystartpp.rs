//! HyStart++ (RFC 9406): the related-work slow-start refinement the paper
//! cites. Included as an additional baseline so SUSS can be compared not
//! only against classic HyStart but against the current IETF-standardized
//! alternative.
//!
//! HyStart++ replaces classic HyStart's hard exit with *Conservative Slow
//! Start* (CSS): on a delay increase it slows growth to 1/4 rate for up to
//! 5 rounds, returning to full slow start if the RTT recovers (false
//! positive), or exiting to congestion avoidance if it does not.

use crate::cubic::CubicCore;
use std::time::Duration;
use suss_core::cc::{AckView, CcEvent, CongestionControl, LossKind, LossView};

const MIN_RTT_THRESH: Duration = Duration::from_millis(4);
const MAX_RTT_THRESH: Duration = Duration::from_millis(16);
const N_RTT_SAMPLE: u32 = 8;
const CSS_GROWTH_DIVISOR: u64 = 4;
const CSS_ROUNDS: u32 = 5;

/// HyStart++ phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Standard slow start.
    Standard,
    /// Conservative Slow Start (suspected queueing).
    Css { rounds_done: u32 },
    /// Done: congestion avoidance decided.
    Exited,
}

/// The RFC 9406 state machine, tracked per round.
#[derive(Debug, Clone)]
pub struct HystartPP {
    phase: Phase,
    round_end_seq: u64,
    last_round_min_rtt: Option<Duration>,
    current_round_min_rtt: Option<Duration>,
    css_baseline_min_rtt: Option<Duration>,
    rtt_sample_count: u32,
}

impl HystartPP {
    /// Fresh state at connection start.
    pub fn new() -> Self {
        HystartPP {
            phase: Phase::Standard,
            round_end_seq: 0,
            last_round_min_rtt: None,
            current_round_min_rtt: None,
            css_baseline_min_rtt: None,
            rtt_sample_count: 0,
        }
    }

    /// Whether CSS (conservative growth) is active.
    pub fn in_css(&self) -> bool {
        matches!(self.phase, Phase::Css { .. })
    }

    /// Whether slow start should end now.
    pub fn exited(&self) -> bool {
        self.phase == Phase::Exited
    }

    /// The growth divisor to apply to slow-start increments (1 or 4).
    pub fn growth_divisor(&self) -> u64 {
        if self.in_css() {
            CSS_GROWTH_DIVISOR
        } else {
            1
        }
    }

    fn rtt_thresh(last: Duration) -> Duration {
        (last / 8).clamp(MIN_RTT_THRESH, MAX_RTT_THRESH)
    }

    /// Feed one ACK. Returns `true` when slow start must end.
    pub fn on_ack(&mut self, ack_seq: u64, snd_nxt: u64, rtt: Option<Duration>) -> bool {
        if self.phase == Phase::Exited {
            return true;
        }
        // Round rollover.
        if ack_seq > self.round_end_seq {
            self.round_end_seq = snd_nxt;
            if let Phase::Css { rounds_done } = self.phase {
                let rounds_done = rounds_done + 1;
                if rounds_done >= CSS_ROUNDS {
                    self.phase = Phase::Exited;
                    return true;
                }
                self.phase = Phase::Css { rounds_done };
            }
            self.last_round_min_rtt = self.current_round_min_rtt;
            self.current_round_min_rtt = None;
            self.rtt_sample_count = 0;
        }

        let Some(rtt) = rtt else {
            return false;
        };
        self.current_round_min_rtt = Some(self.current_round_min_rtt.map_or(rtt, |m| m.min(rtt)));
        self.rtt_sample_count += 1;

        if self.rtt_sample_count < N_RTT_SAMPLE {
            return false;
        }
        let (Some(cur), Some(last)) = (self.current_round_min_rtt, self.last_round_min_rtt) else {
            return false;
        };

        match self.phase {
            Phase::Standard => {
                if cur >= last + Self::rtt_thresh(last) {
                    // Suspected queueing: enter CSS and remember baseline.
                    self.css_baseline_min_rtt = Some(last);
                    self.phase = Phase::Css { rounds_done: 0 };
                }
            }
            Phase::Css { .. } => {
                if let Some(baseline) = self.css_baseline_min_rtt {
                    if cur < baseline + Self::rtt_thresh(baseline) {
                        // False positive: RTT recovered, resume standard SS.
                        self.phase = Phase::Standard;
                    }
                }
            }
            Phase::Exited => {}
        }
        false
    }
}

impl Default for HystartPP {
    fn default() -> Self {
        Self::new()
    }
}

/// CUBIC with HyStart++ instead of classic HyStart.
pub struct CubicHspp {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    core: CubicCore,
    hspp: HystartPP,
    events: Vec<CcEvent>,
}

impl CubicHspp {
    /// CUBIC+HyStart++ from `iw` bytes.
    pub fn new(iw: u64, mss: u64) -> Self {
        CubicHspp {
            mss,
            cwnd: iw,
            ssthresh: u64::MAX,
            core: CubicCore::new(mss),
            hspp: HystartPP::new(),
            events: Vec::new(),
        }
    }

    /// The HyStart++ detector (diagnostics).
    pub fn hystartpp(&self) -> &HystartPP {
        &self.hspp
    }
}

impl CongestionControl for CubicHspp {
    fn name(&self) -> &'static str {
        "cubic+hystart++"
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
            let was_css = self.hspp.in_css();
            if self.hspp.on_ack(ack.ack_seq, ack.snd_nxt, ack.rtt_sample) {
                self.ssthresh = self.cwnd;
                self.events.push(CcEvent::SsthreshChanged {
                    ssthresh: self.ssthresh,
                    reason: "hystart_delay",
                });
                self.events.push(CcEvent::HystartPhase {
                    phase: "exit",
                    reason: "css_confirmed",
                });
                return;
            }
            if !was_css && self.hspp.in_css() {
                self.events.push(CcEvent::HystartPhase {
                    phase: "css",
                    reason: "rtt_rise",
                });
            } else if was_css && !self.hspp.in_css() {
                self.events.push(CcEvent::HystartPhase {
                    phase: "slow_start",
                    reason: "false_positive",
                });
            }
            self.cwnd += ack.newly_acked / self.hspp.growth_divisor();
            if self.cwnd >= self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            let srtt = ack.srtt.unwrap_or(Duration::from_millis(100));
            self.cwnd = self
                .core
                .on_ack_ca(ack.now, self.cwnd, ack.newly_acked, srtt);
        }
    }

    fn on_congestion_event(&mut self, loss: &LossView) {
        match loss.kind {
            LossKind::FastRetransmit => {
                self.cwnd = self.core.on_loss(self.cwnd);
                self.ssthresh = self.cwnd;
                self.events.push(CcEvent::CwndChanged {
                    cwnd: self.cwnd,
                    reason: "loss",
                });
                self.events.push(CcEvent::SsthreshChanged {
                    ssthresh: self.ssthresh,
                    reason: "loss",
                });
            }
            LossKind::Timeout => {
                let reduced = self.core.on_loss(self.cwnd);
                self.ssthresh = reduced;
                self.cwnd = self.mss;
                self.core.reset_epoch();
                self.events.push(CcEvent::CwndChanged {
                    cwnd: self.cwnd,
                    reason: "timeout",
                });
                self.events.push(CcEvent::SsthreshChanged {
                    ssthresh: self.ssthresh,
                    reason: "timeout",
                });
            }
        }
    }

    fn ssthresh(&self) -> Option<u64> {
        (self.ssthresh != u64::MAX).then_some(self.ssthresh)
    }

    fn take_events(&mut self) -> Vec<CcEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suss_core::Nanos;

    const MSS: u64 = 1_448;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    /// Feed a round of `n` samples with a given RTT.
    fn round(h: &mut HystartPP, base: u64, n: u64, rtt: Duration) -> bool {
        let snd_nxt = base + 4 * n * MSS;
        for k in 0..n {
            if h.on_ack(base + (k + 1) * MSS, snd_nxt, Some(rtt)) {
                return true;
            }
        }
        false
    }

    #[test]
    fn stays_standard_on_flat_rtt() {
        let mut h = HystartPP::new();
        let mut base = 0;
        for _ in 0..6 {
            assert!(!round(&mut h, base, 10, ms(100)));
            base += 40 * MSS; // clear the round_end_seq
            assert!(!h.in_css());
        }
    }

    #[test]
    fn delay_rise_enters_css_then_exits() {
        let mut h = HystartPP::new();
        round(&mut h, 0, 10, ms(100));
        // Round 2: +30 ms > thresh (12.5 ms) -> CSS.
        round(&mut h, 40 * MSS, 10, ms(130));
        assert!(h.in_css());
        assert_eq!(h.growth_divisor(), 4);
        // Five more elevated rounds -> exit.
        let mut base = 80 * MSS;
        let mut exited = false;
        for _ in 0..6 {
            if round(&mut h, base, 10, ms(130)) {
                exited = true;
                break;
            }
            base += 40 * MSS;
        }
        assert!(exited, "persistent delay must end slow start");
    }

    #[test]
    fn false_positive_returns_to_standard() {
        let mut h = HystartPP::new();
        round(&mut h, 0, 10, ms(100));
        round(&mut h, 40 * MSS, 10, ms(130));
        assert!(h.in_css());
        // RTT recovers to baseline: back to standard slow start.
        round(&mut h, 80 * MSS, 10, ms(100));
        assert!(!h.in_css());
        assert!(!h.exited());
    }

    #[test]
    fn css_slows_cwnd_growth() {
        let mut c = CubicHspp::new(10 * MSS, MSS);
        let mk = |now: Nanos, seq: u64, snd_nxt: u64, rtt: Duration| AckView {
            now,
            ack_seq: seq,
            newly_acked: MSS,
            rtt_sample: Some(rtt),
            srtt: Some(rtt),
            min_rtt: Some(rtt),
            inflight: 0,
            snd_nxt,
            delivered: seq,
            app_limited: false,
        };
        // Round 1 at 100 ms.
        for k in 0..10u64 {
            c.on_ack(&mk(k, (k + 1) * MSS, 40 * MSS, ms(100)));
        }
        let w_std = c.cwnd();
        assert_eq!(w_std, 20 * MSS, "standard growth: +1 MSS per ACK");
        // Round 2 at 130 ms: CSS engages after 8 samples; growth becomes /4.
        for k in 0..20u64 {
            c.on_ack(&mk(100 + k, 41 * MSS + k * MSS, 200 * MSS, ms(130)));
        }
        let grown = c.cwnd() - w_std;
        assert!(
            grown < 20 * MSS,
            "CSS must slow growth (grew {grown} over 20 ACKs)"
        );
    }
}
