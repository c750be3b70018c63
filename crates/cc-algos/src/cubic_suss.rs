//! CUBIC + SUSS: the paper's contribution, integrated exactly as §5
//! describes — SUSS augments CUBIC's slow start and leaves congestion
//! avoidance untouched.
//!
//! Responsibilities are split three ways:
//!
//! * `suss-core` decides *when* to accelerate (growth factor, modified
//!   HyStart) and *how* the extra data must be shaped (guard, rate,
//!   duration);
//! * this controller *executes* the plan: it arms a timer for the guard
//!   interval, then raises cwnd step-by-step at the pacing rate (so an
//!   interrupted pacing period never leaves cwnd inflated — §5's
//!   abort-safety property) while exposing `pacing_rate()` to the
//!   transport's token-bucket pacer;
//! * the transport does everything else (ACK clocking happens naturally:
//!   outside pacing periods `pacing_rate()` is `None`).

use crate::cubic::CubicCore;
use std::time::Duration;
use suss_core::cc::{AckView, CcEvent, CongestionControl, LossKind, LossView};
use suss_core::{AckEvent, Nanos, PacingPlan, Suss, SussConfig};

/// Execution state of an active pacing period.
#[derive(Debug, Clone, Copy)]
struct ActivePacing {
    /// Pacing rate, bytes/sec (Eq. 11: cwnd_target / minRTT).
    rate: f64,
    /// cwnd ceiling for this round (G · cwnd_base).
    target: u64,
    /// Hard end of the window.
    end: Nanos,
    /// Next cwnd-increment instant.
    next_tick: Nanos,
}

/// CUBIC with the SUSS slow-start accelerator.
pub struct CubicSuss {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    core: CubicCore,
    suss: Suss,
    /// A plan waiting out its guard interval.
    pending: Option<(Nanos, PacingPlan)>,
    /// The currently executing pacing period.
    active: Option<ActivePacing>,
    /// Highest snd_nxt observed (from on_sent), for blue/red marking.
    last_snd_nxt: u64,
    events: Vec<CcEvent>,
    /// Pacing periods fully completed (diagnostics).
    completed_pacings: u64,
}

impl CubicSuss {
    /// CUBIC+SUSS from `iw` bytes with the given SUSS configuration.
    ///
    /// Use `SussConfig::default()` for the paper's configuration and
    /// `SussConfig::disabled()` for a controller that behaves identically
    /// to plain CUBIC+HyStart but shares this exact code path (the clean
    /// A/B the paper's kernel patch performs with its on/off switch).
    pub fn new(iw: u64, mss: u64, cfg: SussConfig) -> Self {
        CubicSuss {
            mss,
            cwnd: iw,
            ssthresh: u64::MAX,
            core: CubicCore::new(mss),
            suss: Suss::new(cfg, 0, 0, iw),
            pending: None,
            active: None,
            last_snd_nxt: 0,
            events: Vec::new(),
            completed_pacings: 0,
        }
    }

    /// The paper's default configuration (k_max = 1, G ∈ {2,4}).
    pub fn paper(iw: u64, mss: u64) -> Self {
        Self::new(iw, mss, SussConfig::default())
    }

    /// The SUSS state machine (diagnostics).
    pub fn suss(&self) -> &Suss {
        &self.suss
    }

    /// Pacing periods that ran to completion.
    pub fn completed_pacings(&self) -> u64 {
        self.completed_pacings
    }

    fn cancel_pacing(&mut self) {
        if self.active.is_some() {
            self.events.push(CcEvent::PacingRateChanged {
                rate_bps: 0,
                reason: "suss_cancel",
            });
        }
        self.pending = None;
        self.active = None;
    }

    fn exit_slow_start(&mut self) {
        self.ssthresh = self.cwnd;
        self.events.push(CcEvent::SsthreshChanged {
            ssthresh: self.ssthresh,
            reason: "suss_exit",
        });
        self.events.push(CcEvent::HystartPhase {
            phase: "exit",
            reason: "hystart_delay",
        });
        self.suss.on_exit_slow_start();
        self.cancel_pacing();
    }

    fn tick_interval(&self, rate: f64) -> u64 {
        ((self.mss as f64 / rate) * 1e9).max(1.0) as u64
    }
}

impl CongestionControl for CubicSuss {
    fn name(&self) -> &'static str {
        if self.suss.config().enabled {
            "cubic+suss"
        } else {
            "cubic/suss-off"
        }
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn on_ack(&mut self, ack: &AckView) {
        if !self.in_slow_start() {
            if !ack.app_limited {
                let srtt = ack.srtt.unwrap_or(Duration::from_millis(100));
                self.cwnd = self
                    .core
                    .on_ack_ca(ack.now, self.cwnd, ack.newly_acked, srtt);
            }
            return;
        }

        // Feed SUSS before touching cwnd (its documented contract).
        let out = self.suss.on_ack(AckEvent {
            now: ack.now,
            ack_seq: ack.ack_seq,
            rtt: ack.rtt_sample,
            cwnd: self.cwnd,
            snd_nxt: ack.snd_nxt,
        });

        if out.exit_slow_start {
            self.exit_slow_start();
            return;
        }

        if !ack.app_limited {
            self.cwnd += ack.newly_acked;
            if self.cwnd >= self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        }

        if let Some(plan) = out.start_pacing {
            // Arm the guard interval; at most one plan per round can be
            // pending or active.
            if self.pending.is_none() && self.active.is_none() {
                let guard_ns = plan.guard.as_nanos() as u64;
                self.pending = Some((ack.now + guard_ns, plan));
            }
        }
    }

    fn on_congestion_event(&mut self, loss: &LossView) {
        self.suss.on_exit_slow_start();
        self.cancel_pacing();
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
                // SUSS stays dormant after the first slow-start phase; the
                // RTO-restarted slow start is plain doubling to ssthresh.
            }
        }
    }

    fn on_sent(&mut self, _now: Nanos, _bytes: u64, snd_nxt: u64) {
        self.last_snd_nxt = self.last_snd_nxt.max(snd_nxt);
    }

    fn pacing_rate(&self) -> Option<f64> {
        self.active.map(|a| a.rate)
    }

    fn next_timer(&self) -> Option<Nanos> {
        match (&self.pending, &self.active) {
            (Some((start, _)), _) => Some(*start),
            (None, Some(a)) => Some(a.next_tick.min(a.end)),
            (None, None) => None,
        }
    }

    fn on_timer(&mut self, now: Nanos) {
        // Guard expired: begin the pacing period.
        if let Some((start, plan)) = self.pending {
            if now >= start {
                self.pending = None;
                if self.in_slow_start() && self.suss.exp_growth() {
                    self.suss.mark_pacing_started(self.last_snd_nxt);
                    self.events.push(CcEvent::SussPacingStarted {
                        g: plan.growth_factor,
                    });
                    self.events.push(CcEvent::SussRound {
                        round: self.suss.round() as u32,
                        k: plan.growth_factor,
                    });
                    self.events.push(CcEvent::PacingRateChanged {
                        rate_bps: (plan.rate_bytes_per_sec * 8.0) as u64,
                        reason: "suss_pacing",
                    });
                    let dur_ns = plan.duration.as_nanos() as u64;
                    self.active = Some(ActivePacing {
                        rate: plan.rate_bytes_per_sec,
                        target: plan.cwnd_target.max(self.cwnd),
                        end: now + dur_ns,
                        next_tick: now,
                    });
                }
            }
        }
        // Pacing window: grow cwnd gradually at the pacing rate. The
        // transport transmits the extra bytes as cwnd opens, shaped by the
        // token-bucket pacer at the same rate.
        if let Some(mut a) = self.active {
            let tick = self.tick_interval(a.rate);
            while now >= a.next_tick && self.cwnd < a.target && now <= a.end {
                self.cwnd = (self.cwnd + self.mss).min(a.target).min(self.ssthresh);
                a.next_tick += tick;
            }
            if self.cwnd >= a.target || now >= a.end || !self.in_slow_start() {
                if self.cwnd >= a.target {
                    self.completed_pacings += 1;
                }
                self.events.push(CcEvent::PacingRateChanged {
                    rate_bps: 0,
                    reason: "suss_done",
                });
                self.active = None;
            } else {
                self.active = Some(a);
            }
        }
    }

    fn ssthresh(&self) -> Option<u64> {
        (self.ssthresh != u64::MAX).then_some(self.ssthresh)
    }

    fn take_events(&mut self) -> Vec<CcEvent> {
        std::mem::take(&mut self.events)
    }

    fn bind_metrics(&mut self, registry: &simtrace::Registry) {
        self.suss.bind_metrics(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1_448;
    const IW: u64 = 10 * MSS;
    const RTT_NS: u64 = 100_000_000;

    /// Drive the controller over synthetic clean-path slow-start rounds,
    /// executing its timers, like the transport would.
    struct Drive {
        cc: CubicSuss,
        acked: u64,
        snd_nxt: u64,
        now: Nanos,
    }

    impl Drive {
        fn new(cfg: SussConfig) -> Self {
            let mut cc = CubicSuss::new(IW, MSS, cfg);
            cc.on_sent(0, IW, IW);
            Drive {
                cc,
                acked: 0,
                snd_nxt: IW,
                now: 0,
            }
        }

        fn run_timers_until(&mut self, t: Nanos) {
            while let Some(at) = self.cc.next_timer() {
                if at > t {
                    break;
                }
                self.cc.on_timer(at.max(self.now));
                // Model the transport sending whatever the new cwnd allows.
                let cwnd = self.cc.cwnd();
                let outstanding = self.snd_nxt - self.acked;
                if cwnd > outstanding {
                    self.snd_nxt += cwnd - outstanding;
                    self.cc.on_sent(at, cwnd - outstanding, self.snd_nxt);
                }
            }
            self.now = t;
        }

        /// One round of tightly spaced ACKs at `round_start`.
        fn round(&mut self, round_start: Nanos, spacing: Nanos, rtt_ns: u64) {
            self.run_timers_until(round_start);
            let to_ack = self.snd_nxt - self.acked;
            let n = (to_ack / MSS).max(1);
            for k in 0..n {
                let now = round_start + k * spacing;
                self.run_timers_until(now);
                self.acked += MSS.min(to_ack);
                self.cc.on_ack(&AckView {
                    now,
                    ack_seq: self.acked,
                    newly_acked: MSS,
                    rtt_sample: Some(Duration::from_nanos(rtt_ns)),
                    srtt: Some(Duration::from_nanos(rtt_ns)),
                    min_rtt: Some(Duration::from_nanos(rtt_ns)),
                    inflight: self.snd_nxt - self.acked,
                    snd_nxt: self.snd_nxt,
                    delivered: self.acked,
                    app_limited: false,
                });
                // ACK clocking: send what cwnd allows.
                let cwnd = self.cc.cwnd();
                let outstanding = self.snd_nxt - self.acked;
                if cwnd > outstanding {
                    self.snd_nxt += cwnd - outstanding;
                    self.cc.on_sent(now, cwnd - outstanding, self.snd_nxt);
                }
            }
        }
    }

    #[test]
    fn suss_on_quadruples_early_round() {
        let mut d = Drive::new(SussConfig::default());
        d.round(RTT_NS, 100_000, RTT_NS);
        // Execute the pacing window.
        d.run_timers_until(2 * RTT_NS);
        assert_eq!(d.cc.suss().last_growth_factor(), 4);
        // After round 2 with G=4, cwnd should reach 4·iw (vs 2·iw plain).
        assert!(
            d.cc.cwnd() >= 4 * IW,
            "cwnd {} should reach 4·iw {}",
            d.cc.cwnd(),
            4 * IW
        );
        assert_eq!(d.cc.completed_pacings(), 1);
        let evs = d.cc.take_events();
        assert!(evs.contains(&CcEvent::SussPacingStarted { g: 4 }));
    }

    #[test]
    fn suss_off_doubles_exactly() {
        let mut d = Drive::new(SussConfig::disabled());
        d.round(RTT_NS, 100_000, RTT_NS);
        d.run_timers_until(2 * RTT_NS);
        assert_eq!(d.cc.cwnd(), 2 * IW, "traditional slow start doubles");
        assert_eq!(d.cc.completed_pacings(), 0);
        assert_eq!(d.cc.name(), "cubic/suss-off");
    }

    #[test]
    fn growth_compounds_across_rounds() {
        let mut d = Drive::new(SussConfig::default());
        d.round(RTT_NS, 100_000, RTT_NS);
        d.round(2 * RTT_NS, 100_000, RTT_NS);
        d.run_timers_until(3 * RTT_NS);
        // Paper Fig. 4/6: after two accelerated rounds cwnd = 16·iw.
        assert!(
            d.cc.cwnd() >= 12 * IW,
            "two G=4 rounds should approach 16·iw, got {}x",
            d.cc.cwnd() / IW
        );
    }

    #[test]
    fn loss_cancels_pacing_and_exits_slow_start() {
        let mut d = Drive::new(SussConfig::default());
        d.round(RTT_NS, 100_000, RTT_NS);
        // A loss arrives before/during the pacing window.
        let cwnd_at_loss = d.cc.cwnd();
        d.cc.on_congestion_event(&LossView {
            now: d.now + 1,
            kind: LossKind::FastRetransmit,
            lost_bytes: MSS,
            inflight: cwnd_at_loss,
        });
        assert!(!d.cc.in_slow_start());
        assert!(d.cc.pacing_rate().is_none());
        assert!(d.cc.next_timer().is_none(), "no stale pacing timers");
        // cwnd reduced multiplicatively from the *uninflated* value.
        assert!(d.cc.cwnd() < cwnd_at_loss);
    }

    #[test]
    fn interrupted_pacing_leaves_cwnd_partial() {
        let mut d = Drive::new(SussConfig::default());
        d.round(RTT_NS, 100_000, RTT_NS);
        // Run only part of the pacing window, then lose.
        let t_partial = RTT_NS + (RTT_NS / 2); // guard + a bit of pacing
        d.run_timers_until(t_partial);
        let cwnd_mid = d.cc.cwnd();
        assert!(
            cwnd_mid < 4 * IW,
            "mid-window cwnd {} must be below target {}",
            cwnd_mid,
            4 * IW
        );
        d.cc.on_congestion_event(&LossView {
            now: t_partial,
            kind: LossKind::FastRetransmit,
            lost_bytes: MSS,
            inflight: cwnd_mid,
        });
        // §5: the abort must not leave cwnd at the full target.
        assert!(d.cc.cwnd() <= cwnd_mid);
    }

    #[test]
    fn congested_path_stays_traditional() {
        let mut d = Drive::new(SussConfig::default());
        // Wide ACK spacing: 10 ACKs × 3 ms = 27 ms train: conditions fail.
        d.round(RTT_NS, 3_000_000, RTT_NS);
        d.run_timers_until(2 * RTT_NS);
        assert_eq!(d.cc.suss().last_growth_factor(), 2);
        assert_eq!(d.cc.cwnd(), 2 * IW);
    }

    #[test]
    fn timeout_collapses_and_disables_suss() {
        let mut d = Drive::new(SussConfig::default());
        d.round(RTT_NS, 100_000, RTT_NS);
        d.cc.on_congestion_event(&LossView {
            now: d.now,
            kind: LossKind::Timeout,
            lost_bytes: MSS,
            inflight: d.cc.cwnd(),
        });
        assert_eq!(d.cc.cwnd(), MSS);
        assert!(d.cc.in_slow_start(), "post-RTO slow start toward ssthresh");
        assert!(!d.cc.suss().exp_growth(), "SUSS dormant after RTO");
    }

    #[test]
    fn ca_phase_uses_cubic() {
        let mut d = Drive::new(SussConfig::default());
        d.round(RTT_NS, 100_000, RTT_NS);
        d.cc.on_congestion_event(&LossView {
            now: d.now,
            kind: LossKind::FastRetransmit,
            lost_bytes: MSS,
            inflight: d.cc.cwnd(),
        });
        let w = d.cc.cwnd();
        // CA acks grow the window slowly (cubic plateau).
        d.cc.on_ack(&AckView {
            now: d.now + RTT_NS,
            ack_seq: d.acked,
            newly_acked: w,
            rtt_sample: Some(Duration::from_nanos(RTT_NS)),
            srtt: Some(Duration::from_nanos(RTT_NS)),
            min_rtt: Some(Duration::from_nanos(RTT_NS)),
            inflight: w,
            snd_nxt: d.snd_nxt,
            delivered: d.acked,
            app_limited: false,
        });
        let grown = d.cc.cwnd();
        assert!(
            grown >= w && grown < w + w / 4,
            "gentle CA growth, got {w} -> {grown}"
        );
    }
}
