//! BBR + SUSS: the paper's stated future-work direction.
//!
//! §7: *"A promising future research direction is integrating SUSS with
//! BBR. Like CUBIC, BBR adheres to the exponential growth dynamics of
//! traditional slow-start and under-utilizes bottleneck bandwidth in early
//! RTTs."*
//!
//! BBR's STARTUP doubles its delivery-rate estimate once per round — the
//! same ×2-per-RTT cadence as slow start, just expressed through gains.
//! The integration here runs the SUSS state machine alongside STARTUP and,
//! whenever SUSS's two conditions predict that exponential growth will
//! persist (the same Eq. 6/8 decision CUBIC+SUSS makes), applies a
//! *boost window*: for the guarded, pacing-shaped interval of the SUSS
//! plan, the controller's window and pacing rate are doubled. The extra
//! in-flight data raises the very delivery-rate samples BBR's model feeds
//! on, so one boosted round compounds exactly like a G = 4 round.
//! Abort-safety mirrors CUBIC+SUSS: a loss or STARTUP exit cancels any
//! pending or active boost instantly (the boost is a multiplier, never
//! state written into BBR's model).

use crate::bbr::{Bbr, BbrMode};
use suss_core::cc::{AckView, CcEvent, CongestionControl, LossView};
use suss_core::{AckEvent, Nanos, Suss, SussConfig};

/// A scheduled or running boost window.
#[derive(Debug, Clone, Copy)]
struct Boost {
    start: Nanos,
    end: Nanos,
    active: bool,
}

/// BBRv1 with SUSS-predicted STARTUP acceleration.
pub struct BbrSuss {
    inner: Bbr,
    suss: Suss,
    boost: Option<Boost>,
    /// Gain multiplier during a boost window (G=4 ⇒ ×2 over STARTUP's
    /// own ×2-per-round cadence).
    multiplier: f64,
    last_snd_nxt: u64,
    events: Vec<CcEvent>,
    boosts_completed: u64,
}

impl BbrSuss {
    /// BBR+SUSS from `iw` bytes with the given SUSS configuration.
    pub fn new(iw: u64, mss: u64, cfg: SussConfig) -> Self {
        BbrSuss {
            inner: Bbr::new(iw, mss),
            suss: Suss::new(cfg, 0, 0, iw),
            boost: None,
            multiplier: 2.0,
            last_snd_nxt: 0,
            events: Vec::new(),
            boosts_completed: 0,
        }
    }

    /// The SUSS state machine (diagnostics).
    pub fn suss(&self) -> &Suss {
        &self.suss
    }

    /// Boost windows that ran to completion.
    pub fn boosts_completed(&self) -> u64 {
        self.boosts_completed
    }

    /// Current BBR phase.
    pub fn mode(&self) -> BbrMode {
        self.inner.mode()
    }

    fn boost_active(&self) -> bool {
        self.boost.is_some_and(|b| b.active)
    }

    fn cancel_boost(&mut self) {
        self.boost = None;
        self.suss.on_exit_slow_start();
    }
}

impl CongestionControl for BbrSuss {
    fn name(&self) -> &'static str {
        "bbr+suss"
    }

    fn cwnd(&self) -> u64 {
        let w = self.inner.cwnd();
        if self.boost_active() {
            (w as f64 * self.multiplier) as u64
        } else {
            w
        }
    }

    fn in_slow_start(&self) -> bool {
        self.inner.in_slow_start()
    }

    fn on_ack(&mut self, ack: &AckView) {
        self.inner.on_ack(ack);
        if self.inner.mode() != BbrMode::Startup {
            // STARTUP over: SUSS's mission is complete.
            if self.boost.is_some() {
                self.boost = None;
            }
            return;
        }
        let out = self.suss.on_ack(AckEvent {
            now: ack.now,
            ack_seq: ack.ack_seq,
            rtt: ack.rtt_sample,
            cwnd: self.inner.cwnd(),
            snd_nxt: ack.snd_nxt,
        });
        if out.exit_slow_start {
            // SUSS predicts the pipe is full; no further boosts. BBR's own
            // full-pipe detector ends STARTUP on its own schedule.
            self.cancel_boost();
            return;
        }
        if let Some(plan) = out.start_pacing {
            if self.boost.is_none() {
                let guard = plan.guard.as_nanos() as u64;
                let dur = plan.duration.as_nanos() as u64;
                self.boost = Some(Boost {
                    start: ack.now + guard,
                    end: ack.now + guard + dur,
                    active: false,
                });
            }
        }
    }

    fn on_congestion_event(&mut self, loss: &LossView) {
        self.cancel_boost();
        self.inner.on_congestion_event(loss);
    }

    fn on_sent(&mut self, now: Nanos, bytes: u64, snd_nxt: u64) {
        self.last_snd_nxt = self.last_snd_nxt.max(snd_nxt);
        self.inner.on_sent(now, bytes, snd_nxt);
    }

    fn pacing_rate(&self) -> Option<f64> {
        let r = self.inner.pacing_rate();
        if self.boost_active() {
            r.map(|x| x * self.multiplier)
        } else {
            r
        }
    }

    fn next_timer(&self) -> Option<Nanos> {
        self.boost.map(|b| if b.active { b.end } else { b.start })
    }

    fn on_timer(&mut self, now: Nanos) {
        if let Some(mut b) = self.boost {
            if !b.active && now >= b.start {
                b.active = true;
                self.boost = Some(b);
                self.suss.mark_pacing_started(self.last_snd_nxt);
                self.events.push(CcEvent::SussPacingStarted { g: 4 });
            }
            if b.active && now >= b.end {
                self.boost = None;
                self.boosts_completed += 1;
            }
        }
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
    use std::time::Duration;

    const MSS: u64 = 1_448;
    const IW: u64 = 10 * MSS;
    const RTT_NS: u64 = 100_000_000;

    fn ack(now: Nanos, seq: u64, snd_nxt: u64, inflight: u64) -> AckView {
        AckView {
            now,
            ack_seq: seq,
            newly_acked: MSS,
            rtt_sample: Some(Duration::from_nanos(RTT_NS)),
            srtt: Some(Duration::from_nanos(RTT_NS)),
            min_rtt: Some(Duration::from_nanos(RTT_NS)),
            inflight,
            snd_nxt,
            delivered: seq,
            app_limited: false,
        }
    }

    /// One clean round of tightly spaced ACKs arms a boost window.
    #[test]
    fn clean_round_arms_boost() {
        let mut b = BbrSuss::new(IW, MSS, SussConfig::default());
        b.on_sent(0, IW, IW);
        let mut acked = 0;
        for k in 0..10u64 {
            let now = RTT_NS + k * 100_000;
            acked += MSS;
            b.on_ack(&ack(now, acked, IW + 2 * k * MSS, IW - acked));
            b.on_sent(now, 2 * MSS, IW + 2 * (k + 1) * MSS);
        }
        let t = b.next_timer().expect("boost window must be armed");
        // Guard elapses -> boost activates, multiplying window and rate.
        let w_before = b.cwnd();
        b.on_timer(t);
        assert!(b.boost_active());
        assert_eq!(b.cwnd(), (w_before as f64 * 2.0) as u64);
        // Window ends -> boost retires.
        let end = b.next_timer().unwrap();
        b.on_timer(end);
        assert!(!b.boost_active());
        assert_eq!(b.boosts_completed(), 1);
        assert_eq!(b.cwnd(), w_before);
    }

    #[test]
    fn loss_cancels_boost() {
        let mut b = BbrSuss::new(IW, MSS, SussConfig::default());
        b.on_sent(0, IW, IW);
        let mut acked = 0;
        for k in 0..10u64 {
            let now = RTT_NS + k * 100_000;
            acked += MSS;
            b.on_ack(&ack(now, acked, IW + 2 * k * MSS, IW - acked));
        }
        assert!(b.next_timer().is_some());
        b.on_congestion_event(&suss_core::cc::LossView {
            now: RTT_NS + 2_000_000,
            kind: suss_core::cc::LossKind::FastRetransmit,
            lost_bytes: MSS,
            inflight: IW,
        });
        assert!(b.next_timer().is_none(), "boost must be cancelled");
        assert!(!b.suss().exp_growth(), "SUSS dormant after loss");
    }

    #[test]
    fn suss_off_never_boosts() {
        let mut b = BbrSuss::new(IW, MSS, SussConfig::disabled());
        b.on_sent(0, IW, IW);
        let mut acked = 0;
        for k in 0..10u64 {
            let now = RTT_NS + k * 100_000;
            acked += MSS;
            b.on_ack(&ack(now, acked, IW + 2 * k * MSS, IW - acked));
        }
        assert!(b.next_timer().is_none());
    }
}
