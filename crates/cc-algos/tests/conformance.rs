//! Cross-transport congestion-control conformance.
//!
//! Every controller in this crate must behave *identically* whether it is
//! driven through the TCP-shaped [`CongestionControl`] interface
//! (sequence-space `AckView`s) or the quinn-shaped [`QuicAdapter`]
//! (byte counts and times only). That equivalence is the paper's
//! portability claim made executable: SUSS needs nothing from the
//! transport beyond monotone sent/delivered byte counters and RTT
//! samples.
//!
//! One canonical ACK/loss trace — slow-start ACK trains at a 100 ms RTT,
//! a mid-trace fast-retransmit loss, a later persistent-congestion
//! (timeout) event, then recovery rounds — is replayed through both
//! interfaces in lockstep. After every callback the two sides must agree
//! on cwnd, slow-start phase, ssthresh, pacing rate, and the next
//! internal timer; at the end their decision-event streams (including
//! SUSS's per-round growth estimates and pacing starts) must match
//! record for record.

use cc_algos::{make_controller, make_quic_controller, CcKind, QuicAdapter, QuicRtt};
use std::time::Duration;
use suss_core::cc::{AckView, CcEvent, CongestionControl, LossKind, LossView};

const MSS: u64 = 1_448;
const IW: u64 = 10 * MSS;
const RTT_NS: u64 = 100_000_000; // 100 ms
const ACK_SPACING_NS: u64 = 100_000; // tight ACK train
const ACK_QUANTUM: u64 = 10 * MSS;

const ALL_KINDS: [CcKind; 7] = [
    CcKind::Reno,
    CcKind::Cubic,
    CcKind::CubicSuss,
    CcKind::CubicHspp,
    CcKind::Bbr,
    CcKind::Bbr2,
    CcKind::BbrSuss,
];

/// Controllers that respond to loss by setting a slow-start threshold.
const LOSS_BASED: [CcKind; 4] = [
    CcKind::Reno,
    CcKind::Cubic,
    CcKind::CubicSuss,
    CcKind::CubicHspp,
];

/// The TCP-side harness: drives a [`CongestionControl`] with the exact
/// byte-counter arithmetic the `QuicAdapter` performs, so any behavioral
/// difference is the controller's, not the harness's.
struct TcpSide {
    cc: Box<dyn CongestionControl>,
    total_sent: u64,
    total_acked: u64,
}

/// The QUIC-side harness: the same controller behind
/// [`make_quic_controller`]'s adapter.
struct QuicSide {
    cc: QuicAdapter,
}

impl TcpSide {
    fn send(&mut self, now: u64, bytes: u64) {
        self.total_sent += bytes;
        self.cc.on_sent(now, bytes, self.total_sent);
    }

    fn ack(&mut self, now: u64, sent_at: u64, bytes: u64, rtt: &QuicRtt) {
        self.total_acked += bytes;
        self.cc.on_ack(&AckView {
            now,
            ack_seq: self.total_acked,
            newly_acked: bytes,
            rtt_sample: (sent_at <= now).then_some(rtt.latest),
            srtt: Some(rtt.smoothed),
            min_rtt: Some(rtt.min),
            inflight: self.total_sent - self.total_acked,
            snd_nxt: self.total_sent,
            delivered: self.total_acked,
            app_limited: false,
        });
    }

    fn loss(&mut self, now: u64, persistent: bool, lost_bytes: u64) {
        self.cc.on_congestion_event(&LossView {
            now,
            kind: if persistent {
                LossKind::Timeout
            } else {
                LossKind::FastRetransmit
            },
            lost_bytes,
            inflight: self.total_sent - self.total_acked,
        });
    }
}

impl QuicSide {
    fn send(&mut self, now: u64, bytes: u64) {
        self.cc.on_sent(now, bytes);
    }

    fn ack(&mut self, now: u64, sent_at: u64, bytes: u64, rtt: &QuicRtt) {
        self.cc.on_ack(now, sent_at, bytes, false, rtt);
    }

    fn loss(&mut self, now: u64, persistent: bool, lost_bytes: u64) {
        self.cc.on_congestion_event(now, 0, persistent, lost_bytes);
    }
}

/// Everything the lockstep driver records about one replay.
struct Outcome {
    events: Vec<CcEvent>,
    saw_loss_ssthresh: bool,
    pre_loss_cwnd_monotone: bool,
    max_cwnd: u64,
}

/// Replay the canonical trace through both sides in lockstep, asserting
/// observable equality after every callback.
fn replay(kind: CcKind) -> Outcome {
    let mut tcp = TcpSide {
        cc: make_controller(kind, IW, MSS),
        total_sent: 0,
        total_acked: 0,
    };
    let mut quic = QuicSide {
        cc: make_quic_controller(kind, IW, MSS),
    };
    let mut events_tcp = Vec::new();
    let mut events_quic = Vec::new();
    let mut outcome = Outcome {
        events: Vec::new(),
        saw_loss_ssthresh: false,
        pre_loss_cwnd_monotone: true,
        max_cwnd: 0,
    };

    // Lockstep equality check, run after every callback on both sides.
    let check = |tcp: &mut TcpSide, quic: &mut QuicSide, step: &str| -> u64 {
        let (wt, wq) = (tcp.cc.cwnd(), quic.cc.inner().cwnd());
        assert_eq!(wt, wq, "{kind:?} cwnd diverged at {step}");
        assert_eq!(
            tcp.cc.in_slow_start(),
            quic.cc.inner().in_slow_start(),
            "{kind:?} slow-start phase diverged at {step}"
        );
        assert_eq!(
            tcp.cc.ssthresh(),
            quic.cc.inner().ssthresh(),
            "{kind:?} ssthresh diverged at {step}"
        );
        assert_eq!(
            tcp.cc.pacing_rate(),
            quic.cc.inner().pacing_rate(),
            "{kind:?} pacing rate diverged at {step}"
        );
        assert_eq!(
            tcp.cc.next_timer(),
            quic.cc.inner().next_timer(),
            "{kind:?} timer schedule diverged at {step}"
        );
        if let Some(rate) = tcp.cc.pacing_rate() {
            assert!(
                rate.is_finite() && rate > 0.0,
                "{kind:?} pacing rate {rate} at {step}"
            );
        }
        assert_eq!(tcp.cc.name(), quic.cc.inner().name());
        wt
    };
    // Drain both sides' due internal timers (SUSS guard/pacing windows,
    // BBR phase schedules) up to `now`, in lockstep.
    let fire_until = |tcp: &mut TcpSide, quic: &mut QuicSide, now: u64| {
        let mut guard = 0;
        while let Some(at) = tcp.cc.next_timer() {
            if at > now {
                break;
            }
            tcp.cc.on_timer(at);
            quic.cc.inner_mut().on_timer(at);
            guard += 1;
            assert!(guard < 100_000, "{kind:?} timer storm");
        }
        assert_eq!(tcp.cc.next_timer(), quic.cc.inner().next_timer());
    };

    // RTT state shared by both harnesses (the transport would own this).
    let mut srtt = Duration::ZERO;
    let mut min_rtt = Duration::MAX;

    // t = 0: the initial window departs as one burst.
    tcp.send(0, IW);
    quic.send(0, IW);
    let w0 = check(&mut tcp, &mut quic, "iw");
    assert_eq!(w0, IW, "{kind:?} must start at the initial window");

    let mut now = 0u64;
    let mut loss_seen = false;
    let mut prev_cwnd = w0;
    for round in 0..7u32 {
        now = (u64::from(round) + 1) * RTT_NS;
        fire_until(&mut tcp, &mut quic, now);

        // ACK the bytes that were in flight at the round boundary in
        // quantum-sized, tightly spaced ACKs — the per-packet-ACK train
        // both transports produce. Data sent *during* the train stays in
        // flight for the next round, exactly like a real RTT pipeline.
        let mut to_ack = tcp.total_sent - tcp.total_acked;
        while to_ack > 0 {
            let bytes = to_ack.min(ACK_QUANTUM);
            to_ack -= bytes;
            let sent_at = now - RTT_NS;
            let latest = Duration::from_nanos(RTT_NS);
            srtt = if srtt.is_zero() {
                latest
            } else {
                (srtt * 7 + latest) / 8
            };
            min_rtt = min_rtt.min(latest);
            let rtt = QuicRtt {
                latest,
                smoothed: srtt,
                min: min_rtt,
            };
            tcp.ack(now, sent_at, bytes, &rtt);
            quic.ack(now, sent_at, bytes, &rtt);
            let w = check(&mut tcp, &mut quic, "ack");
            if !loss_seen && tcp.cc.in_slow_start() && w < prev_cwnd {
                outcome.pre_loss_cwnd_monotone = false;
            }
            prev_cwnd = w;
            outcome.max_cwnd = outcome.max_cwnd.max(w);
            fire_until(&mut tcp, &mut quic, now);

            // ACK clocking: send whatever the (equal) windows grant.
            let inflight = tcp.total_sent - tcp.total_acked;
            if w > inflight {
                let grant = w - inflight;
                tcp.send(now, grant);
                quic.send(now, grant);
                check(&mut tcp, &mut quic, "send");
            }
            now += ACK_SPACING_NS;
        }

        events_tcp.extend(tcp.cc.take_events());
        events_quic.extend(quic.cc.inner_mut().take_events());

        // Mid-trace: a fast-retransmit loss episode after round 3.
        if round == 3 {
            tcp.loss(now, false, MSS);
            quic.loss(now, false, MSS);
            check(&mut tcp, &mut quic, "loss");
            loss_seen = true;
            if tcp.cc.ssthresh().is_some() {
                outcome.saw_loss_ssthresh = true;
            }
        }
        // Later: persistent congestion (the QUIC mapping of an RTO).
        if round == 5 {
            tcp.loss(now, true, 4 * MSS);
            quic.loss(now, true, 4 * MSS);
            check(&mut tcp, &mut quic, "persistent");
            assert!(
                tcp.cc.cwnd() <= IW,
                "{kind:?} persistent congestion must collapse the window"
            );
        }
        prev_cwnd = tcp.cc.cwnd();
    }

    fire_until(&mut tcp, &mut quic, now + 10 * RTT_NS);
    events_tcp.extend(tcp.cc.take_events());
    events_quic.extend(quic.cc.inner_mut().take_events());
    assert_eq!(
        events_tcp, events_quic,
        "{kind:?} decision-event streams diverged across transports"
    );
    outcome.events = events_tcp;
    outcome
}

#[test]
fn every_controller_is_transport_equivalent() {
    for kind in ALL_KINDS {
        let out = replay(kind);
        assert!(
            out.max_cwnd > IW,
            "{kind:?} must grow beyond the initial window"
        );
    }
}

#[test]
fn window_growth_is_monotone_in_pre_loss_slow_start() {
    // Window-based controllers must never shrink cwnd while in clean
    // slow start. (The BBR family is exempt: its cwnd tracks the
    // evolving BDP estimate, which may legitimately fluctuate.)
    for kind in LOSS_BASED {
        let out = replay(kind);
        assert!(
            out.pre_loss_cwnd_monotone,
            "{kind:?} cwnd must not shrink in pre-loss slow start"
        );
    }
}

#[test]
fn loss_based_controllers_set_ssthresh_on_loss() {
    for kind in LOSS_BASED {
        let out = replay(kind);
        assert!(
            out.saw_loss_ssthresh,
            "{kind:?} must set ssthresh on the loss episode"
        );
    }
}

#[test]
fn suss_round_schedule_is_identical_across_transports() {
    // The SUSS-specific slice of the equivalence: its per-round growth
    // estimates and pacing plan fire identically on both transports
    // (already asserted record-for-record inside `replay`; here we check
    // the schedule actually engaged, so the assertion has teeth).
    let out = replay(CcKind::CubicSuss);
    let rounds: Vec<(u32, u32)> = out
        .events
        .iter()
        .filter_map(|e| match e {
            CcEvent::SussRound { round, k } => Some((*round, *k)),
            _ => None,
        })
        .collect();
    assert!(
        !rounds.is_empty(),
        "SUSS must estimate at least one slow-start round"
    );
    assert!(
        rounds.windows(2).all(|w| w[0].0 < w[1].0),
        "round indices must ascend: {rounds:?}"
    );
    assert!(
        out.events
            .iter()
            .any(|e| matches!(e, CcEvent::SussPacingStarted { .. })),
        "SUSS pacing must start during the clean slow-start rounds"
    );
}

#[test]
fn bbr_suss_boost_follows_the_same_schedule() {
    // The BBR+SUSS extension must also be transport-equivalent with its
    // SUSS machinery engaged, not just idling. (It reports boost windows
    // as `SussPacingStarted`; per-round estimates stay internal.)
    let out = replay(CcKind::BbrSuss);
    assert!(
        out.events
            .iter()
            .any(|e| matches!(e, CcEvent::SussPacingStarted { .. })),
        "BBR+SUSS must arm a STARTUP boost during clean slow start"
    );
}
