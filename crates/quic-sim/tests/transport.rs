//! End-to-end transport tests: the QUIC endpoints complete flows on the
//! netsim engine, under every `cc-algos` controller through the
//! `QuicAdapter` (the adapter round-trip), with working loss
//! recovery, SUSS acceleration, and deterministic results.

use cc_algos::{make_quic_controller, CcKind};
use netsim::{Bandwidth, EngineConfig, FlowId, LinkSpec, Sim, SimTime};
use quic_sim::{
    install_quic_flow, wire_quic_flow, PacingStrategy, QuicConfig, QuicReceiver, QuicSender,
};
use std::time::Duration;
use suss_core::{CcEvent, TraceEvent};

const MSS: u64 = 1_448;
const IW: u64 = 10 * MSS;

struct RunResult {
    fct: Option<Duration>,
    pkts_sent: u64,
    pkts_retransmitted: u64,
    pkts_lost: u64,
    ptos: u64,
    suss_pacings: usize,
    counters: simtrace::CounterSnapshot,
}

/// One QUIC download over a symmetric clean-ish path.
#[allow(clippy::too_many_arguments)]
fn run_quic(
    kind: CcKind,
    flow_bytes: u64,
    seed: u64,
    strategy: PacingStrategy,
    loss: f64,
    queue_bytes: u64,
    engine: EngineConfig,
    tracing: bool,
) -> RunResult {
    let mut sim = Sim::with_engine(seed, engine);
    let mut cfg = QuicConfig::bulk(flow_bytes).with_strategy(strategy);
    cfg.trace_sampling = tracing;
    let ends = install_quic_flow(
        &mut sim,
        FlowId(1),
        cfg,
        make_quic_controller(kind, IW, MSS),
    );
    let data = LinkSpec::clean(Bandwidth::from_mbps(50), Duration::from_millis(25))
        .with_loss(loss)
        .with_queue_bytes(queue_bytes);
    let ack = LinkSpec::clean(Bandwidth::from_mbps(50), Duration::from_millis(25));
    let s2r = sim.add_half_link(ends.sender, ends.receiver, data);
    let r2s = sim.add_half_link(ends.receiver, ends.sender, ack);
    wire_quic_flow(&mut sim, ends, s2r, r2s);

    sim.run_while(SimTime::from_secs(120), |sim| {
        !sim.agent::<QuicSender>(ends.sender).is_done()
    });

    let started = {
        let snd = sim.agent::<QuicSender>(ends.sender);
        snd.stats.started_at.unwrap_or(SimTime::ZERO)
    };
    let rcv_done = sim.agent::<QuicReceiver>(ends.receiver).completed_at();
    let snd = sim.agent::<QuicSender>(ends.sender);
    RunResult {
        fct: rcv_done.map(|t| t.saturating_since(started)),
        pkts_sent: snd.stats.pkts_sent,
        pkts_retransmitted: snd.stats.pkts_retransmitted,
        pkts_lost: snd.stats.pkts_lost,
        ptos: snd.stats.ptos,
        suss_pacings: snd
            .trace
            .events
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::Cc(CcEvent::SussPacingStarted { .. })))
            .count(),
        counters: sim.metrics().snapshot(),
    }
}

#[test]
fn every_controller_completes_a_clean_flow() {
    // The adapter round-trip: each cc-algos controller drives the QUIC
    // transport end to end through `QuicAdapter` alone.
    for kind in [
        CcKind::Reno,
        CcKind::Cubic,
        CcKind::CubicSuss,
        CcKind::CubicHspp,
        CcKind::Bbr,
        CcKind::Bbr2,
        CcKind::BbrSuss,
    ] {
        let out = run_quic(
            kind,
            2_000_000,
            7,
            PacingStrategy::PerPacket,
            0.0,
            u64::MAX,
            EngineConfig::default(),
            false,
        );
        let fct = out
            .fct
            .unwrap_or_else(|| panic!("{kind:?} did not complete"));
        assert!(fct < Duration::from_secs(10), "{kind:?} fct {fct:?}");
        assert_eq!(out.pkts_retransmitted, 0, "{kind:?} clean path");
        assert_eq!(out.pkts_lost, 0, "{kind:?}");
        assert!(out.pkts_sent >= 2_000_000 / MSS, "{kind:?}");
    }
}

/// Lossy downloads whose exact outcome is pinned: random loss and a
/// shallow drop-tail queue drive the packet and time thresholds, the NAK
/// list and PTO probes (30% loss strands tails that only a probe
/// repairs). `(cc, loss, queue_bytes)`.
const LOSSY_CASES: [(CcKind, f64, u64); 3] = [
    (CcKind::Cubic, 0.01, u64::MAX),
    (CcKind::CubicSuss, 0.0, 30_000),
    (CcKind::Cubic, 0.3, u64::MAX),
];

/// Golden `(fct_ns, pkts_sent, pkts_retransmitted, pkts_lost, ptos)` per
/// [`LOSSY_CASES`] entry.
const GOLD_LOSSY: [(u128, u64, u64, u64, u64); 3] = [
    (1_006_718_628, 694, 3, 3, 0),
    (328_695_049, 1_134, 443, 443, 0),
    (53_817_088_840, 1_070, 379, 327, 80),
];

fn lossy_outcomes() -> Vec<(u128, u64, u64, u64, u64)> {
    LOSSY_CASES
        .iter()
        .map(|&(kind, loss, queue)| {
            let out = run_quic(
                kind,
                1_000_000,
                11,
                PacingStrategy::PerPacket,
                loss,
                queue,
                EngineConfig::default(),
                false,
            );
            let fct = out.fct.expect("lossy flow must complete").as_nanos();
            (
                fct,
                out.pkts_sent,
                out.pkts_retransmitted,
                out.pkts_lost,
                out.ptos,
            )
        })
        .collect()
}

#[test]
fn lossy_downloads_match_golden() {
    let got = lossy_outcomes();
    assert_eq!(got, GOLD_LOSSY, "(fct_ns, sent, rtx, lost, ptos) per case");
    assert!(got.iter().all(|o| o.3 > 0), "every case must lose packets");
}

/// Regeneration helper: run with `-- --ignored --nocapture` and paste.
#[test]
#[ignore = "golden generator, run with --ignored --nocapture"]
fn print_lossy_golden() {
    println!(
        "const GOLD_LOSSY: [(u128, u64, u64, u64, u64); 3] = {:?};",
        lossy_outcomes()
    );
}

#[test]
fn loss_recovery_completes_under_random_loss() {
    // 1% i.i.d. loss: the detector + NAK list must repair every hole.
    let out = run_quic(
        CcKind::Cubic,
        1_000_000,
        3,
        PacingStrategy::PerPacket,
        0.01,
        u64::MAX,
        EngineConfig::default(),
        false,
    );
    let fct = out.fct.expect("lossy flow must still complete");
    assert!(fct < Duration::from_secs(60), "fct {fct:?}");
    assert!(out.pkts_lost > 0, "1% loss on ~700 pkts must hit");
    assert!(out.pkts_retransmitted >= out.pkts_lost - out.ptos.min(out.pkts_lost));
    assert_eq!(
        out.counters.get("quic.pkts_lost").unwrap_or(0),
        out.pkts_lost
    );
}

#[test]
fn all_strategies_complete_and_counters_flow() {
    for strategy in PacingStrategy::matrix() {
        let out = run_quic(
            CcKind::CubicSuss,
            1_000_000,
            5,
            strategy,
            0.0,
            u64::MAX,
            EngineConfig::default(),
            false,
        );
        assert!(out.fct.is_some(), "{strategy:?}");
        assert_eq!(
            out.counters.get("quic.pkts_sent").unwrap_or(0),
            out.pkts_sent,
            "{strategy:?}"
        );
        assert!(
            out.counters.get("quic.acks_sent").unwrap_or(0) >= out.pkts_sent,
            "{strategy:?}: per-packet acking"
        );
    }
}

#[test]
fn suss_schedules_pacing_and_beats_cubic_on_clean_path() {
    // SUSS must fire its pacing plan through the QUIC interface and
    // finish a mid-size download no later than stock CUBIC.
    let suss = run_quic(
        CcKind::CubicSuss,
        4_000_000,
        11,
        PacingStrategy::PerPacket,
        0.0,
        u64::MAX,
        EngineConfig::default(),
        true,
    );
    let cubic = run_quic(
        CcKind::Cubic,
        4_000_000,
        11,
        PacingStrategy::PerPacket,
        0.0,
        u64::MAX,
        EngineConfig::default(),
        true,
    );
    assert!(suss.suss_pacings > 0, "SUSS pacing must engage over QUIC");
    assert_eq!(
        suss.counters.get("suss.pacing_rounds").unwrap_or(0),
        suss.suss_pacings as u64
    );
    let (f_s, f_c) = (suss.fct.unwrap(), cubic.fct.unwrap());
    assert!(
        f_s <= f_c,
        "SUSS {f_s:?} should not lose to CUBIC {f_c:?} on a clean path"
    );
}

#[test]
fn runs_are_deterministic_across_engines() {
    // Same seed ⇒ identical outcomes, and the timer-wheel engine must
    // agree with the binary-heap baseline byte for byte.
    let mk = |engine: EngineConfig| {
        run_quic(
            CcKind::CubicSuss,
            1_500_000,
            42,
            PacingStrategy::Burst(8),
            0.005,
            64 * 1024,
            engine,
            false,
        )
    };
    let a = mk(EngineConfig::default());
    let b = mk(EngineConfig::default());
    let c = mk(EngineConfig::baseline());
    for (x, name) in [(&b, "repeat"), (&c, "baseline engine")] {
        assert_eq!(a.fct, x.fct, "{name}");
        assert_eq!(a.pkts_sent, x.pkts_sent, "{name}");
        assert_eq!(a.pkts_retransmitted, x.pkts_retransmitted, "{name}");
        assert_eq!(a.pkts_lost, x.pkts_lost, "{name}");
        assert_eq!(a.ptos, x.ptos, "{name}");
    }
}

#[test]
fn chunked_pacing_defers_more_sends_than_per_packet() {
    // The strategies must actually behave differently on the wire: the
    // chunked sender sleeps on the interval grid (pace-delay timers),
    // while unlimited-phase per-packet sending arms far fewer.
    let chunked = run_quic(
        CcKind::Cubic,
        2_000_000,
        9,
        PacingStrategy::Chunked(Duration::from_millis(5)),
        0.0,
        u64::MAX,
        EngineConfig::default(),
        false,
    );
    let per_pkt = run_quic(
        CcKind::Cubic,
        2_000_000,
        9,
        PacingStrategy::PerPacket,
        0.0,
        u64::MAX,
        EngineConfig::default(),
        false,
    );
    assert!(chunked.counters.get("quic.pace_delays").unwrap_or(0) > 0);
    assert!(per_pkt.counters.get("quic.pace_delays").unwrap_or(0) > 0);
    assert!(chunked.fct.is_some() && per_pkt.fct.is_some());
}
