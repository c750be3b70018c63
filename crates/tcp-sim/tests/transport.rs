//! End-to-end transport tests: sender + receiver over netsim links.

use netsim::{Bandwidth, FlowId, LinkSpec, Sim, SimTime};
use std::time::Duration;
use suss_core::trace::TraceEvent;
use tcp_sim::cc::{BasicSlowStart, FixedCwnd};
use tcp_sim::flow::{install_flow, wire_flow, FlowEnds};
use tcp_sim::receiver::{AckPolicy, ReceiverEndpoint};
use tcp_sim::sender::{SenderConfig, SenderEndpoint};

const MSS: u64 = 1448;

/// Build a single-flow sim over a symmetric direct link.
fn direct_link_flow(
    seed: u64,
    flow_bytes: u64,
    spec: LinkSpec,
    cc: Box<dyn suss_core::cc::CongestionControl>,
    policy: AckPolicy,
    tracing: bool,
) -> (Sim, FlowEnds) {
    let mut sim = Sim::new(seed);
    let mut cfg = SenderConfig::bulk(flow_bytes);
    cfg.trace_sampling = tracing;
    let ends = install_flow(&mut sim, FlowId(1), cfg, cc, policy);
    // ACK-path link: generous and clean, as in the paper's testbeds.
    let ack_spec = LinkSpec::clean(Bandwidth::from_mbps(1000), spec.delay);
    let s2r = sim.add_half_link(ends.sender, ends.receiver, spec);
    let r2s = sim.add_half_link(ends.receiver, ends.sender, ack_spec);
    wire_flow(&mut sim, ends, s2r, r2s);
    (sim, ends)
}

#[test]
fn bulk_transfer_completes_and_fct_is_sane() {
    // 1 MB at 10 Mbps, 20 ms RTT: serialization alone is ~0.84 s.
    let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(10));
    let (mut sim, ends) = direct_link_flow(
        1,
        1_000_000,
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
        false,
    );
    sim.run_until(SimTime::from_secs(30));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done());
    let fct = snd.stats.fct().unwrap();
    assert!(fct > Duration::from_millis(840), "fct {fct:?}");
    assert!(fct < Duration::from_secs(3), "fct {fct:?}");
    assert_eq!(
        snd.stats.segs_retransmitted, 0,
        "clean path: no retransmits"
    );
    let rcv = sim.agent::<ReceiverEndpoint>(ends.receiver);
    assert_eq!(rcv.in_order_bytes(), 1_000_000);
    assert!(rcv.completed_at().is_some());
}

#[test]
fn slow_start_doubles_cwnd_per_round() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::from_millis(50));
    let (mut sim, ends) = direct_link_flow(
        2,
        4_000_000,
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
        true,
    );
    sim.run_until(SimTime::from_secs(10));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done());
    // cwnd at ~1.5 RTT in (during round 2) should be between iw and 2iw;
    // at ~2.5 RTT between 2iw and 4iw.
    let tr = &snd.trace;
    let cwnd_at = |ms: u64| {
        tr.samples
            .iter()
            .take_while(|s| s.t <= SimTime::from_millis(ms))
            .last()
            .map(|s| s.cwnd)
            .unwrap_or(0)
    };
    let c1 = cwnd_at(160); // mid round 2 (RTT = 100 ms)
    let c2 = cwnd_at(260); // mid round 3
    assert!(c1 > 10 * MSS && c1 <= 20 * MSS, "c1 = {c1}");
    assert!(c2 > 20 * MSS && c2 <= 40 * MSS, "c2 = {c2}");
}

#[test]
fn random_loss_is_recovered_via_fast_retransmit() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(10)).with_loss(0.02);
    let (mut sim, ends) = direct_link_flow(
        3,
        2_000_000,
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
        false,
    );
    sim.run_until(SimTime::from_secs(60));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done(), "flow must complete despite 2% loss");
    assert!(snd.stats.segs_retransmitted > 0);
    assert!(
        snd.stats.fast_retransmits > 0,
        "losses should mostly be repaired by fast retransmit"
    );
    let rcv = sim.agent::<ReceiverEndpoint>(ends.receiver);
    assert_eq!(
        rcv.in_order_bytes(),
        2_000_000,
        "stream must be complete and exact"
    );
}

#[test]
fn heavy_loss_still_completes_with_rtos() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(5)).with_loss(0.15);
    let (mut sim, ends) = direct_link_flow(
        4,
        300_000,
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
        false,
    );
    sim.run_until(SimTime::from_secs(300));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done(), "flow must survive 15% loss");
}

#[test]
fn buffer_overflow_losses_are_repaired() {
    // Tiny bottleneck buffer + a fixed window ~3x above BDP+buffer:
    // guaranteed recurring tail drops, yet a recoverable regime (a window
    // pinned far beyond that would re-flood the 8-packet buffer after
    // every RTO — no transport can drain that efficiently, and no real
    // controller holds cwnd fixed through sustained loss).
    let spec = LinkSpec::clean(Bandwidth::from_mbps(5), Duration::from_millis(20))
        .with_queue_bytes(8 * 1500);
    let (mut sim, ends) = direct_link_flow(
        5,
        1_000_000,
        spec,
        Box::new(FixedCwnd::new(40 * MSS)),
        AckPolicy::default(),
        false,
    );
    sim.run_until(SimTime::from_secs(120));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done());
    assert!(
        snd.stats.segs_retransmitted > 0,
        "overflow must cause retransmits"
    );
    let rcv = sim.agent::<ReceiverEndpoint>(ends.receiver);
    assert_eq!(rcv.in_order_bytes(), 1_000_000);
}

#[test]
fn total_blackout_triggers_rto_backoff_then_completes() {
    // The link loses everything for the first 3 seconds (rate schedule
    // trick: run fine, but we emulate blackout with 100% loss is not
    // possible via schedule — use an initially minuscule rate instead).
    let sched = netsim::RateSchedule::steps(vec![
        (SimTime::ZERO, Bandwidth::from_bps(800)), // ~1 pkt per 15 s: stalls
        (SimTime::from_secs(3), Bandwidth::from_mbps(10)),
    ]);
    let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(5))
        .with_rate_schedule(sched)
        .with_queue_bytes(4 * 1500);
    let (mut sim, ends) = direct_link_flow(
        6,
        200_000,
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
        false,
    );
    sim.run_until(SimTime::from_secs(120));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done());
    assert!(snd.stats.rtos >= 1, "initial stall must fire the RTO");
}

#[test]
fn delayed_acks_still_complete_transfer() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(10));
    let (mut sim, ends) = direct_link_flow(
        7,
        500_000,
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::delayed(),
        false,
    );
    sim.run_until(SimTime::from_secs(30));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done());
    let rcv = sim.agent::<ReceiverEndpoint>(ends.receiver);
    // Roughly half as many ACKs as segments.
    assert!(
        rcv.acks_sent < rcv.segs_received * 3 / 4,
        "acks {} vs segs {}",
        rcv.acks_sent,
        rcv.segs_received
    );
}

#[test]
fn trace_records_lifecycle_events() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(10));
    let (mut sim, ends) = direct_link_flow(
        8,
        100_000,
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
        true,
    );
    sim.run_until(SimTime::from_secs(10));
    let tr = &sim.agent::<SenderEndpoint>(ends.sender).trace;
    assert!(tr
        .find_event(|e| matches!(e, TraceEvent::FlowStart))
        .is_some());
    assert!(tr
        .find_event(|e| matches!(e, TraceEvent::FlowComplete))
        .is_some());
    assert!(!tr.samples.is_empty());
    // Delivered bytes are monotone.
    assert!(tr
        .samples
        .windows(2)
        .all(|w| w[0].delivered <= w[1].delivered));
}

#[test]
fn rtt_estimator_sees_path_rtt() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::from_millis(30));
    let (mut sim, ends) = direct_link_flow(
        9,
        500_000,
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
        false,
    );
    sim.run_until(SimTime::from_secs(10));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    let min_rtt = snd.rtt().min_rtt().unwrap();
    // One-way 30 ms each direction plus serialization: ~60–62 ms.
    assert!(min_rtt >= Duration::from_millis(60), "min_rtt {min_rtt:?}");
    assert!(min_rtt <= Duration::from_millis(65), "min_rtt {min_rtt:?}");
}

#[test]
fn determinism_across_identical_runs() {
    let run = |seed: u64| {
        let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(10))
            .with_loss(0.03)
            .with_jitter(netsim::JitterModel::gaussian(Duration::from_millis(2)));
        let (mut sim, ends) = direct_link_flow(
            seed,
            400_000,
            spec,
            Box::new(BasicSlowStart::new(10 * MSS, MSS)),
            AckPolicy::default(),
            false,
        );
        sim.run_until(SimTime::from_secs(60));
        let snd = sim.agent::<SenderEndpoint>(ends.sender);
        (
            snd.stats.fct(),
            snd.stats.segs_sent,
            snd.stats.segs_retransmitted,
        )
    };
    assert_eq!(run(42), run(42), "identical seeds must replay identically");
    assert_ne!(run(42), run(43), "different seeds should differ");
}

#[test]
fn tiny_flow_single_segment() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(10));
    let (mut sim, ends) = direct_link_flow(
        10,
        500, // sub-MSS flow
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
        false,
    );
    sim.run_until(SimTime::from_secs(5));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done());
    assert_eq!(snd.stats.segs_sent, 1);
    // FCT ≈ one RTT.
    let fct = snd.stats.fct().unwrap();
    assert!(fct >= Duration::from_millis(20) && fct < Duration::from_millis(25));
}

#[test]
fn throughput_matches_bottleneck_for_long_flow() {
    // 5 MB at 20 Mbps => at least 2 s of serialization; FCT should be
    // within 25% of the fluid-model lower bound once slow start finishes.
    let spec = LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(10))
        .with_queue_bdp(Duration::from_millis(20), 2.0);
    let (mut sim, ends) = direct_link_flow(
        11,
        5_000_000,
        spec,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
        false,
    );
    sim.run_until(SimTime::from_secs(30));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done());
    let fct = snd.stats.fct().unwrap().as_secs_f64();
    let fluid = 5_000_000.0 * 8.0 / 20e6;
    assert!(fct >= fluid, "fct {fct} below physical bound {fluid}");
    assert!(fct < fluid * 1.4, "fct {fct} too far above bound {fluid}");
}

#[test]
fn receiver_window_limits_throughput() {
    // Receiver buffer of 4 MSS on a path whose BDP is ~86 KB: the transfer
    // becomes receiver-limited at ~4 MSS per RTT regardless of cwnd.
    let spec = LinkSpec::clean(Bandwidth::from_mbps(50), Duration::from_millis(10));
    let policy = AckPolicy::default().with_recv_buffer(4 * MSS);
    let (mut sim, ends) = direct_link_flow(
        12,
        500_000,
        spec.clone(),
        Box::new(FixedCwnd::new(1_000 * MSS)),
        policy,
        false,
    );
    sim.run_until(SimTime::from_secs(60));
    let limited = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(limited.is_done());
    let fct_limited = limited.stats.fct().unwrap();

    let (mut sim2, ends2) = direct_link_flow(
        12,
        500_000,
        spec,
        Box::new(FixedCwnd::new(1_000 * MSS)),
        AckPolicy::default(),
        false,
    );
    sim2.run_until(SimTime::from_secs(60));
    let open = sim2.agent::<SenderEndpoint>(ends2.sender);
    let fct_open = open.stats.fct().unwrap();

    // ~4 MSS per 20 ms RTT ≈ 290 kB/s: 500 kB needs well over a second,
    // while the unconstrained run finishes in a few RTTs.
    assert!(
        fct_limited.as_secs_f64() > 3.0 * fct_open.as_secs_f64(),
        "limited {fct_limited:?} vs open {fct_open:?}"
    );
}
