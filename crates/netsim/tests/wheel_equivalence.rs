//! Scheduler-equivalence contract: the timer wheel must dispatch events in
//! exactly the order the binary heap did, so every simulation observable —
//! delivery traces, counter totals, RNG draws — is byte-identical across
//! engine configurations.

use netsim::{
    Agent, Bandwidth, Ctx, EngineConfig, FaultPlan, FlapWindow, FlowId, GilbertElliott,
    JitterModel, LinkId, LinkSpec, Packet, SchedulerKind, Sim, SimTime,
};
use std::any::Any;
use std::time::Duration;

/// Echoes every packet back and logs everything it observes.
struct Echo {
    out: Option<LinkId>,
    got: Vec<(SimTime, u64)>,
    timer_log: Vec<(SimTime, u64)>,
}

impl Echo {
    fn new() -> Self {
        Echo {
            out: None,
            got: Vec::new(),
            timer_log: Vec::new(),
        }
    }
}

impl Agent for Echo {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.got.push((ctx.now(), pkt.id));
        if let Some(out) = self.out {
            ctx.send(out, Packet::opaque(pkt.flow, pkt.dst, pkt.src, pkt.size));
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.timer_log.push((ctx.now(), token));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Timestamped packet ids or timer tokens, in dispatch order.
type Trace = Vec<(SimTime, u64)>;

/// A jittery, lossy ping-pong mesh: enough concurrent events, RNG draws,
/// and FIFO clamping to catch any ordering divergence between schedulers.
fn echo_mesh_trace(engine: EngineConfig) -> (Trace, Trace) {
    let mut sim = Sim::with_engine(99, engine);
    let a = sim.add_agent(Box::new(Echo::new()));
    let b = sim.add_agent(Box::new(Echo::new()));
    let spec = |delay_ms| {
        LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(delay_ms))
            .with_jitter(JitterModel::correlated(Duration::from_millis(2), 0.5))
            .with_loss(0.02)
            .with_queue_bytes(20_000)
    };
    let (ab, ba) = sim.add_link(a, b, spec(7), spec(12));
    sim.agent_mut::<Echo>(b).out = Some(ba);
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        for i in 0..300u64 {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1200));
            // Timers interleaved with traffic, some at equal instants.
            ctx.set_timer(SimTime::from_millis(i / 3), i);
        }
        // Far timers that cross the wheel's overflow boundary.
        for i in 0..10u64 {
            ctx.set_timer(SimTime::from_secs(i), 1000 + i);
        }
    });
    sim.run_to_completion();
    let got_b = sim.agent::<Echo>(b).got.clone();
    let timers_a = sim.agent::<Echo>(a).timer_log.clone();
    (got_b, timers_a)
}

#[test]
fn wheel_reproduces_heap_dispatch_order() {
    // Heap + no pooling + no batching vs the full default engine: the
    // observable trace must not care about any engine knob.
    let heap = echo_mesh_trace(EngineConfig::baseline());
    let wheel = echo_mesh_trace(EngineConfig::default());
    assert_eq!(heap, wheel, "schedulers must dispatch identically");
}

/// The echo mesh again, with every fault family active on the a→b
/// direction: fault RNG substreams and the reorder/duplication event
/// churn must replay identically on both schedulers.
fn faulted_mesh_trace(engine: EngineConfig) -> (Trace, Trace) {
    let mut sim = Sim::with_engine(42, engine);
    let a = sim.add_agent(Box::new(Echo::new()));
    let b = sim.add_agent(Box::new(Echo::new()));
    let plan = FaultPlan::new()
        .with_ge(GilbertElliott::gilbert(0.05, 0.3, 0.8))
        .with_flaps(vec![FlapWindow {
            down: SimTime::from_millis(40),
            up: SimTime::from_millis(70),
        }])
        .with_reorder(0.1, Duration::from_millis(3))
        .with_duplicate(0.05)
        .with_delay_steps(vec![(SimTime::from_millis(30), Duration::from_millis(5))]);
    let fwd = LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(7))
        .with_jitter(JitterModel::correlated(Duration::from_millis(2), 0.5))
        .with_loss(0.02)
        .with_queue_bytes(20_000)
        .with_faults(plan);
    let rev = LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(12))
        .with_queue_bytes(20_000);
    let (ab, ba) = sim.add_link(a, b, fwd, rev);
    sim.agent_mut::<Echo>(b).out = Some(ba);
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        for i in 0..300u64 {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1200));
            ctx.set_timer(SimTime::from_millis(i / 3), i);
        }
    });
    sim.run_to_completion();
    let got_b = sim.agent::<Echo>(b).got.clone();
    let timers_a = sim.agent::<Echo>(a).timer_log.clone();
    (got_b, timers_a)
}

#[test]
fn wheel_reproduces_heap_dispatch_order_under_faults() {
    let heap = faulted_mesh_trace(EngineConfig::baseline());
    let wheel = faulted_mesh_trace(EngineConfig::default());
    assert!(
        !heap.0.is_empty(),
        "faulted mesh must still deliver packets"
    );
    assert_eq!(heap, wheel, "faulted schedules must dispatch identically");
}

#[test]
fn counter_totals_identical_across_engines() {
    let snap = |engine| {
        let mut sim = Sim::with_engine(5, engine);
        let a = sim.add_agent(Box::new(Echo::new()));
        let b = sim.add_agent(Box::new(Echo::new()));
        let spec = LinkSpec::clean(Bandwidth::from_mbps(5), Duration::from_millis(30))
            .with_queue_bytes(6_000);
        let ab = sim.add_half_link(a, b, spec);
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            for _ in 0..50 {
                ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1500));
            }
        });
        sim.run_to_completion();
        sim.metrics().snapshot()
    };
    let heap = snap(EngineConfig {
        scheduler: SchedulerKind::BinaryHeap,
        payload_pooling: true,
        batched_delivery: false,
    });
    let wheel = snap(EngineConfig::default());
    // `net.sched_*` counters are engine-internal (cascades are always 0 on
    // the heap, batched coalesces 0 without batching); everything else
    // must match value-for-value.
    for (name, delta) in wheel.diff(&heap) {
        if name.starts_with("net.sched_") {
            continue;
        }
        assert_eq!(delta, 0, "counter {name} differs between schedulers");
    }
}

/// Same-tick batching contract: coalescing same-instant same-link
/// deliveries into one queue pass must leave every observable —
/// delivery traces, timer logs, counter totals — byte-identical to the
/// unbatched baseline, while actually batching something.
#[test]
fn batched_delivery_is_byte_identical_to_baseline() {
    let batched_cfg = EngineConfig {
        batched_delivery: true,
        ..EngineConfig::baseline()
    };
    assert_eq!(
        echo_mesh_trace(batched_cfg),
        echo_mesh_trace(EngineConfig::baseline()),
        "batching must not change the echo-mesh trace"
    );
    assert_eq!(
        faulted_mesh_trace(batched_cfg),
        faulted_mesh_trace(EngineConfig::baseline()),
        "batching must not change the faulted trace"
    );
    // Serialization times round up to ≥1 ns, so back-to-back packets never
    // share an arrival tick — but duplication faults deliver a twin at the
    // *same* instant over the same link, exercising the batch loop for
    // real: every twin coalesces into its original's dispatch.
    let burst = |engine: EngineConfig| {
        let mut sim = Sim::with_engine(17, engine);
        let a = sim.add_agent(Box::new(Echo::new()));
        let b = sim.add_agent(Box::new(Echo::new()));
        let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::from_millis(5))
            .with_faults(FaultPlan::new().with_duplicate(1.0));
        let ab = sim.add_half_link(a, b, spec);
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            for _ in 0..64 {
                ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1200));
            }
        });
        sim.run_to_completion();
        let got = sim.agent::<Echo>(b).got.clone();
        let batched = sim
            .metrics()
            .snapshot()
            .get(simtrace::names::NET_SCHED_BATCHED)
            .unwrap_or(0);
        (got, batched)
    };
    let (got_batched, n_batched) = burst(batched_cfg);
    let (got_plain, n_plain) = burst(EngineConfig::baseline());
    assert_eq!(got_batched, got_plain, "burst trace must match");
    assert!(
        n_batched > 50,
        "same-instant burst must actually coalesce ({n_batched})"
    );
    assert_eq!(n_plain, 0, "baseline must never batch");
}

#[test]
fn far_timers_cascade_and_fire_in_order() {
    let mut sim = Sim::new(1);
    let a = sim.add_agent(Box::new(Echo::new()));
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        // Spread across seconds: far beyond the wheel window, forcing the
        // overflow heap and cascade path.
        for i in (0..40u64).rev() {
            ctx.set_timer(SimTime::from_millis(i * 400), i);
        }
    });
    sim.run_to_completion();
    let tokens: Vec<u64> = sim.agent::<Echo>(a).timer_log.iter().map(|t| t.1).collect();
    assert_eq!(tokens, (0..40).collect::<Vec<_>>());
    let cascades = sim
        .metrics()
        .snapshot()
        .get(simtrace::names::NET_SCHED_CASCADES)
        .unwrap_or(0);
    assert!(cascades > 0, "far timers must go through the overflow heap");
}

#[test]
fn run_until_across_idle_stretches() {
    // Deadlines far past the last event leave `now` well ahead of the
    // wheel cursor; scheduling afterwards must still dispatch correctly.
    let mut sim = Sim::new(1);
    let a = sim.add_agent(Box::new(Echo::new()));
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        ctx.set_timer(SimTime::from_millis(1), 1);
    });
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.now(), SimTime::from_secs(10));
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        ctx.set_timer(SimTime::from_secs(11), 2);
        ctx.set_timer(SimTime::from_millis(10_500), 3);
    });
    sim.run_until(SimTime::from_secs(20));
    let log = &sim.agent::<Echo>(a).timer_log;
    assert_eq!(
        log,
        &vec![
            (SimTime::from_millis(1), 1),
            (SimTime::from_millis(10_500), 3),
            (SimTime::from_secs(11), 2),
        ]
    );
}

/// Endpoint pair exchanging typed payloads through the pool-aware path.
struct PoolPing {
    out: Option<LinkId>,
    replies: u32,
    seen: Vec<u64>,
}

impl Agent for PoolPing {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let (val, meta) = ctx.take_payload::<u64>(pkt).expect("typed payload");
        self.seen.push(val);
        if let Some(out) = self.out {
            if self.replies > 0 {
                self.replies -= 1;
                let boxed = ctx.alloc_payload(val + 1);
                ctx.send(
                    out,
                    Packet::with_boxed_payload(meta.flow, meta.dst, meta.src, meta.size, boxed),
                );
            }
        }
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn payload_pool_recycles_on_the_echo_path() {
    let run = |engine: EngineConfig| {
        let mut sim = Sim::with_engine(3, engine);
        let a = sim.add_agent(Box::new(PoolPing {
            out: None,
            replies: 0,
            seen: Vec::new(),
        }));
        let b = sim.add_agent(Box::new(PoolPing {
            out: None,
            replies: 100,
            seen: Vec::new(),
        }));
        let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(2));
        let (ab, ba) = sim.add_link(a, b, spec.clone(), spec);
        sim.agent_mut::<PoolPing>(a).out = Some(ab);
        sim.agent_mut::<PoolPing>(a).replies = 100;
        sim.agent_mut::<PoolPing>(b).out = Some(ba);
        sim.with_agent_ctx::<PoolPing, _>(a, |_, ctx| {
            let boxed = ctx.alloc_payload(0u64);
            ctx.send(ab, Packet::with_boxed_payload(FlowId(1), a, b, 500, boxed));
        });
        sim.run_to_completion();
        let snap = sim.metrics().snapshot();
        (
            sim.agent::<PoolPing>(b).seen.clone(),
            snap.get(simtrace::names::NET_POOL_HITS).unwrap_or(0),
        )
    };
    let (seen_pooled, hits) = run(EngineConfig::default());
    let (seen_plain, no_hits) = run(EngineConfig::baseline());
    assert_eq!(seen_pooled, seen_plain, "pooling must be value-transparent");
    assert!(
        hits > 50,
        "steady-state ping-pong must reuse boxes ({hits})"
    );
    assert_eq!(no_hits, 0, "disabled pool must never hit");
}
