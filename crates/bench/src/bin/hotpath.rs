//! Engine A/B snapshot: events/sec under the binary-heap baseline vs the
//! timer-wheel + payload-pool engine, on the same seeded workloads.
//!
//! Two measurements, both written to `results/BENCH_hotpath.json` (run via
//! `scripts/bench_snapshot.sh`):
//!
//! * `sched_microbench` — pure timer churn through [`suss_bench::timer_churn`],
//!   isolating per-event scheduler cost;
//! * `end_to_end` — a many-flow dumbbell download run as a `FlowGrid`
//!   campaign under each engine, asserting the results are byte-identical
//!   (the scheduler-equivalence contract) before comparing wall time.
//!
//! Both arms repeat the identical deterministic workload `reps` times,
//! interleaved, and the fastest repetition per arm counts — the usual
//! guard against scheduler noise and frequency drift on a shared machine.

use cc_algos::CcKind;
use experiments::{DumbbellFlow, FlowGrid, FlowGridRun};
use netsim::SimTime;
use simrunner::RunnerOpts;
use std::time::Duration;
use suss_bench::BenchCli;
use workload::DumbbellConfig;

/// Counters that legitimately differ across engines: scheduler internals
/// and pool effectiveness, never simulation results.
const ENGINE_VARIANT_COUNTERS: &[&str] = &[
    simtrace::names::NET_SCHED_CASCADES,
    simtrace::names::NET_POOL_HITS,
    simtrace::names::NET_POOL_MISSES,
];

struct Arm {
    run: FlowGridRun,
    best_secs: f64,
    events: u64,
}

impl Arm {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.best_secs.max(1e-9)
    }
}

/// The measured workload: `pairs` simultaneous downloads through a shared
/// 400 Mbps bottleneck (300 ms RTT, 1-BDP buffer). The fat pipe keeps
/// thousands of arrival events pending while SUSS pacing adds dense timer
/// churn — the event population the scheduler redesign targets.
fn dumbbell_cfg(pairs: usize) -> DumbbellConfig {
    let mut cfg = DumbbellConfig::fairness(Duration::from_millis(300), 1.0, pairs);
    cfg.bottleneck = netsim::Bandwidth::from_mbps(400);
    cfg
}

/// One end-to-end cell: run the whole dumbbell, report flow 0's outcome
/// carrying the simulation-wide counters and the shared bottleneck drops.
fn run_dumbbell_cell(
    engine: netsim::EngineConfig,
    pairs: usize,
    size: u64,
    seed: u64,
) -> experiments::FlowOutcome {
    let cfg = dumbbell_cfg(pairs);
    let flows: Vec<DumbbellFlow> = (0..pairs)
        .map(|i| {
            // Staggered joins (10 ms apart) so slow starts overlap instead
            // of synchronizing.
            DumbbellFlow::download(CcKind::CubicSuss, size, SimTime::from_millis(10 * i as u64))
        })
        .collect();
    let out = experiments::run_dumbbell_engine(&cfg, &flows, seed, SimTime::from_secs(600), engine);
    let drops = out.bottleneck_drops;
    let mut f0 = out.flows.into_iter().next().expect("pairs > 0");
    f0.bottleneck_drops = drops;
    f0
}

/// One timed repetition of the dumbbell under one engine, as a serial,
/// uncached one-cell campaign, so wall time is pure simulation compute.
fn run_rep(tag: &str, engine: netsim::EngineConfig, pairs: usize, size: u64) -> (FlowGridRun, f64) {
    let mut grid = FlowGrid::new("bench_hotpath");
    grid.batch_fn(
        &format!("dumbbell/{pairs}x{size}B/{tag}"),
        &format!(
            "topo=dumbbell pairs={pairs} btlneck=400Mbps rtt=300ms buf=1.0bdp \
             cc=cubic+suss size={size} stagger=10ms engine={tag}"
        ),
        1,
        1,
        move |seed| run_dumbbell_cell(engine, pairs, size, seed),
    );
    let mut opts = RunnerOpts::serial();
    opts.progress = false;
    let t0 = std::time::Instant::now();
    let run = grid.run(&opts);
    (run, t0.elapsed().as_secs_f64())
}

/// Assert per-cell results are byte-identical across engines, modulo the
/// engine-internal counters. Exits non-zero on any divergence.
fn assert_identical(heap: &FlowGridRun, wheel: &FlowGridRun) {
    assert_eq!(heap.stats.len(), wheel.stats.len());
    for (i, (h, w)) in heap.stats.iter().zip(&wheel.stats).enumerate() {
        let (h, w) = (
            h.as_ref().expect("heap cell failed"),
            w.as_ref().expect("wheel cell failed"),
        );
        let mut bad: Vec<String> = Vec::new();
        if h.fct_secs.to_bits() != w.fct_secs.to_bits() {
            bad.push(format!("fct_secs {} vs {}", h.fct_secs, w.fct_secs));
        }
        if h.retransmit_rate.to_bits() != w.retransmit_rate.to_bits() {
            bad.push(format!(
                "retransmit_rate {} vs {}",
                h.retransmit_rate, w.retransmit_rate
            ));
        }
        if h.segs_sent != w.segs_sent {
            bad.push(format!("segs_sent {} vs {}", h.segs_sent, w.segs_sent));
        }
        if h.segs_retransmitted != w.segs_retransmitted {
            bad.push(format!(
                "segs_retransmitted {} vs {}",
                h.segs_retransmitted, w.segs_retransmitted
            ));
        }
        if h.bottleneck_drops != w.bottleneck_drops {
            bad.push(format!(
                "bottleneck_drops {} vs {}",
                h.bottleneck_drops, w.bottleneck_drops
            ));
        }
        for (name, delta) in h.counters.diff(&w.counters) {
            if delta != 0 && !ENGINE_VARIANT_COUNTERS.contains(&name.as_str()) {
                bad.push(format!("counter {name} differs by {delta}"));
            }
        }
        if !bad.is_empty() {
            eprintln!("engine divergence in cell {i}:");
            for b in &bad {
                eprintln!("  {b}");
            }
            std::process::exit(1);
        }
    }
}

fn json_escape_free(s: &str) -> &str {
    // All strings we embed are static tags/ids with no quotes/backslashes.
    debug_assert!(!s.contains('"') && !s.contains('\\'));
    s
}

fn main() {
    let o = BenchCli::parse("BENCH_hotpath");
    let (pairs, size, reps, churn_events) = if o.quick {
        (12usize, 2 * workload::MB, 5u32, 1_000_000u64)
    } else {
        (24usize, 4 * workload::MB, 5u32, 2_000_000u64)
    };
    let churn_pending = 4_096u64;

    // Warm up caches/allocator so the first timed repetition isn't penalized.
    suss_bench::timer_churn(netsim::EngineConfig::baseline(), 256, 10_000);
    suss_bench::timer_churn(netsim::EngineConfig::default(), 256, 10_000);

    eprintln!(
        "sched microbench: {churn_pending} pending timers, {churn_events} events, \
         best of {reps} interleaved reps per arm"
    );
    let mut churn_heap_best = f64::INFINITY;
    let mut churn_wheel_best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        suss_bench::timer_churn(
            netsim::EngineConfig::baseline(),
            churn_pending,
            churn_events,
        );
        churn_heap_best = churn_heap_best.min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        suss_bench::timer_churn(netsim::EngineConfig::default(), churn_pending, churn_events);
        churn_wheel_best = churn_wheel_best.min(t0.elapsed().as_secs_f64());
    }
    let churn_heap_rate = churn_events as f64 / churn_heap_best.max(1e-9);
    let churn_wheel_rate = churn_events as f64 / churn_wheel_best.max(1e-9);
    let churn_speedup = churn_wheel_rate / churn_heap_rate;

    eprintln!(
        "end-to-end: dumbbell {pairs} flows x {size} B, best of {reps} interleaved reps per arm"
    );
    let mut heap: Option<Arm> = None;
    let mut wheel: Option<Arm> = None;
    for _ in 0..reps {
        for (slot, tag, engine) in [
            (&mut heap, "heap", netsim::EngineConfig::baseline()),
            (&mut wheel, "wheel", netsim::EngineConfig::default()),
        ] {
            let (run, secs) = run_rep(tag, engine, pairs, size);
            match slot.as_mut() {
                Some(arm) => arm.best_secs = arm.best_secs.min(secs),
                None => {
                    let events = run
                        .counters_total()
                        .get(simtrace::names::NET_EVENTS)
                        .unwrap_or(0);
                    *slot = Some(Arm {
                        run,
                        best_secs: secs,
                        events,
                    });
                }
            }
        }
    }
    let heap = heap.expect("reps > 0");
    let wheel = wheel.expect("reps > 0");
    assert_identical(&heap.run, &wheel.run);
    let e2e_speedup = wheel.events_per_sec() / heap.events_per_sec();

    let mut t = simstats::TextTable::new(vec!["measurement", "heap", "wheel+pool", "speedup"]);
    t.row(vec![
        format!("sched churn (events/s, {churn_pending} timers)"),
        format!("{churn_heap_rate:.0}"),
        format!("{churn_wheel_rate:.0}"),
        format!("{churn_speedup:.2}x"),
    ]);
    t.row(vec![
        "end-to-end dumbbell (events/s)".to_string(),
        format!("{:.0}", heap.events_per_sec()),
        format!("{:.0}", wheel.events_per_sec()),
        format!("{e2e_speedup:.2}x"),
    ]);
    t.row(vec![
        "end-to-end best wall (s)".to_string(),
        format!("{:.3}", heap.best_secs),
        format!("{:.3}", wheel.best_secs),
        String::new(),
    ]);

    // The wheel arm is the production engine; its manifest is the run record.
    o.write_manifest(&wheel.run.manifest);
    o.emit(
        "hotpath engine A/B — heap baseline vs timer wheel + pool",
        &t,
    );

    let scenario = format!("dumbbell pairs={pairs} btlneck=400Mbps rtt=300ms buf=1.0bdp");
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"quick\": {quick},\n  \"sched_microbench\": {{\n    \"pending_timers\": {churn_pending},\n    \"events\": {churn_events},\n    \"heap_events_per_sec\": {churn_heap_rate:.1},\n    \"wheel_events_per_sec\": {churn_wheel_rate:.1},\n    \"speedup\": {churn_speedup:.3}\n  }},\n  \"end_to_end\": {{\n    \"scenario\": \"{scenario}\",\n    \"cc\": \"cubic+suss\",\n    \"flow_bytes\": {size},\n    \"reps\": {reps},\n    \"heap\": {{ \"best_secs\": {hs:.4}, \"events\": {he}, \"events_per_sec\": {hr:.1} }},\n    \"wheel\": {{ \"best_secs\": {ws:.4}, \"events\": {we}, \"events_per_sec\": {wr:.1} }},\n    \"speedup\": {e2e_speedup:.3},\n    \"results_identical\": true\n  }}\n}}\n",
        quick = o.quick,
        scenario = json_escape_free(&scenario),
        hs = heap.best_secs,
        he = heap.events,
        hr = heap.events_per_sec(),
        ws = wheel.best_secs,
        we = wheel.events,
        wr = wheel.events_per_sec(),
    );
    // Quick mode is the CI smoke; keep it from clobbering the committed
    // full-mode snapshot.
    let file = if o.quick {
        "BENCH_hotpath.quick.json"
    } else {
        "BENCH_hotpath.json"
    };
    let path = std::path::Path::new("results").join(file);
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("cannot create results/: {e}");
    }
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("snapshot: {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
