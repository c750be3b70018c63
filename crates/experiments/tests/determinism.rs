//! Engine-determinism acceptance test for the timer-wheel core: a fixed
//! dumbbell cell has golden flow-completion times and counter totals
//! recorded from the seed binary-heap engine, and the production wheel +
//! pool engine must reproduce them bit-for-bit — serially and through a
//! 4-worker campaign with a fresh result cache.
//!
//! If an intentional behavior change moves these numbers, regenerate with
//! `cargo test -p experiments --test determinism -- --ignored --nocapture`
//! and paste the printed constants.

use cc_algos::CcKind;
use experiments::fleet::fleet_table;
use experiments::{run_dumbbell_engine, DumbbellFlow, FlowGrid, FlowGridRun};
use netsim::{EngineConfig, SimTime};
use simrunner::RunnerOpts;
use simtrace::names;
use std::time::Duration;
use workload::{DumbbellConfig, MB};

const SEEDS: [u64; 2] = [1, 2];
const PAIRS: usize = 4;

/// Golden flow-0 receiver FCTs in seconds, one per seed, exact bits
/// (`{:?}` prints the shortest round-trip representation, so these
/// literals reproduce the measured f64 exactly).
const GOLD_FCT_SECS: [f64; 2] = [0.915681728, 0.915681728];

/// Golden catalogue counter totals merged over both cells. Scheduler- and
/// pool-internal counters (`net.sched_cascades`, `net.pool_*`) are the
/// only ones allowed to differ across engines and live in
/// [`GOLD_ENGINE_TOTALS`] instead.
const GOLD_TOTALS: &[(&str, u64)] = &[
    (names::NET_EVENTS, 75378),
    (names::NET_EVENTS_SCHEDULED, 75820),
    (names::NET_QUEUE_DROPS, 1098),
    (names::TCP_SEGS_SENT, 6626),
    (names::TCP_RETRANSMITS, 1098),
    (names::TCP_RTOS, 0),
    (names::TCP_FAST_RETRANSMITS, 16),
    (names::CC_HYSTART_EXITS, 2),
    (names::SUSS_PACING_ROUNDS, 16),
];

/// Golden totals of the engine-internal counters over both cells under
/// `EngineConfig::default()` (timer wheel, pooling, batched delivery).
/// They may differ between engines, but they enter every cell's results
/// digest, so the production engine's values are pinned on their own.
const GOLD_ENGINE_TOTALS: &[(&str, u64)] = &[
    (names::NET_SCHED_CASCADES, 16),
    (names::NET_SCHED_BATCHED, 0),
    (names::NET_POOL_HITS, 9836),
    (names::NET_POOL_MISSES, 2318),
];

/// Fleet `--quick` size: flows per cell of `ext_fleet --quick`.
const FLEET_QUICK_FLOWS: u64 = 150;

/// Golden totals over all 18 cells of the fleet `--quick` campaign at
/// seed base 1 under `EngineConfig::default()`. Its driver pushes new
/// flows between `run_until` calls, after the wheel's cursor has run
/// ahead of `now`, so these pin that path too.
const GOLD_FLEET_QUICK: &[(&str, u64)] = &[
    (names::NET_EVENTS, 1115757),
    (names::NET_EVENTS_SCHEDULED, 1132802),
    (names::NET_SCHED_CASCADES, 12333),
    (names::NET_SCHED_BATCHED, 49228),
    (names::NET_POOL_HITS, 149568),
    (names::NET_POOL_MISSES, 16361),
    (names::NET_QUEUE_DROPS, 0),
    (names::FLEET_FLOWS_COMPLETED, 2700),
];

/// The fixed cell: four staggered SUSS downloads through a congested
/// 50 Mbps / 50 ms / 1-BDP dumbbell — loss, fast recovery, HyStart and
/// SUSS pacing all exercised, so the goldens pin real protocol behavior.
fn cell(engine: EngineConfig, seed: u64) -> experiments::FlowOutcome {
    cell_scoped(engine, seed, 0)
}

/// [`cell`] with bottleneck scope sampling every `scope_every` packets
/// (0 = off) — the observability arm of the determinism contract.
fn cell_scoped(engine: EngineConfig, seed: u64, scope_every: u64) -> experiments::FlowOutcome {
    let cfg = DumbbellConfig::fairness(Duration::from_millis(50), 1.0, PAIRS);
    let flows: Vec<DumbbellFlow> = (0..PAIRS)
        .map(|i| DumbbellFlow::download(CcKind::CubicSuss, MB, SimTime::from_millis(5 * i as u64)))
        .collect();
    let out = experiments::run_dumbbell_scoped(
        &cfg,
        &flows,
        seed,
        SimTime::from_secs(60),
        engine,
        scope_every,
    );
    let drops = out.bottleneck_drops;
    let mut f0 = out.flows.into_iter().next().expect("pairs > 0");
    f0.bottleneck_drops = drops;
    f0
}

/// The same cells as a FlowGrid campaign under the production engine.
fn wheel_grid() -> FlowGrid {
    let mut grid = FlowGrid::new("determinism-golden");
    grid.batch_fn(
        "dumbbell/golden",
        "topo=dumbbell pairs=4 btlneck=50Mbps rtt=50ms buf=1.0bdp \
         cc=cubic+suss size=1MB stagger=5ms",
        SEEDS.len() as u64,
        SEEDS[0],
        |seed| cell(EngineConfig::default(), seed),
    );
    grid
}

fn assert_matches_golden(run: &FlowGridRun, what: &str) {
    assert_eq!(run.stats.len(), SEEDS.len());
    for (i, s) in run.stats.iter().enumerate() {
        let s = s.as_ref().expect("golden cell failed");
        assert_eq!(
            s.fct_secs.to_bits(),
            GOLD_FCT_SECS[i].to_bits(),
            "{what}: seed {} fct {} != golden {}",
            SEEDS[i],
            s.fct_secs,
            GOLD_FCT_SECS[i],
        );
    }
    let totals = run.counters_total();
    for &(name, want) in GOLD_TOTALS {
        assert_eq!(
            totals.get(name),
            Some(want),
            "{what}: counter {name} diverged from golden"
        );
    }
    for &(name, want) in GOLD_ENGINE_TOTALS {
        assert_eq!(
            totals.get(name).unwrap_or(0),
            want,
            "{what}: engine counter {name} diverged from golden"
        );
    }
}

/// The goldens really do come from the seed engine: the binary-heap
/// scheduler without payload pooling reproduces every constant.
#[test]
fn heap_baseline_matches_golden() {
    let mut totals = simtrace::CounterSnapshot::default();
    for (i, &seed) in SEEDS.iter().enumerate() {
        let out = cell(EngineConfig::baseline(), seed);
        assert_eq!(
            out.fct_secs().to_bits(),
            GOLD_FCT_SECS[i].to_bits(),
            "heap: seed {seed} fct {} != golden {}",
            out.fct_secs(),
            GOLD_FCT_SECS[i],
        );
        totals.merge(&out.counters);
    }
    for &(name, want) in GOLD_TOTALS {
        assert_eq!(
            totals.get(name),
            Some(want),
            "heap: counter {name} diverged from golden"
        );
    }
    // The baseline engine never pools or cascades.
    assert_eq!(totals.get(names::NET_POOL_HITS).unwrap_or(0), 0);
    assert_eq!(totals.get(names::NET_SCHED_CASCADES).unwrap_or(0), 0);
}

/// The wheel engine reproduces the heap goldens exactly, both on the
/// serial path and sharded across 4 workers with a fresh cache — the
/// scheduler-equivalence contract, end to end through the campaign layer.
/// Its own scheduler and pool counters match [`GOLD_ENGINE_TOTALS`], so a
/// scheduler change that moves a cascade or a batched delivery fails here.
#[test]
fn wheel_reproduces_golden_at_1_and_4_workers() {
    let serial = wheel_grid().run(&RunnerOpts::serial());
    assert_matches_golden(&serial, "wheel serial");
    // The wheel engine actually pooled allocations on this workload (the
    // counters above prove pooling didn't change results).
    assert!(
        serial
            .counters_total()
            .get(names::NET_POOL_HITS)
            .unwrap_or(0)
            > 0
    );

    let dir = std::env::temp_dir().join(format!("suss-det-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let parallel = wheel_grid().run(&RunnerOpts::default().with_workers(4).with_cache(&dir));
    assert_eq!(parallel.manifest.cache_hits, 0, "fresh cache must miss");
    assert_matches_golden(&parallel, "wheel 4-worker");
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault-injected cells obey the same determinism contract as clean
/// ones: a faulted grid's FCT bits and counter totals are identical
/// serially and across 4 workers, and the wheel engine reproduces the
/// heap engine exactly under every fault family. No goldens here —
/// the invariant is engine/sharding independence, not pinned values.
#[test]
fn faulted_cells_are_engine_and_worker_invariant() {
    use experiments::chaos::{chaos_scenario, run_flow_faulted_engine, FaultFamily};

    let faulted_grid = |engine: EngineConfig| {
        let scn = chaos_scenario();
        let mut grid = FlowGrid::new("determinism-faulted");
        for family in FaultFamily::ALL {
            let plan = family.plan();
            grid.batch_fn(
                &format!("faulted/{}", family.key()),
                &format!(
                    "{} cc=cubic+suss size={MB} {} engine-check",
                    scn.canonical_params(),
                    plan.canonical_params()
                ),
                SEEDS.len() as u64,
                SEEDS[0],
                move |seed| {
                    run_flow_faulted_engine(&scn, CcKind::CubicSuss, MB, seed, &plan, engine)
                },
            );
        }
        grid
    };
    let assert_same = |a: &FlowGridRun, b: &FlowGridRun, what: &str| {
        assert_eq!(a.stats.len(), b.stats.len());
        for (i, (x, y)) in a.stats.iter().zip(&b.stats).enumerate() {
            let (x, y) = (
                x.as_ref().expect("faulted cell failed"),
                y.as_ref().expect("faulted cell failed"),
            );
            assert_eq!(
                x.fct_secs.to_bits(),
                y.fct_secs.to_bits(),
                "{what}: cell {i} fct {} != {}",
                x.fct_secs,
                y.fct_secs
            );
        }
        let (ta, tb) = (a.counters_total(), b.counters_total());
        for m in &ta.metrics {
            // Scheduler/pool internals legitimately differ across engines.
            if m.name.starts_with("net.sched_") || m.name.starts_with("net.pool_") {
                continue;
            }
            assert_eq!(
                tb.get(&m.name),
                Some(m.value),
                "{what}: counter {} diverged",
                m.name
            );
        }
    };

    let wheel_serial = faulted_grid(EngineConfig::default()).run(&RunnerOpts::serial());
    // Faults really fired: injected losses and flap transitions counted.
    let totals = wheel_serial.counters_total();
    assert!(totals.get(names::NET_FAULTS_INJECTED).unwrap_or(0) > 0);
    assert!(totals.get(names::NET_LINK_FLAPS).unwrap_or(0) > 0);

    let wheel_parallel =
        faulted_grid(EngineConfig::default()).run(&RunnerOpts::default().with_workers(4));
    assert_same(&wheel_serial, &wheel_parallel, "faulted 1-vs-4 workers");

    let heap_serial = faulted_grid(EngineConfig::baseline()).run(&RunnerOpts::serial());
    assert_same(&wheel_serial, &heap_serial, "faulted wheel-vs-heap");
}

/// Observability is free: running the golden cell with every telemetry
/// layer on — span profiling, a live flight recorder, and bottleneck
/// scope sampling — reproduces the bare run bit-for-bit on both engines.
/// The instrumented arm must also actually *observe* something, so a
/// regression that silently disables telemetry can't fake a pass.
#[test]
fn observability_never_changes_results() {
    for engine in [EngineConfig::default(), EngineConfig::baseline()] {
        let bare = cell(engine, SEEDS[0]);
        let _ = simtrace::runtime::take_scope_annotations();
        let _ = simtrace::prof::take();

        simtrace::prof::set_enabled(true);
        let ring = simtrace::FlightRecorder::new(simtrace::flightrec::DEFAULT_CAPACITY);
        simtrace::flightrec::install(Some(ring.clone()));
        let instrumented = cell_scoped(engine, SEEDS[0], 4);
        simtrace::flightrec::install(None);
        simtrace::prof::set_enabled(false);
        let prof = simtrace::prof::take();
        let scopes = simtrace::runtime::take_scope_annotations();

        // Telemetry really happened...
        assert!(prof.spans.iter().any(|s| s.path == "dumbbell/cell"));
        assert!(
            scopes
                .iter()
                .any(|a| a.label == "scope/dumbbell/queue_depth" && a.n > 0),
            "scope sampling produced nothing: {scopes:?}"
        );
        assert!(!ring.to_jsonl().is_empty(), "flight recorder stayed empty");

        // ...and changed nothing.
        assert_eq!(
            instrumented.fct_secs().to_bits(),
            bare.fct_secs().to_bits(),
            "telemetry perturbed the FCT"
        );
        assert_eq!(instrumented.segs_sent, bare.segs_sent);
        assert_eq!(instrumented.segs_retransmitted, bare.segs_retransmitted);
        assert_eq!(instrumented.bottleneck_drops, bare.bottleneck_drops);
        assert_eq!(
            instrumented.counters, bare.counters,
            "telemetry leaked into the metric registry"
        );
    }
}

/// CC decision events survive a JSONL round trip: a traced golden-cell
/// flow exports through a [`simtrace::JsonlSink`] and parses back with
/// [`simtrace::query::parse_jsonl`] record-for-record — kinds, payloads,
/// and reason codes intact.
#[test]
fn cc_events_roundtrip_through_jsonl() {
    use simtrace::{kind, EventSink, TraceRecord};

    let cfg = DumbbellConfig::fairness(Duration::from_millis(50), 1.0, PAIRS);
    let flows: Vec<DumbbellFlow> = (0..PAIRS)
        .map(|i| {
            DumbbellFlow::download(CcKind::CubicSuss, MB, SimTime::from_millis(5 * i as u64))
                .traced()
        })
        .collect();
    let out = run_dumbbell_engine(
        &cfg,
        &flows,
        SEEDS[0],
        SimTime::from_secs(60),
        EngineConfig::default(),
    );
    // Each flow's trace exported in memory: the records the JSONL path
    // below must reproduce exactly.
    let exported: Vec<Vec<TraceRecord>> = out
        .flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut sink = simtrace::VecSink::new();
            f.trace.export(i as u64 + 1, Some("roundtrip"), &mut sink);
            sink.records
        })
        .collect();
    // The congested SUSS cell exercises the whole decision catalogue
    // (HyStart exits happen on later-starting flows, so check the union).
    let kinds: Vec<&str> = exported.iter().flatten().map(|r| r.kind.as_str()).collect();
    for want in [
        kind::CC_CWND,
        kind::CC_SSTHRESH,
        kind::CC_PACING,
        kind::SUSS_ROUND,
        kind::HYSTART,
    ] {
        assert!(kinds.contains(&want), "no {want} event in {kinds:?}");
    }

    for (i, (flow, expected)) in out.flows.iter().zip(&exported).enumerate() {
        let trace = &flow.trace;
        let id = i as u64 + 1;
        let mut buf = Vec::new();
        let mut sink = simtrace::JsonlSink::new(&mut buf);
        trace.export(id, Some("roundtrip"), &mut sink);
        sink.flush().expect("jsonl write");
        let text = String::from_utf8(buf).expect("utf8 jsonl");

        let parsed = simtrace::query::parse_jsonl(&text).expect("parse back");
        // Every sample and event is exported, and parses back in full.
        assert_eq!(expected.len(), trace.samples.len() + trace.events.len());
        assert_eq!(parsed.len(), expected.len());
        assert_eq!(&parsed, expected, "JSONL round trip lost information");

        // Every CC decision carries its reason code through the round trip.
        for rec in parsed.iter().filter(|r| {
            [
                kind::CC_CWND,
                kind::CC_SSTHRESH,
                kind::CC_PACING,
                kind::HYSTART,
            ]
            .contains(&r.kind.as_str())
        }) {
            assert!(
                rec.reason.as_deref().is_some_and(|r| !r.is_empty()),
                "missing reason on {rec:?}"
            );
        }
    }
}

/// Counter totals of the fleet `--quick` campaign, serially and uncached.
fn fleet_quick_totals() -> simtrace::CounterSnapshot {
    let run = fleet_table(FLEET_QUICK_FLOWS, 1, &RunnerOpts::serial());
    let mut totals = simtrace::CounterSnapshot::default();
    for r in &run.results {
        totals.merge(&r.counters);
    }
    totals
}

/// The fleet `--quick` campaign reproduces its golden counters, engine
/// internals included.
#[test]
fn fleet_quick_counters_match_golden() {
    let totals = fleet_quick_totals();
    for &(name, want) in GOLD_FLEET_QUICK {
        assert_eq!(
            totals.get(name).unwrap_or(0),
            want,
            "fleet counter {name} diverged from golden"
        );
    }
}

/// Regeneration helper: prints the constants to paste above.
#[test]
#[ignore = "golden generator, run with --ignored --nocapture"]
fn print_golden() {
    let mut totals = simtrace::CounterSnapshot::default();
    let mut fcts = Vec::new();
    for &seed in &SEEDS {
        let out = cell(EngineConfig::baseline(), seed);
        fcts.push(out.fct_secs());
        totals.merge(&out.counters);
    }
    println!("const GOLD_FCT_SECS: [f64; 2] = {fcts:?};");
    for &(name, _) in GOLD_TOTALS {
        println!("({name:?}, {}),", totals.get(name).unwrap_or(0));
    }
    for (table, totals) in [
        (
            GOLD_ENGINE_TOTALS,
            wheel_grid().run(&RunnerOpts::serial()).counters_total(),
        ),
        (GOLD_FLEET_QUICK, fleet_quick_totals()),
    ] {
        println!("--");
        for &(name, _) in table {
            println!("({name:?}, {}),", totals.get(name).unwrap_or(0));
        }
    }
}
