//! quic-sim campaign determinism gates: the pacing-matrix results are a
//! pure function of (config, seed) — independent of worker count and of
//! the scheduler engine (timer wheel vs binary heap), the same contracts
//! the TCP campaigns are held to — and the quick matrix reproduces its
//! golden totals, counters and FCT percentiles.
//!
//! If an intentional behavior change moves the goldens, regenerate with
//! `cargo test -p experiments --test quic_determinism -- --ignored --nocapture`
//! and paste the printed constant.

use cc_algos::CcKind;
use experiments::quic_pacing::{
    quic_pacing_table, run_quic_pacing_cell, QuicPacingConfig, QUIC_SIZES_QUICK,
};
use netsim::EngineConfig;
use quic_sim::PacingStrategy;
use simrunner::RunnerOpts;
use simtrace::names;
use workload::{LastHop, PathScenario, ServerSite, KB, MB};

/// Transport-observable outcome of one pacing-matrix run. Engine
/// internals (`net.sched_*`, `net.pool_*`) are deliberately absent.
struct QuicGolden {
    /// Downloads (completed, incomplete) across all cells.
    totals: (u64, u64),
    /// `quic.*` counters summed over all cells.
    counters: &'static [(&'static str, u64)],
    /// Every manifest annotation: label, n, then p50/p90/p99/p999 in
    /// seconds (exact bits: `{:?}` prints the shortest round-trip form).
    annotations: &'static [(&'static str, u64, [f64; 4])],
}

/// The quick matrix (`quic_pacing_table(1, &QUIC_SIZES_QUICK, 1, ..)`).
#[rustfmt::skip]
const GOLD_QUIC_QUICK: QuicGolden = QuicGolden {
    totals: (24, 0),
    counters: &[
        ("quic.pkts_sent", 9960),
        ("quic.acks_sent", 9960),
        ("quic.retransmits", 0),
        ("quic.pkts_lost", 0),
        ("quic.ptos", 0),
        ("quic.pace_delays", 8366),
    ],
    annotations: &[
        ("quic/4G/per-packet/cubic/<=200KB", 1, [0.9646616199111993, 0.9646616199111993, 0.9646616199111993, 0.9646616199111993]),
        ("quic/4G/per-packet/cubic/<=2MB", 1, [2.6416483203860923, 2.6416483203860923, 2.6416483203860923, 2.6416483203860923]),
        ("quic/4G/per-packet/cubic+suss/<=200KB", 1, [0.6264335366568856, 0.6264335366568856, 0.6264335366568856, 0.6264335366568856]),
        ("quic/4G/per-packet/cubic+suss/<=2MB", 1, [0.8976871324473142, 0.8976871324473142, 0.8976871324473142, 0.8976871324473142]),
        ("quic/4G/burst8/cubic/<=200KB", 1, [0.9646616199111993, 0.9646616199111993, 0.9646616199111993, 0.9646616199111993]),
        ("quic/4G/burst8/cubic/<=2MB", 1, [2.458244068920197, 2.458244068920197, 2.458244068920197, 2.458244068920197]),
        ("quic/4G/burst8/cubic+suss/<=200KB", 1, [0.7233941627366748, 0.7233941627366748, 0.7233941627366748, 0.7233941627366748]),
        ("quic/4G/burst8/cubic+suss/<=2MB", 1, [1.485508017172775, 1.485508017172775, 1.485508017172775, 1.485508017172775]),
        ("quic/4G/chunk5ms/cubic/<=200KB", 1, [0.9646616199111993, 0.9646616199111993, 0.9646616199111993, 0.9646616199111993]),
        ("quic/4G/chunk5ms/cubic/<=2MB", 1, [2.6416483203860923, 2.6416483203860923, 2.6416483203860923, 2.6416483203860923]),
        ("quic/4G/chunk5ms/cubic+suss/<=200KB", 1, [0.6264335366568856, 0.6264335366568856, 0.6264335366568856, 0.6264335366568856]),
        ("quic/4G/chunk5ms/cubic+suss/<=2MB", 1, [0.8976871324473142, 0.8976871324473142, 0.8976871324473142, 0.8976871324473142]),
        ("quic/wired/per-packet/cubic/<=200KB", 1, [0.22875732003183957, 0.22875732003183957, 0.22875732003183957, 0.22875732003183957]),
        ("quic/wired/per-packet/cubic/<=2MB", 1, [0.7773650302387758, 0.7773650302387758, 0.7773650302387758, 0.7773650302387758]),
        ("quic/wired/per-packet/cubic+suss/<=200KB", 1, [0.119708503049573, 0.119708503049573, 0.119708503049573, 0.119708503049573]),
        ("quic/wired/per-packet/cubic+suss/<=2MB", 1, [0.15963385442879424, 0.15963385442879424, 0.15963385442879424, 0.15963385442879424]),
        ("quic/wired/burst8/cubic/<=200KB", 1, [0.1980956778550339, 0.1980956778550339, 0.1980956778550339, 0.1980956778550339]),
        ("quic/wired/burst8/cubic/<=2MB", 1, [0.6731703824144983, 0.6731703824144983, 0.6731703824144983, 0.6731703824144983]),
        ("quic/wired/burst8/cubic+suss/<=200KB", 1, [0.13823722273578998, 0.13823722273578998, 0.13823722273578998, 0.13823722273578998]),
        ("quic/wired/burst8/cubic+suss/<=2MB", 1, [0.26416483203860924, 0.26416483203860924, 0.26416483203860924, 0.26416483203860924]),
        ("quic/wired/chunk5ms/cubic/<=200KB", 1, [0.21287516617963725, 0.21287516617963725, 0.21287516617963725, 0.21287516617963725]),
        ("quic/wired/chunk5ms/cubic/<=2MB", 1, [0.7773650302387758, 0.7773650302387758, 0.7773650302387758, 0.7773650302387758]),
        ("quic/wired/chunk5ms/cubic+suss/<=200KB", 1, [0.119708503049573, 0.119708503049573, 0.119708503049573, 0.119708503049573]),
        ("quic/wired/chunk5ms/cubic+suss/<=2MB", 1, [0.18434229924091106, 0.18434229924091106, 0.18434229924091106, 0.18434229924091106]),
    ],
};

/// The counters [`GOLD_QUIC_QUICK`] pins.
const QUIC_COUNTERS: [&str; 6] = [
    names::QUIC_PKTS_SENT,
    names::QUIC_ACKS_SENT,
    names::QUIC_RETRANSMITS,
    names::QUIC_PKTS_LOST,
    names::QUIC_PTOS,
    names::QUIC_PACE_DELAYS,
];

fn quick_run() -> experiments::quic_pacing::QuicPacingRun {
    quic_pacing_table(1, &QUIC_SIZES_QUICK, 1, &RunnerOpts::serial())
}

fn counter_totals(run: &experiments::quic_pacing::QuicPacingRun) -> simtrace::CounterSnapshot {
    let mut totals = simtrace::CounterSnapshot::default();
    for r in &run.results {
        totals.merge(&r.counters);
    }
    totals
}

fn small_cfg(cc: CcKind, strategy: PacingStrategy) -> QuicPacingConfig {
    let scn = PathScenario::new(ServerSite::OracleLondon, LastHop::Wired);
    let mut cfg = QuicPacingConfig::new(scn, strategy, cc);
    cfg.iters = 2;
    cfg.sizes = vec![200 * KB, MB];
    cfg
}

#[test]
fn quick_matrix_matches_golden() {
    let run = quick_run();
    assert_eq!(run.totals(), GOLD_QUIC_QUICK.totals, "download totals");
    let totals = counter_totals(&run);
    assert_eq!(GOLD_QUIC_QUICK.counters.len(), QUIC_COUNTERS.len());
    for &(name, want) in GOLD_QUIC_QUICK.counters {
        assert_eq!(
            totals.get(name).unwrap_or(0),
            want,
            "quic counter {name} diverged from golden"
        );
    }
    let got = &run.manifest.annotations;
    assert_eq!(
        got.len(),
        GOLD_QUIC_QUICK.annotations.len(),
        "annotation count"
    );
    for (a, &(label, n, q)) in got.iter().zip(GOLD_QUIC_QUICK.annotations) {
        assert_eq!(a.label, label);
        assert_eq!(a.n, n, "{label}: n");
        assert_eq!([a.p50, a.p90, a.p99, a.p999], q, "{label}: percentiles");
    }
}

/// Regeneration helper: prints the constant to paste above.
#[test]
#[ignore = "golden generator, run with --ignored --nocapture"]
fn print_golden() {
    let run = quick_run();
    let totals = counter_totals(&run);
    println!("const GOLD_QUIC_QUICK: QuicGolden = QuicGolden {{");
    println!("    totals: {:?},", run.totals());
    println!("    counters: &[");
    for name in QUIC_COUNTERS {
        println!("        ({name:?}, {}),", totals.get(name).unwrap_or(0));
    }
    println!("    ],");
    println!("    annotations: &[");
    for a in &run.manifest.annotations {
        let q = [a.p50, a.p90, a.p99, a.p999];
        println!("        ({:?}, {}, {q:?}),", a.label, a.n);
    }
    println!("    ],");
    println!("}};");
}

#[test]
fn worker_count_does_not_change_results() {
    // The full matrix at 1 and 4 workers, cold both times: per-cell
    // results and manifest annotations must match exactly.
    let serial = quick_run();
    let parallel = quic_pacing_table(
        1,
        &QUIC_SIZES_QUICK,
        1,
        &RunnerOpts::serial().with_workers(4),
    );
    assert_eq!(serial.results, parallel.results);
    assert_eq!(serial.totals(), parallel.totals());
    assert_eq!(
        serial.manifest.annotations.len(),
        parallel.manifest.annotations.len()
    );
    for (a, b) in serial
        .manifest
        .annotations
        .iter()
        .zip(&parallel.manifest.annotations)
    {
        assert_eq!(a.label, b.label);
        assert_eq!(a.n, b.n);
        assert_eq!((a.p50, a.p90, a.p99, a.p999), (b.p50, b.p90, b.p99, b.p999));
    }
    let (completed, incomplete) = serial.totals();
    assert!(completed > 0, "cells must complete downloads");
    assert_eq!(incomplete, 0, "quick matrix must fully drain");
}

#[test]
fn engine_choice_does_not_change_results() {
    // Timer-wheel default (batching on) vs binary-heap baseline: FCT
    // distributions and every non-scheduler counter must be identical.
    for strategy in PacingStrategy::matrix() {
        let mut wheel = small_cfg(CcKind::CubicSuss, strategy);
        wheel.engine = EngineConfig::default();
        let mut heap = small_cfg(CcKind::CubicSuss, strategy);
        heap.engine = EngineConfig::baseline();

        let a = run_quic_pacing_cell(&wheel, 9);
        let b = run_quic_pacing_cell(&heap, 9);
        assert_eq!(
            (a.completed, a.incomplete),
            (b.completed, b.incomplete),
            "{strategy:?}"
        );
        assert_eq!(a.hist_small, b.hist_small, "{strategy:?}");
        assert_eq!(a.hist_mid, b.hist_mid, "{strategy:?}");
        assert_eq!(a.hist_large, b.hist_large, "{strategy:?}");
        for (name, delta) in &a.counters.diff(&b.counters) {
            if *delta == 0 {
                continue;
            }
            assert!(
                name.starts_with("net.sched_") || name.starts_with("net.pool_"),
                "{name} must not differ across engines under {strategy:?} (delta {delta})"
            );
        }
    }
}

#[test]
fn paired_seeds_give_cubic_and_suss_identical_randomness() {
    // Within a (scenario, strategy) pair the campaign hands both
    // controllers the same seed, so their per-download sub-seeds — and
    // therefore their path randomness — are identical. A CUBIC cell
    // rerun under the CUBIC label must reproduce itself exactly.
    let a = run_quic_pacing_cell(&small_cfg(CcKind::Cubic, PacingStrategy::PerPacket), 21);
    let b = run_quic_pacing_cell(&small_cfg(CcKind::Cubic, PacingStrategy::PerPacket), 21);
    assert_eq!(a, b);
}
