//! Same-host benchmark of the SUSS reproduction's campaign workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_matrix|fleet_web|quic_pacing --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` repeats the workload's campaign (cold pass into a fresh
//! cache, then warm passes over it) for `--seconds` and prints the
//! end-to-end metrics. `--trace 1` runs one untraced pass and two traced
//! passes with the span profiler on, plus the isolated layer timings, and
//! prints the per-layer metrics. Both check every result and print one JSON
//! object as the last line of stdout. See README.md.

mod layers;
mod spans;
mod stats;
mod workloads;

use simrunner::{RunManifest, RunnerOpts};
use simtrace::names;
use spans::{CellProfile, Probe, Span, Tracer};
use stats::{median, peak_rss_mb, sorted};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{cc_name, Pass, Workload, GOLDEN_SEED};

/// Where the benchmark writes: scratch caches (removed before exit) and
/// the traced run's span file, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperMatrix,
        seed: GOLDEN_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Workload::parse(&v).ok_or_else(|| {
                    let all: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; expected one of {}", all.join(", "))
                })?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Refuse to run under any `SUSS_*` variable: the runner's environment
/// knobs can silently change what a campaign executes (for example,
/// `SUSS_CACHE_DIR` re-enables a cache the options disabled).
fn check_env() -> Result<(), String> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("SUSS_")) {
        Some((k, _)) => Err(format!(
            "refusing to start: environment variable {} is set; unset every SUSS_* variable",
            k.to_string_lossy()
        )),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let scratch = Path::new(OUT_DIR).join(format!("scratch-{}-{}", w.name(), std::process::id()));
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} workers={} cores={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.workers(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let report = if args.trace {
        traced(w, args.seed, &scratch)
    } else {
        end_to_end(w, args.seed, args.seconds, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} check(s) failed", report.checks.failed);
        ExitCode::FAILURE
    }
}

/// Explicit runner options: a fresh cache at `cache`, no environment
/// overrides, failures recorded rather than raised.
fn runner_opts(w: Workload, cache: &Path, profile: bool) -> RunnerOpts {
    let mut opts = RunnerOpts::serial()
        .with_workers(w.workers())
        .with_cache(cache)
        .with_manifest_stem(cache.join("manifest"))
        .record_failures();
    opts.profile = profile;
    opts
}

/// Result checks, tallied against the cells attempted.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: CHECK FAILED: {what}");
    }

    /// Check a cold pass: no failed cells, every invariant, the golden
    /// values at the golden seed, and the same results digest as
    /// `reference`, an earlier pass at the same seed.
    fn cold(&mut self, w: Workload, seed: u64, pass: &Pass, reference: Option<&str>) {
        let m = &pass.manifest;
        self.attempted += m.total_cells as u64;
        if m.cells_failed > 0 || m.results_digest.is_empty() {
            self.fail(format!(
                "{} of {} cells failed",
                m.cells_failed, m.total_cells
            ));
        }
        for p in &pass.problems {
            self.fail(p);
        }
        if seed == GOLDEN_SEED {
            for p in &pass.golden_problems {
                self.fail(p);
            }
            if m.fingerprint != w.golden_fingerprint() {
                self.fail(format!(
                    "fingerprint {} differs from golden {}",
                    m.fingerprint,
                    w.golden_fingerprint()
                ));
            }
        }
        if let Some(r) = reference.filter(|r| *r != m.results_digest) {
            self.fail(format!(
                "results digest {} differs from an earlier pass's {r}",
                m.results_digest
            ));
        }
    }

    /// Check a warm pass against the cold pass that filled its cache.
    fn warm(&mut self, cold: &RunManifest, warm: &RunManifest) {
        if warm.results_digest != cold.results_digest {
            self.fail(format!(
                "warm digest {} differs from cold digest {}",
                warm.results_digest, cold.results_digest
            ));
        }
        if warm.cache_hits != warm.total_cells {
            self.fail(format!(
                "warm pass hit {} of {} cells",
                warm.cache_hits, warm.total_cells
            ));
        }
    }
}

struct Report {
    checks: Checks,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.checks.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// Host wall time of every cell a pass computed (cache hits excluded).
fn cell_walls(m: &RunManifest) -> impl Iterator<Item = f64> + '_ {
    m.cells
        .iter()
        .filter(|c| !c.cached && c.attempts > 0 && c.status.succeeded())
        .map(|c| c.wall_ms)
}

/// `(p50, tail)` of a cell-time sample. The tail is the highest
/// percentile up to p99 with at least 10 samples beyond it; its rank and
/// the sample size are announced.
fn cell_summary(cells: Vec<f64>) -> (f64, f64) {
    let s = sorted(cells);
    let n = s.len();
    let beyond = (n / 100).max(10);
    let tail = if n > beyond {
        s[n - beyond - 1]
    } else {
        f64::NAN
    };
    eprintln!(
        "perfbench: cell_ms_tail is p{:.2} of {n} cells ({beyond} beyond it)",
        100.0 * n.saturating_sub(beyond) as f64 / n.max(1) as f64
    );
    (median(&s), tail)
}

/// Time one pass of `w` into `cache` through `probe`.
fn timed_pass(w: Workload, seed: u64, opts: &RunnerOpts, probe: &Arc<Probe>) -> (Pass, f64) {
    let t = Instant::now();
    let pass = w.run(seed, opts, probe);
    (pass, t.elapsed().as_secs_f64())
}

/// Run warm passes over the cache `cold` filled, checking each.
fn warm_passes(
    w: Workload,
    seed: u64,
    opts: &RunnerOpts,
    cold: &Pass,
    checks: &mut Checks,
) -> (Vec<f64>, Pass) {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..w.warm_passes() {
        let (warm, wall) = timed_pass(w, seed, opts, &Probe::new(None));
        checks.warm(&cold.manifest, &warm.manifest);
        walls.push(wall);
        last = Some(warm);
    }
    (walls, last.expect("at least one warm pass"))
}

/// Seed-base step between the repetitions of one run.
const SEED_STRIDE: u64 = 1009;

/// End-to-end mode: repeat cold + warm passes, as many as fill `seconds`
/// on the reference host, tracing off. Repetition `k` runs the campaign at
/// seed base `seed + k * SEED_STRIDE`: a run's figures are medians over
/// several inputs, so one heavy-tailed draw cannot set them.
fn end_to_end(w: Workload, seed: u64, seconds: u64, scratch: &Path) -> Report {
    let mut checks = Checks::default();
    let (mut walls, mut setups, mut warms, mut cells) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let reps = w.reps(seconds);
    for rep in 0..reps {
        let cache = scratch.join(format!("rep{rep}"));
        let opts = runner_opts(w, &cache, false);
        let probe = Probe::new(None);
        let rep_seed = seed + rep as u64 * SEED_STRIDE;
        let (cold, wall) = timed_pass(w, rep_seed, &opts, &probe);
        checks.cold(w, rep_seed, &cold, None);
        match probe.setup_s() {
            Some(s) => setups.push(s),
            None => checks.fail("no cell ran in a cold pass"),
        }
        if rep == 0 {
            eprintln!(
                "perfbench: {}; fingerprint {}",
                cold.summary, cold.manifest.fingerprint
            );
        }
        eprintln!(
            "perfbench: repetition {rep} (seed base {rep_seed}): cold pass {wall:.4} s, {} events",
            cold.manifest.events_total
        );
        walls.push(wall);
        cells.extend(cell_walls(&cold.manifest));
        warms.extend(warm_passes(w, rep_seed, &opts, &cold, &mut checks).0);
        let _ = std::fs::remove_dir_all(&cache);
    }
    eprintln!(
        "perfbench: {reps} repetitions in {:.1} s",
        start.elapsed().as_secs_f64()
    );
    let (p50, tail) = cell_summary(cells);
    let ok_ratio = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
    Report {
        metrics: vec![
            ("setup_s".into(), median(&setups), "s"),
            ("wall_s".into(), median(&walls), "s"),
            ("warm_s".into(), median(&warms), "s"),
            ("cell_ms_p50".into(), p50, "ms"),
            ("cell_ms_tail".into(), tail, "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
            ("ok_ratio".into(), ok_ratio, "ratio"),
        ],
        checks,
    }
}

/// Span-profiler totals over a pass's cell profiles.
struct Profile {
    cells: Vec<CellProfile>,
}

impl Profile {
    fn leaf(path: &str) -> &str {
        path.rsplit(';').next().unwrap_or(path)
    }

    fn total_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.prof.total_ns()).sum()
    }

    /// `(calls, self_ns)` of every path ending in span `name`, over the
    /// cells whose controller `cc` accepts.
    fn leaf_totals(&self, name: &str, cc: impl Fn(&str) -> bool) -> (u64, u64) {
        self.cells
            .iter()
            .filter(|c| cc(c.cc))
            .flat_map(|c| &c.prof.spans)
            .filter(|s| Self::leaf(&s.path) == name)
            .fold((0, 0), |(n, ns), s| (n + s.calls, ns + s.self_ns))
    }

    /// Call count per (controller, stack path): what must repeat exactly.
    fn call_counts(&self) -> BTreeMap<(&'static str, String), u64> {
        let mut m = BTreeMap::new();
        for c in &self.cells {
            for s in &c.prof.spans {
                *m.entry((c.cc, s.path.clone())).or_insert(0) += s.calls;
            }
        }
        m
    }
}

/// Traced mode: three untraced passes (the overhead baseline and the
/// source of exact counters and runner timings), two traced passes with
/// the span profiler on (whose call counts must repeat exactly), a cache
/// round trip and manifest writes over the workload's own results, and the
/// layer timings. Spans are written to
/// `.perfbench/spans-<workload>-seed<n>.jsonl`.
fn traced(w: Workload, seed: u64, scratch: &Path) -> Report {
    let mut checks = Checks::default();
    let tracer = Tracer::new();

    // Three untraced passes: the overhead baseline, and enough cells for
    // a per-cell tail.
    let mut base_walls = Vec::new();
    let mut base_cells = Vec::new();
    let mut first: Option<(Pass, Pass)> = None;
    for rep in 0..3 {
        let opts = runner_opts(w, &scratch.join(format!("untraced{rep}")), false);
        let (pass, wall) = timed_pass(w, seed, &opts, &Probe::new(None));
        let reference = first
            .as_ref()
            .map(|(b, _)| b.manifest.results_digest.as_str());
        checks.cold(w, seed, &pass, reference);
        base_walls.push(wall);
        base_cells.extend(cell_walls(&pass.manifest));
        if first.is_none() {
            let (_, warm) = warm_passes(w, seed, &opts, &pass, &mut checks);
            first = Some((pass, warm));
        }
    }
    let (base, warm) = first.expect("three untraced passes ran");
    eprintln!(
        "perfbench: {}; fingerprint {}; {} events",
        base.summary, base.manifest.fingerprint, base.manifest.events_total
    );

    let mut traced_walls = Vec::new();
    let mut profiles = Vec::new();
    let mut first_traced = None;
    for trace in 1..=2u64 {
        let run_span = tracer.new_id();
        let start_us = tracer.now_us();
        let probe = Probe::new(Some((Arc::clone(&tracer), trace, run_span)));
        let opts = runner_opts(w, &scratch.join(format!("traced{trace}")), true);
        let (pass, wall) = timed_pass(w, seed, &opts, &probe);
        tracer.record(Span {
            id: run_span,
            parent: 0,
            trace,
            name: "campaign_run",
            label: format!("{} cold", w.name()),
            start_us,
            end_us: tracer.now_us(),
        });
        checks.cold(w, seed, &pass, Some(&base.manifest.results_digest));
        if pass.counters != base.counters {
            checks.fail("counters of a traced pass differ from the untraced pass");
        }
        traced_walls.push(wall);
        profiles.push(Profile {
            cells: probe.take_profiles(),
        });
        first_traced.get_or_insert(pass);
    }
    let (calls_a, calls_b) = (profiles[0].call_counts(), profiles[1].call_counts());
    if calls_a != calls_b {
        checks.fail("span-profiler call counts differ between two traced passes");
    }
    eprintln!(
        "perfbench: {} counters and {} profiler call counts repeat exactly across passes",
        base.counters.metrics.len(),
        calls_a.len()
    );
    let traced_pass = first_traced.expect("two traced passes ran");

    // Cache round trip and manifest writes on this workload's own results.
    let io_span = tracer.new_id();
    let io_start = tracer.now_us();
    let io = (traced_pass.cache_io)(&scratch.join("io"), Some((&tracer, 1, io_span)));
    tracer.record(Span {
        id: io_span,
        parent: 0,
        trace: 1,
        name: "cache_roundtrip",
        label: w.name().into(),
        start_us: io_start,
        end_us: tracer.now_us(),
    });
    if io.mismatches > 0 {
        checks.fail(format!(
            "{} cache entries failed to round-trip",
            io.mismatches
        ));
    }
    let manifest_path = scratch.join("manifest.json");
    let manifest_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let r = tracer.span(1, 0, "manifest_write", w.name(), || {
                traced_pass.manifest.write(&manifest_path)
            });
            if let Err(e) = r {
                checks.fail(format!("manifest write failed: {e}"));
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let timings = layers::run_all();
    eprintln!("perfbench: layer timing inputs: {}", layers::INPUTS);

    let span_file = PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    match tracer.write_jsonl(&span_file) {
        Ok(()) => eprintln!("perfbench: spans written to {}", span_file.display()),
        Err(e) => checks.fail(format!("cannot write {}: {e}", span_file.display())),
    }

    // Assemble the per-layer metrics.
    let m = &base.manifest;
    let ctr = |name: &str| base.counters.get(name).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let busy_ns = m.worker_busy_secs * 1e9;
    let (p50, tail) = cell_summary(base_cells);
    let prof = &profiles[0];
    let total_ns = prof.total_ns() as f64;
    let mut metrics: Vec<(String, f64, &'static str)> = vec![
        ("simrunner.busy_s".into(), m.worker_busy_secs, "s"),
        (
            "simrunner.self_s".into(),
            m.wall_secs * m.workers as f64 - m.worker_busy_secs,
            "s",
        ),
        ("simrunner.utilization".into(), m.utilization, "ratio"),
        (
            "simrunner.cache_store_us".into(),
            median(&io.store_us),
            "us",
        ),
        ("simrunner.cache_load_us".into(), median(&io.load_us), "us"),
        (
            "simrunner.manifest_write_ms".into(),
            median(&manifest_ms),
            "ms",
        ),
        (
            "simrunner.cache_hits".into(),
            warm.manifest.cache_hits as f64,
            "count",
        ),
        (
            "simrunner.cache_misses".into(),
            m.cache_misses as f64,
            "count",
        ),
        ("experiments.cell_ms_p50".into(), p50, "ms"),
        ("experiments.cell_ms_tail".into(), tail, "ms"),
    ];
    for name in [
        names::NET_EVENTS,
        names::NET_EVENTS_SCHEDULED,
        names::NET_SCHED_CASCADES,
        names::NET_SCHED_BATCHED,
        names::NET_QUEUE_DROPS,
        names::TCP_SEGS_SENT,
        names::TCP_RTOS,
        names::QUIC_PKTS_SENT,
        names::QUIC_ACKS_SENT,
        names::QUIC_RETRANSMITS,
        names::QUIC_PTOS,
        names::QUIC_PACE_DELAYS,
        names::CC_HYSTART_EXITS,
        names::SUSS_PACING_ROUNDS,
    ] {
        metrics.push((name.into(), ctr(name), "count"));
    }
    let events = ctr(names::NET_EVENTS);
    metrics.extend([
        (
            "netsim.pool_hit_ratio".into(),
            ratio(
                ctr(names::NET_POOL_HITS),
                ctr(names::NET_POOL_HITS) + ctr(names::NET_POOL_MISSES),
            ),
            "ratio",
        ),
        (
            "netsim.orphan_ratio".into(),
            ratio(ctr(names::NET_ORPHAN_EVENTS), events),
            "ratio",
        ),
        ("netsim.ns_per_event".into(), ratio(busy_ns, events), "ns"),
        (
            "tcp.retransmit_ratio".into(),
            ratio(ctr(names::TCP_RETRANSMITS), ctr(names::TCP_SEGS_SENT)),
            "ratio",
        ),
    ]);
    for span in [
        "sim/step",
        "sim/arrive",
        "sim/txdone",
        "sim/timer",
        "tcp/ack",
        "quic/ack",
        "cc/on_ack",
    ] {
        let (calls, self_ns) = prof.leaf_totals(span, |_| true);
        let key = span.replace('/', "_");
        metrics.push((format!("prof.{key}.calls"), calls as f64, "count"));
        metrics.push((
            format!("prof.{key}.share"),
            ratio(self_ns as f64, total_ns),
            "ratio",
        ));
    }

    // Undistorted estimates: isolated ns/call × exact call count, as a
    // share of the untraced pass's busy time.
    let timing = |name: &str| {
        timings
            .iter()
            .find(|d| d.name == name)
            .map_or(f64::NAN, |d| d.ns_per_call)
    };
    for d in &timings {
        metrics.push((d.name.into(), d.ns_per_call, "ns"));
    }
    let on_ack_calls = |cc: &str| prof.leaf_totals("cc/on_ack", |c| c == cc).0 as f64;
    // Both transports keep their SACK state in `tcp_sim::ranges`.
    let acks =
        (prof.leaf_totals("tcp/ack", |_| true).0 + prof.leaf_totals("quic/ack", |_| true).0) as f64;
    let cc_est_ns: f64 = [
        cc_algos::CcKind::Cubic,
        cc_algos::CcKind::CubicSuss,
        cc_algos::CcKind::Bbr,
    ]
    .into_iter()
    .map(|k| timing(&format!("cc.on_ack_ns.{}", cc_name(k))) * on_ack_calls(cc_name(k)))
    .sum();
    metrics.extend([
        (
            "netsim.sched_est_share".into(),
            ratio(timing("netsim.timer_churn_ns") * events, busy_ns),
            "ratio",
        ),
        (
            "tcp.rangeset_est_share".into(),
            ratio(timing("tcp.rangeset_ns") * acks, busy_ns),
            "ratio",
        ),
        (
            "cc.on_ack_est_share".into(),
            ratio(cc_est_ns, busy_ns),
            "ratio",
        ),
        (
            "suss.on_ack_est_share".into(),
            ratio(
                timing("suss.on_ack_ns") * on_ack_calls("cubic_suss"),
                busy_ns,
            ),
            "ratio",
        ),
        (
            "trace_overhead".into(),
            median(&traced_walls) / median(&base_walls),
            "ratio",
        ),
    ]);
    Report { checks, metrics }
}
