//! The three campaign workloads, each driven through the program's public
//! campaign entry points and `Campaign::run`.

use crate::spans::{Probe, Span, Tracer};
use cc_algos::CcKind;
use experiments::fct_sweep::fig18_scenarios;
use experiments::fleet::fleet_campaign;
use experiments::quic_pacing::{quic_pacing_campaign, QUIC_SIZES_FULL};
use experiments::{run_fleet_cell, run_flow, run_quic_pacing_cell, FlowGrid, CAMPAIGN_VERSION};
use serde::{Deserialize, Serialize};
use simrunner::{Cache, CellIdentity, FctAnnotation, RunManifest, RunnerOpts};
use simstats::LogHistogram;
use simtrace::CounterSnapshot;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full fig18 grid: 28 scenarios × {1, 2, 4} MB × {BBR, CUBIC,
    /// CUBIC+SUSS} × 5 seeds = 1260 short single-flow cells.
    PaperMatrix,
    /// The full `ext_fleet` run: 18 cells × 2,000 heavy-tailed flows.
    FleetWeb,
    /// The full `ext_quic_pacing` run: 12 cells, 432 QUIC downloads.
    QuicPacing,
}

/// Seed-1 manifest fingerprints, as the `fig18`, `ext_fleet` and
/// `ext_quic_pacing` binaries write them.
const GOLDEN: [(Workload, &str); 3] = [
    (Workload::PaperMatrix, "d4391a9a97768406"),
    (Workload::FleetWeb, "e2c2ea9cd9df80e1"),
    (Workload::QuicPacing, "6bb02dd3051c024c"),
];

/// The seed at which the golden values above hold.
pub const GOLDEN_SEED: u64 = 1;

const FLEET_FLOWS: u64 = 2_000;
const QUIC_ITERS: u64 = 6;
const MATRIX_ITERS: u64 = 5;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperMatrix,
        Workload::FleetWeb,
        Workload::QuicPacing,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper_matrix",
            Workload::FleetWeb => "fleet_web",
            Workload::QuicPacing => "quic_pacing",
        }
    }

    /// Pool size: the matrix's many short cells use every core (at most
    /// 2); the two extension campaigns run on one worker, as their
    /// figures were measured.
    pub fn workers(self) -> usize {
        match self {
            Workload::PaperMatrix => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2),
            Workload::FleetWeb | Workload::QuicPacing => 1,
        }
    }

    /// Host seconds one repetition (a cold pass and its warm passes) took
    /// on the 2-core reference host; sets how many repetitions fill a run.
    fn rep_secs(self) -> f64 {
        match self {
            Workload::PaperMatrix => 2.5,
            Workload::FleetWeb => 3.7,
            Workload::QuicPacing => 1.9,
        }
    }

    /// Repetitions in a run of `seconds`: fixed by the arguments, so both
    /// sides of a comparison do the same work and pool the same number of
    /// cells. At least 3, so every run has a median of several passes.
    pub fn reps(self, seconds: u64) -> usize {
        ((seconds as f64 / self.rep_secs()).round() as usize).max(3)
    }

    /// Warm passes per repetition: enough to spend about 0.2 s, as a warm
    /// pass over a small campaign takes only milliseconds.
    pub fn warm_passes(self) -> usize {
        match self {
            Workload::PaperMatrix => 3,
            Workload::FleetWeb | Workload::QuicPacing => 40,
        }
    }

    pub fn golden_fingerprint(self) -> &'static str {
        GOLDEN
            .iter()
            .find(|(w, _)| *w == self)
            .map(|(_, fp)| *fp)
            .expect("every workload has a golden fingerprint")
    }

    /// Run the whole campaign once against `opts`' cache, every cell
    /// through `probe`.
    pub fn run(self, seed: u64, opts: &RunnerOpts, probe: &Arc<Probe>) -> Pass {
        match self {
            Workload::PaperMatrix => paper_matrix(seed, opts, probe),
            Workload::FleetWeb => fleet_web(seed, opts, probe),
            Workload::QuicPacing => quic_pacing(seed, opts, probe),
        }
    }
}

/// Short controller name, usable in metric names.
pub fn cc_name(cc: CcKind) -> &'static str {
    match cc {
        CcKind::Cubic => "cubic",
        CcKind::CubicSuss => "cubic_suss",
        CcKind::Bbr => "bbr",
        _ => "other",
    }
}

/// Store and load timings of one cache round trip over a pass's results.
#[derive(Debug, Default)]
pub struct CacheIo {
    pub store_us: Vec<f64>,
    pub load_us: Vec<f64>,
    /// Entries that failed to store or came back different.
    pub mismatches: usize,
}

/// Traced-pass context for [`Pass::cache_io`].
pub type SpanCtx<'a> = Option<(&'a Tracer, u64, u64)>;

type CacheIoFn = Box<dyn Fn(&Path, SpanCtx<'_>) -> CacheIo>;

/// One completed pass over a workload's campaign.
pub struct Pass {
    /// The run manifest, with the figure's annotations and a sealed
    /// fingerprint (as the workload's binary would write it).
    pub manifest: RunManifest,
    /// Every cell's counter snapshot, merged in campaign order.
    pub counters: CounterSnapshot,
    /// Result invariants that must hold at every seed, violated.
    pub problems: Vec<String>,
    /// Golden checks that hold at [`GOLDEN_SEED`], violated.
    pub golden_problems: Vec<String>,
    /// One line on what the results show.
    pub summary: String,
    /// Store then load every result of this pass in a fresh cache.
    pub cache_io: CacheIoFn,
}

fn paper_matrix(seed: u64, opts: &RunnerOpts, probe: &Arc<Probe>) -> Pass {
    // Mirrors `fct_sweep::sweep_matrix` cell for cell (same labels,
    // params, seeds and order), with each cell's `run_flow` wrapped by the
    // probe.
    let sizes = [workload::MB, 2 * workload::MB, 4 * workload::MB];
    let mut grid = FlowGrid::new("fct_sweep");
    let mut ids = Vec::new();
    let mut rows = Vec::new();
    for scn in fig18_scenarios() {
        for size in sizes {
            let mut batch = |kind: CcKind| {
                let label = format!("{}/{}/{}B", scn.id(), kind.label(), size);
                let params = format!("{} cc={} size={size}", scn.canonical_params(), kind.label());
                ids.extend((0..MATRIX_ITERS).map(|i| (params.clone(), seed + i)));
                let p = Arc::clone(probe);
                let prefix = label.clone();
                grid.batch_fn(&label, &params, MATRIX_ITERS, seed, move |s| {
                    p.cell(
                        cc_name(kind),
                        || format!("{prefix}/s{s}"),
                        || run_flow(&scn, kind, size, s, false),
                    )
                })
            };
            let _bbr = batch(CcKind::Bbr);
            let cubic = batch(CcKind::Cubic);
            let suss = batch(CcKind::CubicSuss);
            rows.push((cubic, suss));
        }
    }
    let run = grid.run(opts);

    let mut problems = Vec::new();
    let mut wins = 0;
    for (cubic, suss) in &rows {
        match (run.try_fct(*cubic), run.try_fct(*suss)) {
            (Some(c), Some(s)) if c.n == MATRIX_ITERS as usize && s.n == MATRIX_ITERS as usize => {
                if simstats::improvement(c.mean, s.mean) > 0.0 {
                    wins += 1;
                }
            }
            _ => problems.push("a fig18 batch has failed or incomplete flows".to_string()),
        }
    }
    if run
        .stats
        .iter()
        .any(|s| s.as_ref().is_none_or(|s| !s.fct_secs.is_finite()))
    {
        problems.push("a fig18 cell failed or its flow never completed".to_string());
    }
    let mut golden_problems = Vec::new();
    if (wins, rows.len()) != (80, 84) {
        golden_problems.push(format!(
            "SUSS beats CUBIC in {wins}/{} rows, want 80/84",
            rows.len()
        ));
    }
    let summary = format!("SUSS beats CUBIC in {wins}/{} rows", rows.len());
    finish(
        run.manifest,
        run.stats,
        problems,
        golden_problems,
        summary,
        ids,
        |s| &s.counters,
    )
}

fn fleet_web(seed: u64, opts: &RunnerOpts, probe: &Arc<Probe>) -> Pass {
    let (campaign, configs) = fleet_campaign(FLEET_FLOWS, seed);
    let ids = identities(&campaign);
    let configs = Arc::new(configs);
    let (cfgs, p) = (Arc::clone(&configs), Arc::clone(probe));
    let out = campaign.run(&opts.executor(), move |cell| {
        let cfg = &cfgs[cell.index];
        p.cell(
            cc_name(cfg.cc),
            || cell.label.clone(),
            || run_fleet_cell(cfg, cell.seed),
        )
    });
    let mut manifest = out.manifest;
    let mut problems = Vec::new();
    let (mut spawned, mut completed, mut expired) = (0, 0, 0);
    for s in out.results.iter().flatten() {
        (spawned, completed, expired) = (
            spawned + s.spawned,
            completed + s.completed,
            expired + s.expired,
        );
    }
    if out.results.iter().any(Option::is_none) {
        problems.push("a fleet cell failed".to_string());
    }
    if completed + expired != spawned || spawned != FLEET_FLOWS * configs.len() as u64 {
        problems.push(format!(
            "fleet flows: spawned={spawned} completed={completed} expired={expired}"
        ));
    }
    let mut golden_problems = Vec::new();
    if (completed, expired) != (36_000, 0) {
        golden_problems.push(format!(
            "fleet completed {completed}/36000 flows with {expired} expired"
        ));
    }
    annotate(&mut manifest, &out.results, |s| s.buckets());
    finish(
        manifest,
        out.results,
        problems,
        golden_problems,
        format!("fleet flows: spawned={spawned} completed={completed} expired={expired}"),
        ids,
        |s| &s.counters,
    )
}

fn quic_pacing(seed: u64, opts: &RunnerOpts, probe: &Arc<Probe>) -> Pass {
    let (campaign, configs) = quic_pacing_campaign(QUIC_ITERS, &QUIC_SIZES_FULL, seed);
    let ids = identities(&campaign);
    let configs = Arc::new(configs);
    let (cfgs, p) = (Arc::clone(&configs), Arc::clone(probe));
    let out = campaign.run(&opts.executor(), move |cell| {
        let cfg = &cfgs[cell.index];
        p.cell(
            cc_name(cfg.cc),
            || cell.label.clone(),
            || run_quic_pacing_cell(cfg, cell.seed),
        )
    });
    let mut manifest = out.manifest;
    let mut problems = Vec::new();
    let (mut completed, mut incomplete) = (0, 0);
    for s in out.results.iter().flatten() {
        (completed, incomplete) = (completed + s.completed, incomplete + s.incomplete);
    }
    let downloads = QUIC_ITERS * QUIC_SIZES_FULL.len() as u64 * configs.len() as u64;
    if out.results.iter().any(Option::is_none) || completed + incomplete != downloads {
        problems.push(format!(
            "quic downloads: completed={completed} incomplete={incomplete} of {downloads}"
        ));
    }
    let mut golden_problems = Vec::new();
    if incomplete != 0 {
        golden_problems.push(format!(
            "quic has {incomplete} incomplete downloads, want 0"
        ));
    }
    annotate(&mut manifest, &out.results, |s| s.buckets());
    finish(
        manifest,
        out.results,
        problems,
        golden_problems,
        format!("quic downloads: completed={completed} incomplete={incomplete}"),
        ids,
        |s| &s.counters,
    )
}

/// The cache identity (params, seed) of every cell, in campaign order.
fn identities(c: &simrunner::Campaign) -> Vec<(String, u64)> {
    c.cells.iter().map(|c| (c.params.clone(), c.seed)).collect()
}

/// Add one FCT annotation per non-empty flow-size bucket, exactly as
/// `fleet_table` and `quic_pacing_table` do before writing the manifest.
fn annotate<T>(
    manifest: &mut RunManifest,
    results: &[Option<T>],
    buckets: impl Fn(&T) -> [(&'static str, &LogHistogram); 3],
) {
    for (i, stats) in results.iter().enumerate() {
        let Some(stats) = stats else { continue };
        for (bucket, hist) in buckets(stats) {
            if hist.count() == 0 {
                continue;
            }
            let (p50, p90, p99, p999) = hist.quartet();
            manifest.annotations.push(FctAnnotation {
                label: format!("{}/{bucket}", manifest.cells[i].label),
                n: hist.count(),
                p50,
                p90,
                p99,
                p999,
            });
        }
    }
}

fn finish<T>(
    mut manifest: RunManifest,
    results: Vec<Option<T>>,
    problems: Vec<String>,
    golden_problems: Vec<String>,
    summary: String,
    ids: Vec<(String, u64)>,
    counters_of: impl Fn(&T) -> &CounterSnapshot,
) -> Pass
where
    T: Serialize + Deserialize + PartialEq + 'static,
{
    manifest.fingerprint = manifest.compute_fingerprint();
    let mut counters = CounterSnapshot::default();
    for s in results.iter().flatten() {
        counters.merge(counters_of(s));
    }
    let experiment = manifest.experiment.clone();
    Pass {
        manifest,
        counters,
        problems,
        golden_problems,
        summary,
        cache_io: Box::new(move |dir, ctx| cache_roundtrip(&experiment, &ids, &results, dir, ctx)),
    }
}

/// Store every result under its cell identity in a fresh cache at `dir`,
/// then load each back, timing every call.
fn cache_roundtrip<T>(
    experiment: &str,
    ids: &[(String, u64)],
    results: &[Option<T>],
    dir: &Path,
    ctx: SpanCtx<'_>,
) -> CacheIo
where
    T: Serialize + Deserialize + PartialEq,
{
    let mut io = CacheIo::default();
    let cache = match Cache::open(dir, experiment) {
        Ok(c) => c,
        Err(_) => {
            io.mismatches = results.len();
            return io;
        }
    };
    fn id_of<'a>(experiment: &'a str, (params, seed): &'a (String, u64)) -> CellIdentity<'a> {
        CellIdentity {
            experiment,
            version: CAMPAIGN_VERSION,
            params,
            seed: *seed,
        }
    }
    let timed = |name: &'static str, f: &mut dyn FnMut() -> bool| -> (f64, bool) {
        let (start, t) = (ctx.map(|(tr, _, _)| tr.now_us()), Instant::now());
        let ok = f();
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let (Some((tracer, trace, parent)), Some(start_us)) = (ctx, start) {
            tracer.record(Span {
                id: tracer.new_id(),
                parent,
                trace,
                name,
                label: String::new(),
                start_us,
                end_us: tracer.now_us(),
            });
        }
        (us, ok)
    };
    for (id, r) in ids.iter().zip(results) {
        let Some(v) = r else { continue };
        let (us, ok) = timed("cache_store", &mut || {
            cache.store(&id_of(experiment, id), v).is_ok()
        });
        io.store_us.push(us);
        io.mismatches += usize::from(!ok);
    }
    for (id, r) in ids.iter().zip(results) {
        let Some(v) = r else { continue };
        let (us, ok) = timed("cache_load", &mut || {
            cache.load::<T>(&id_of(experiment, id)).as_ref() == Some(v)
        });
        io.load_us.push(us);
        io.mismatches += usize::from(!ok);
    }
    io
}
