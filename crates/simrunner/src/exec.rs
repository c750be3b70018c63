//! The campaign executor behind [`Campaign::run`].
//!
//! A [`Campaign`] is pure data; the [`Executor`] built by
//! [`RunnerOpts::executor`](crate::RunnerOpts::executor) runs it on the
//! engine its [`ExecSpec`](crate::ExecSpec) selects, so call sites
//! uniformly write `campaign.run(&opts.executor(), f)`. Every engine
//! commits results by cell index, so the output is byte-identical across
//! engines, worker counts and shard counts:
//!
//! * the pool (`ExecSpec::Pool`, the default) — the deterministic
//!   token-tracked thread pool with panic isolation, bounded retries,
//!   wall-clock and progress-stall watchdogs, and flight-recorder crash
//!   dumps;
//! * the distributed path — a shard (`ExecSpec::Shard`) computes only the
//!   cells it owns (round-robin by index, see [`ShardInfo::owns`]) on the
//!   pool against the shared cache and writes a shard manifest; the
//!   coordinator (`ExecSpec::Coordinator`) runs N shards (child processes
//!   or in-process), and it and `ExecSpec::MergeShards` merge the shard
//!   manifests with [`RunManifest::merge_shards`], reload the results
//!   from the shared cache, and return a report indistinguishable from a
//!   single-process run — same results, same manifest fingerprint.
//!
//! The coordinator is self-healing: each shard child writes a heartbeat
//! file ticked from its progress epoch, a stall-aware [`LeaseClock`]
//! declares shards dead (lease expiry or abnormal exit), dead shards are
//! restarted on a bounded budget with linear backoff, and whatever still
//! has no usable shard manifest at merge time has its remaining cells
//! reassigned inline — so a SIGKILLed shard costs only its unfinished
//! cells, never the campaign.

use crate::campaign::{
    dump_flightrec, panic_message, run_bracketed, Campaign, CampaignReport, Cell, CellTelemetry,
    ExecSpec, FailurePolicy, ManifestParts, RunnerOpts,
};
use crate::manifest::{
    shard_heartbeat_path, shard_manifest_path, CellRecord, CellStatus, RunManifest, ShardInfo,
};
use crate::pool::BoundedQueue;
use crate::progress::{read_heartbeat, Heartbeat, Progress};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Watchdog/retry scheduling granularity of the pool.
const TICK: Duration = Duration::from_millis(20);
/// Backoff unit: attempt `k` waits `k × RETRY_BACKOFF` before re-running.
const RETRY_BACKOFF: Duration = Duration::from_millis(25);
/// Poll interval of the coordinator's shard-child monitor.
const SHARD_POLL: Duration = Duration::from_millis(40);
/// Backoff unit for dead-shard restarts: restart `r` of a shard waits
/// `r × SHARD_RESTART_BACKOFF` before respawning.
const SHARD_RESTART_BACKOFF: Duration = Duration::from_millis(200);
/// Exit code of a shard child whose cells failed (manifest still written).
pub const SHARD_FAILED_EXIT: i32 = 3;

/// Runs campaigns on the engine selected by the options it was built
/// from (see [`RunnerOpts::executor`]). Every engine commits results in
/// campaign (cell-index) order and fills a [`RunManifest`] describing the
/// run.
#[derive(Debug, Clone)]
pub struct Executor {
    opts: RunnerOpts,
}

impl Executor {
    /// Execute `campaign`, computing each cell with `f`.
    ///
    /// The `'static` bounds come from the pool's detached (non-scoped)
    /// workers, which are what make abandonment possible: a hung cell's
    /// thread is left behind (it dies with the process) while a
    /// replacement worker keeps the pool at full strength.
    pub fn execute<T, F>(&self, campaign: &Campaign, f: F) -> CampaignReport<T>
    where
        T: Serialize + Deserialize + Send + 'static,
        F: Fn(&Cell) -> T + Send + Sync + 'static,
    {
        let opts = &self.opts;
        match &opts.executor {
            ExecSpec::Pool => run_pool(campaign, opts, f),
            &ExecSpec::Shard { index, total } => run_shard(
                campaign,
                opts,
                ShardInfo { index, total },
                opts.shard_exit,
                f,
            ),
            ExecSpec::Coordinator { shards, argv } => {
                run_coordinator(campaign, opts, *shards, argv.as_deref(), f)
            }
            ExecSpec::MergeShards { shards } => run_merge(campaign, opts, *shards, f),
        }
    }
}

impl RunnerOpts {
    /// Build the executor for these options; it runs the engine selected
    /// by the `executor` field. Call sites uniformly write
    /// `campaign.run(&opts.executor(), f)`.
    pub fn executor(&self) -> Executor {
        Executor { opts: self.clone() }
    }
}

// ---------------------------------------------------------------------------
// Shared phases: cache serve, manifest finish
// ---------------------------------------------------------------------------

/// State threaded through a pool or shard run's phases.
struct Prepared<T> {
    started: Instant,
    workers: usize,
    cache: Option<crate::cache::Cache>,
    results: Vec<Option<T>>,
    records: Vec<CellRecord>,
    /// Cell indices still to compute (owned, not served from cache).
    pending: Vec<usize>,
    cache_hits: usize,
    skipped: usize,
    progress: Progress,
    /// The shard this run covers, when any.
    shard: Option<ShardInfo>,
    /// Liveness publisher for shard runs (see [`Heartbeat`]); `None` for
    /// pool runs.
    heartbeat: Option<Heartbeat>,
}

/// Failure/observability tallies from the compute phase.
#[derive(Default)]
struct Tallies {
    failed: usize,
    retries: u64,
    timeouts: u64,
    prof: simtrace::ProfSnapshot,
    scopes: Vec<simtrace::ScopeAnnotation>,
}

/// Phase 1, common to the pool and shards: mark unowned cells skipped and
/// serve owned cells from the cache (main thread: cheap).
fn prepare<T: Deserialize>(
    campaign: &Campaign,
    opts: &RunnerOpts,
    shard: Option<ShardInfo>,
) -> Prepared<T> {
    let started = Instant::now();
    let workers = opts.resolved_workers();
    let cache = campaign.open_cache(opts);
    let n = campaign.cells.len();
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut records = campaign.blank_records();
    let owns = |i: usize| shard.is_none_or(|s| s.owns(i));
    let owned_total = (0..n).filter(|&i| owns(i)).count();
    let mut progress = Progress::new(&campaign.experiment, owned_total, opts.progress);
    // Publish liveness as early as possible: the coordinator's lease
    // starts counting at spawn time.
    let mut heartbeat = shard.map(|s| {
        Heartbeat::new(shard_heartbeat_path(
            &opts.stem_for(&campaign.experiment),
            s.index,
            s.total,
        ))
    });
    let mut pending: Vec<usize> = Vec::new();
    let mut skipped = 0usize;
    for cell in &campaign.cells {
        if !owns(cell.index) {
            records[cell.index].status = CellStatus::Skipped;
            skipped += 1;
            continue;
        }
        let hit = if opts.force_cold {
            None
        } else {
            cache
                .as_ref()
                .and_then(|c| c.load::<T>(&campaign.identity(cell)))
        };
        match hit {
            Some(v) => {
                results[cell.index] = Some(v);
                records[cell.index].cached = true;
                progress.tick(true);
            }
            None => pending.push(cell.index),
        }
    }
    let cache_hits = owned_total - pending.len();
    if let Some(hb) = heartbeat.as_mut() {
        hb.beat(progress.done() as u64);
    }
    Prepared {
        started,
        workers,
        cache,
        results,
        records,
        pending,
        cache_hits,
        skipped,
        progress,
        shard,
        heartbeat,
    }
}

/// Final phase, common to the pool and shards: sweep the cache, assemble
/// the manifest (with results digest and fingerprint), print the summary,
/// and apply the failure policy.
fn finish<T: Serialize>(
    campaign: &Campaign,
    opts: &RunnerOpts,
    exec_label: String,
    shard: Option<ShardInfo>,
    prep: Prepared<T>,
    tallies: Tallies,
    raise: bool,
) -> CampaignReport<T> {
    prep.progress.finish();
    campaign.sweep_cache(opts);
    let quarantined = prep
        .cache
        .as_ref()
        .map(|c| c.quarantined_count())
        .unwrap_or(0);
    let digest = results_digest_of(&prep.results, &prep.records);
    let mut manifest = campaign.assemble_manifest(ManifestParts {
        executor: exec_label,
        shard,
        workers: prep.workers,
        cache_hits: prep.cache_hits,
        cells_skipped: prep.skipped,
        started: prep.started,
        records: prep.records,
        cells_failed: tallies.failed,
        cell_retries: tallies.retries,
        cell_timeouts: tallies.timeouts,
        cache_quarantined: quarantined,
        results_digest: digest,
        prof: tallies.prof,
        scope_annotations: tallies.scopes,
    });
    manifest.fingerprint = manifest.compute_fingerprint();
    if opts.progress {
        eprint!("{}", manifest.summary());
    }
    if raise {
        raise_first_failure(&manifest);
    }
    CampaignReport {
        results: prep.results,
        manifest,
    }
}

/// Re-raise the first terminal cell failure with the old single-process
/// message shape ("campaign 'x' cell 'y' panicked: boom").
fn raise_first_failure(m: &RunManifest) {
    if let Some(rec) = m
        .cells
        .iter()
        .find(|r| !r.status.succeeded() && r.status != CellStatus::Skipped)
    {
        let verb = match rec.status {
            CellStatus::TimedOut => "timed out",
            _ => "panicked",
        };
        panic!(
            "campaign '{}' cell '{}' {verb}: {}",
            m.experiment, rec.label, rec.error
        );
    }
}

/// FNV-1a digest over the results present, keyed by cell index. Failed
/// cells (a `None` whose record is not `Skipped`) make the digest
/// meaningless, so it comes back empty. The serde shim's f64 rendering
/// round-trips exactly, so a digest over re-serialized cached values
/// equals the digest over freshly computed ones.
fn results_digest_of<T: Serialize>(results: &[Option<T>], records: &[CellRecord]) -> String {
    let mut canon = String::new();
    for (i, r) in results.iter().enumerate() {
        match r {
            Some(v) => {
                canon.push_str(&i.to_string());
                canon.push('\0');
                canon.push_str(&serde::to_string(v));
                canon.push('\n');
            }
            None if records[i].status == CellStatus::Skipped => {}
            None => return String::new(),
        }
    }
    format!("{:016x}", crate::fnv1a64(canon.as_bytes()))
}

// ---------------------------------------------------------------------------
// The pool (and the shard's compute core)
// ---------------------------------------------------------------------------

/// The deterministic token-tracked thread pool: detached workers under a
/// watchdog, per-cell panic isolation with bounded retries (linear
/// backoff), wall-clock and progress-stall abandonment, flight-recorder
/// dumps on terminal failure. Results commit by cell index on the main
/// thread.
fn run_pool<T, F>(campaign: &Campaign, opts: &RunnerOpts, f: F) -> CampaignReport<T>
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(&Cell) -> T + Send + Sync + 'static,
{
    let mut prep = prepare::<T>(campaign, opts, None);
    let tallies = run_pool_phase(campaign, opts, &mut prep, f);
    let raise = opts.on_failure == FailurePolicy::Raise;
    finish(campaign, opts, "pool".into(), None, prep, tallies, raise)
}

/// Phase 2 of the pool and of a shard: compute `prep.pending` on
/// detached workers under the watchdog loop.
fn run_pool_phase<T, F>(
    campaign: &Campaign,
    opts: &RunnerOpts,
    prep: &mut Prepared<T>,
    f: F,
) -> Tallies
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(&Cell) -> T + Send + Sync + 'static,
{
    let mut tallies = Tallies::default();
    if prep.pending.is_empty() {
        return tallies;
    }
    let n = campaign.cells.len();
    // `SUSS_CHAOS_KILL_SHARD` propagates to every process in the tree
    // (children inherit the environment); arm it only in a real shard
    // child (`shard_exit`) whose index matches, so the coordinator and
    // the inline recovery pass never kill themselves.
    let chaos_kill_after = match (opts.chaos_kill_shard, prep.shard) {
        (Some((k, after)), Some(s)) if opts.shard_exit && s.index == k => Some(after),
        _ => None,
    };
    let shard = prep.shard;
    let results = &mut prep.results;
    let records = &mut prep.records;
    let cache = &prep.cache;
    let progress = &mut prep.progress;
    let heartbeat = &mut prep.heartbeat;
    // The heartbeat epoch is `cells done + hb_base + Σ live in-flight
    // sinks`: hb_base folds in each attempt's final sink reading when it
    // leaves the in-flight map, keeping the epoch monotone as sinks come
    // and go.
    let mut hb_base = 0u64;
    let mut computed = 0u64;

    struct Dispatch {
        token: u64,
        index: usize,
        sink: Arc<AtomicU64>,
        recorder: Option<simtrace::FlightRecorder>,
    }
    enum Msg<T> {
        Started {
            token: u64,
        },
        Done {
            token: u64,
            outcome: Result<(T, CellTelemetry), String>,
        },
    }
    struct InFlight {
        index: usize,
        sink: Arc<AtomicU64>,
        recorder: Option<simtrace::FlightRecorder>,
        started: Option<Instant>,
        progress_seen: u64,
        progress_at: Instant,
    }

    let cells = Arc::new(campaign.cells.clone());
    let f = Arc::new(f);
    // Effectively unbounded: tokens are tiny, and the watchdog must never
    // block on a full queue.
    let work: Arc<BoundedQueue<Dispatch>> = Arc::new(BoundedQueue::new(usize::MAX));
    let (tx, rx) = mpsc::channel::<Msg<T>>();
    let spawn_worker = {
        let work = Arc::clone(&work);
        let cells = Arc::clone(&cells);
        let f = Arc::clone(&f);
        let tx = tx.clone();
        let profile = opts.profile;
        move || {
            let work = Arc::clone(&work);
            let cells = Arc::clone(&cells);
            let f = Arc::clone(&f);
            let tx = tx.clone();
            thread::spawn(move || {
                while let Some(d) = work.pop() {
                    // The per-cell progress sink lets the main thread
                    // distinguish "slow but advancing" from "livelocked"
                    // without touching the simulation; the flight
                    // recorder is the dispatching thread's handle, so the
                    // ring stays readable even if this thread hangs.
                    simtrace::runtime::set_progress_sink(Some(Arc::clone(&d.sink)));
                    simtrace::flightrec::install(d.recorder.clone());
                    if tx.send(Msg::Started { token: d.token }).is_err() {
                        break;
                    }
                    let (out, tel) = run_bracketed(profile, || f(&cells[d.index]));
                    simtrace::flightrec::install(None);
                    simtrace::runtime::set_progress_sink(None);
                    let outcome = match out {
                        Ok(v) => Ok((v, tel)),
                        Err(p) => Err(panic_message(&*p)),
                    };
                    if tx
                        .send(Msg::Done {
                            token: d.token,
                            outcome,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
            });
        }
    };
    for _ in 0..prep.workers.min(prep.pending.len()) {
        spawn_worker();
    }

    let mut inflight: HashMap<u64, InFlight> = HashMap::new();
    let mut attempts: Vec<u32> = vec![0; n];
    let mut next_token = 0u64;
    let mut delayed: Vec<(Instant, usize)> = Vec::new();
    let mut outstanding = prep.pending.len();
    // Not a closure: it would hold `records`/`next_token` borrowed across
    // the whole loop, which also mutates them.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        index: usize,
        work: &BoundedQueue<Dispatch>,
        next_token: &mut u64,
        attempts: &mut [u32],
        records: &mut [CellRecord],
        inflight: &mut HashMap<u64, InFlight>,
        flightrec: bool,
    ) {
        let token = *next_token;
        *next_token += 1;
        attempts[index] += 1;
        records[index].attempts = attempts[index];
        let sink = Arc::new(AtomicU64::new(0));
        let recorder = flightrec.then(|| {
            let r = simtrace::FlightRecorder::new(simtrace::flightrec::DEFAULT_CAPACITY);
            // Seed the ring so a cell that dies before producing any
            // trace record (e.g. an injected panic at dispatch) still
            // leaves a parseable, non-empty dump.
            r.push(simtrace::TraceRecord::metric(
                0,
                simtrace::kind::COUNTER,
                "runner.dispatch",
                u64::from(attempts[index]),
            ));
            r
        });
        inflight.insert(
            token,
            InFlight {
                index,
                sink: Arc::clone(&sink),
                recorder: recorder.clone(),
                started: None,
                progress_seen: 0,
                progress_at: Instant::now(),
            },
        );
        work.push(Dispatch {
            token,
            index,
            sink,
            recorder,
        });
    }
    let flightrec = opts.flightrec_dir.is_some();
    for &idx in &prep.pending {
        dispatch(
            idx,
            &work,
            &mut next_token,
            &mut attempts,
            records,
            &mut inflight,
            flightrec,
        );
    }

    while outstanding > 0 {
        // Release retries whose backoff has elapsed.
        let now = Instant::now();
        let mut i = 0;
        while i < delayed.len() {
            if delayed[i].0 <= now {
                let (_, idx) = delayed.swap_remove(i);
                dispatch(
                    idx,
                    &work,
                    &mut next_token,
                    &mut attempts,
                    records,
                    &mut inflight,
                    flightrec,
                );
            } else {
                i += 1;
            }
        }

        match rx.recv_timeout(TICK) {
            Ok(Msg::Started { token }) => {
                if let Some(fl) = inflight.get_mut(&token) {
                    let now = Instant::now();
                    fl.started = Some(now);
                    fl.progress_at = now;
                    fl.progress_seen = fl.sink.load(Ordering::Relaxed);
                }
            }
            Ok(Msg::Done { token, outcome }) => {
                // An unknown token is a late result from an attempt the
                // watchdog already abandoned: the cell's fate is sealed,
                // drop it (and never cache it).
                let Some(fl) = inflight.remove(&token) else {
                    continue;
                };
                hb_base += fl.sink.load(Ordering::Relaxed);
                let idx = fl.index;
                match outcome {
                    Ok((v, tel)) => {
                        if let Some(c) = cache {
                            // A failed store only costs a future miss.
                            let _ = c.store(&campaign.identity(&campaign.cells[idx]), &v);
                        }
                        records[idx].wall_ms = tel.wall_ms;
                        records[idx].events = tel.events;
                        tallies.prof.merge(&tel.prof);
                        tallies.scopes.extend(tel.scopes);
                        records[idx].status = if attempts[idx] > 1 {
                            CellStatus::Retried
                        } else {
                            CellStatus::Ok
                        };
                        results[idx] = Some(v);
                        outstanding -= 1;
                        progress.tick(false);
                        computed += 1;
                        if chaos_kill_after.is_some_and(|after| computed >= after) {
                            chaos_sigkill_self(shard, computed);
                        }
                    }
                    Err(msg) => {
                        if attempts[idx] <= opts.cell_retries {
                            tallies.retries += 1;
                            let backoff = RETRY_BACKOFF * attempts[idx];
                            delayed.push((Instant::now() + backoff, idx));
                        } else {
                            records[idx].status = CellStatus::Panicked;
                            records[idx].error = msg;
                            // Terminal failure: dump the black box.
                            if let (Some(dir), Some(rec)) =
                                (opts.flightrec_dir.as_deref(), fl.recorder.as_ref())
                            {
                                if let Some(path) =
                                    dump_flightrec(dir, &campaign.cells[idx].label, rec)
                                {
                                    records[idx].flightrec = path;
                                }
                            }
                            tallies.failed += 1;
                            outstanding -= 1;
                            progress.tick(false);
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }

        // Watchdog: abandon cells over the wall budget or stalled.
        let now = Instant::now();
        let mut expired: Vec<(u64, String)> = Vec::new();
        for (&token, fl) in inflight.iter_mut() {
            let Some(cell_started) = fl.started else {
                continue;
            };
            if let Some(limit) = opts.cell_timeout {
                if now.duration_since(cell_started) > limit {
                    expired.push((token, format!("wall-clock budget exceeded ({limit:?})")));
                    continue;
                }
            }
            if let Some(stall) = opts.stall_timeout {
                let cur = fl.sink.load(Ordering::Relaxed);
                if cur != fl.progress_seen {
                    fl.progress_seen = cur;
                    fl.progress_at = now;
                } else if now.duration_since(fl.progress_at) > stall {
                    expired.push((token, format!("no simulator progress for {stall:?}")));
                }
            }
        }
        for (token, msg) in expired {
            let Some(fl) = inflight.remove(&token) else {
                continue;
            };
            hb_base += fl.sink.load(Ordering::Relaxed);
            records[fl.index].status = CellStatus::TimedOut;
            records[fl.index].error = msg;
            // The hung worker can never drain its own ring; the
            // dispatching thread's clone reads it from outside.
            if let (Some(dir), Some(rec)) = (opts.flightrec_dir.as_deref(), fl.recorder.as_ref()) {
                if let Some(path) = dump_flightrec(dir, &campaign.cells[fl.index].label, rec) {
                    records[fl.index].flightrec = path;
                }
            }
            tallies.timeouts += 1;
            tallies.failed += 1;
            outstanding -= 1;
            progress.tick(false);
            // The abandoned worker thread is stuck in the cell; restore
            // pool capacity with a fresh thread.
            spawn_worker();
        }

        if let Some(hb) = heartbeat.as_mut() {
            let live: u64 = inflight
                .values()
                .map(|fl| fl.sink.load(Ordering::Relaxed))
                .sum();
            hb.beat(progress.done() as u64 + hb_base + live);
        }
    }
    work.close();
    drop(tx);

    // Defensive: if the channel disconnected early (no live workers),
    // account for whatever never resolved.
    for &idx in &prep.pending {
        if results[idx].is_none() && records[idx].status.succeeded() {
            records[idx].status = CellStatus::Panicked;
            records[idx].error = "worker pool disconnected".to_string();
            tallies.failed += 1;
        }
    }
    tallies
}

// ---------------------------------------------------------------------------
// Sharded execution: shard, coordinator, merge
// ---------------------------------------------------------------------------

/// Executes one shard of a campaign: the cells with
/// `index % shard.total == shard.index` run on the pool core against the
/// shared cache, every other cell is recorded as
/// [`Skipped`](CellStatus::Skipped), and the resulting shard manifest is
/// written to `<stem>.shard<k>of<N>.manifest.json`.
///
/// The failure policy is always record-style here — the coordinator
/// applies [`FailurePolicy`] after the merge, and a shard child must
/// deliver its manifest even when cells fail. With `exit` (set via
/// `SUSS_SHARD` in child processes) the process exits after the manifest
/// is written: 0 when clean, [`SHARD_FAILED_EXIT`] when cells failed.
fn run_shard<T, F>(
    campaign: &Campaign,
    opts: &RunnerOpts,
    shard: ShardInfo,
    exit: bool,
    f: F,
) -> CampaignReport<T>
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(&Cell) -> T + Send + Sync + 'static,
{
    let mut prep = prepare::<T>(campaign, opts, Some(shard));
    let tallies = run_pool_phase(campaign, opts, &mut prep, f);
    let label = format!("shard {}/{}", shard.index, shard.total);
    let report = finish(campaign, opts, label, Some(shard), prep, tallies, false);
    let stem = opts.stem_for(&campaign.experiment);
    let path = shard_manifest_path(&stem, shard.index, shard.total);
    if let Err(e) = report.manifest.write(&path) {
        eprintln!("error: cannot write shard manifest {}: {e}", path.display());
        if exit {
            std::process::exit(4);
        }
    }
    if exit {
        std::process::exit(if report.manifest.cells_failed > 0 {
            SHARD_FAILED_EXIT
        } else {
            0
        });
    }
    report
}

/// Splits a campaign into `shards` shards against the shared cache, runs
/// them (as child processes re-executing the current binary with
/// `SUSS_SHARD=k/N`, or in-process when `argv` is `None`), merges the
/// shard manifests, and reloads the full result set from the cache —
/// returning a report whose results and manifest fingerprint are
/// identical to a single-process run. Without a cache dir it degrades to
/// the pool with a warning.
///
/// The coordinator is self-healing. Child shards are supervised through
/// their heartbeat files: a shard whose progress epoch freezes past the
/// lease ([`RunnerOpts::with_shard_lease`]) is killed, and a dead shard
/// (lease expiry or abnormal exit — [`SHARD_FAILED_EXIT`] is *normal*)
/// is restarted with linear backoff up to its restart budget. Whatever
/// still has no usable manifest at merge time has its remaining cells
/// reassigned: they re-run inline against the warm shared cache, so the
/// merged manifest gets exactly-one-owner coverage and the fingerprint
/// stays byte-identical to a single-shard run. Recovery is visible as
/// `shard_restarts` / `lease_expiries` / `cells_reassigned`.
fn run_coordinator<T, F>(
    campaign: &Campaign,
    opts: &RunnerOpts,
    shards: usize,
    argv: Option<&[String]>,
    f: F,
) -> CampaignReport<T>
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(&Cell) -> T + Send + Sync + 'static,
{
    let started = Instant::now();
    if opts.cache_dir.is_none() {
        eprintln!(
            "warning: the shard coordinator needs a shared cache dir \
             (results are exchanged through it); running on the pool instead"
        );
        return run_pool(campaign, opts, f);
    }
    let total = shards.max(1);
    let stem = opts.stem_for(&campaign.experiment);
    write_shard_plan(&stem, campaign, total, opts);
    // Remove leftover shard manifests and heartbeats first: a stale
    // one would masquerade as this run's output (or liveness) if its
    // shard died.
    for k in 0..total {
        let _ = std::fs::remove_file(shard_manifest_path(&stem, k, total));
        let _ = std::fs::remove_file(shard_heartbeat_path(&stem, k, total));
    }
    let f = Arc::new(f);
    let sup = match argv {
        Some(argv) => run_shard_children(total, argv, opts, &stem),
        None => {
            for k in 0..total {
                let fk = Arc::clone(&f);
                let shard = ShardInfo { index: k, total };
                let _ = run_shard(campaign, opts, shard, false, move |cell: &Cell| fk(cell));
            }
            ShardSupervision::default()
        }
    };
    let label = format!("coordinator({total} shards)");
    merge_and_load(campaign, opts, started, total, label, f, sup)
}

/// Merges already-written shard manifests (e.g. from shard runs driven
/// by `scripts/shard_run.sh` or on other machines sharing the cache).
/// A shard whose manifest is missing, corrupt, or from a different
/// campaign has its cells reassigned: they run inline against the warm
/// shared cache (so a dead shard's *completed* cells are cache hits and
/// only its orphans recompute), exactly like a coordinator whose child
/// died.
fn run_merge<T, F>(campaign: &Campaign, opts: &RunnerOpts, shards: usize, f: F) -> CampaignReport<T>
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(&Cell) -> T + Send + Sync + 'static,
{
    let total = shards.max(1);
    let label = format!("merged({total} shards)");
    let sup = ShardSupervision::default();
    merge_and_load(
        campaign,
        opts,
        Instant::now(),
        total,
        label,
        Arc::new(f),
        sup,
    )
}

/// SIGKILL the current process — the chaos hook behind
/// `SUSS_CHAOS_KILL_SHARD=k:after_cells`. Emits a marker line first so
/// chaos runs are auditable in the coordinator's stderr. SIGKILL (not a
/// clean exit) is the point: the shard dies without flushing its
/// manifest, exactly like an OOM kill or a node reboot.
fn chaos_sigkill_self(shard: Option<ShardInfo>, computed: u64) -> ! {
    let label = shard
        .map(|s| format!("{}/{}", s.index, s.total))
        .unwrap_or_else(|| "?".to_string());
    eprintln!("chaos: shard {label} SIGKILLing itself after {computed} computed cells");
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    // SIGKILL is not catchable; if the spawn itself failed, fall back to
    // an abort so the chaos run still dies without writing a manifest.
    std::process::abort();
}

/// Stall-aware liveness lease over a shard's heartbeat epoch: the lease
/// window restarts on every epoch *change* (including the first
/// observation), so a slow-but-advancing shard never expires — only one
/// whose epoch froze for longer than the lease.
#[derive(Debug)]
pub struct LeaseClock {
    lease: Option<Duration>,
    last_epoch: Option<u64>,
    last_advance: Instant,
}

impl LeaseClock {
    /// Start the clock at `now`; `None` disables expiry entirely.
    pub fn new(lease: Option<Duration>, now: Instant) -> Self {
        LeaseClock {
            lease,
            last_epoch: None,
            last_advance: now,
        }
    }

    /// Feed the latest heartbeat observation (`None` = no heartbeat file
    /// yet); returns `true` when the lease has expired.
    pub fn observe(&mut self, epoch: Option<u64>, now: Instant) -> bool {
        if epoch != self.last_epoch {
            self.last_epoch = epoch;
            self.last_advance = now;
        }
        self.lease
            .is_some_and(|l| now.duration_since(self.last_advance) > l)
    }
}

/// What shard supervision observed: stamped into the merged manifest as
/// the `runner.shard_restarts` / `runner.lease_expiries` counters.
#[derive(Debug, Default, Clone, Copy)]
struct ShardSupervision {
    restarts: u64,
    lease_expiries: u64,
}

/// Per-shard supervision state in [`run_shard_children`]'s poll loop.
enum Slot {
    Running {
        child: std::process::Child,
        lease: LeaseClock,
    },
    Backoff {
        at: Instant,
    },
    Finished,
    Dead,
}

/// Spawn one child per shard (the current executable with `argv` plus
/// `SUSS_SHARD=k/N` and the shared `SUSS_CACHE_DIR` in the environment)
/// and supervise them: heartbeats are polled against the lease, an
/// expired or abnormally-exited shard is restarted with linear backoff
/// up to `opts.shard_restarts`, and a shard that exhausts its budget is
/// left for the merge phase to reassign. [`SHARD_FAILED_EXIT`] is a
/// *normal* exit (cells failed but the manifest was written) and is
/// never restarted. Spawn failures only warn, for the same reason.
fn run_shard_children(
    total: usize,
    argv: &[String],
    opts: &RunnerOpts,
    stem: &Path,
) -> ShardSupervision {
    let mut sup = ShardSupervision::default();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("warning: cannot locate current executable for shard children: {e}");
            return sup;
        }
    };
    let cache = opts
        .cache_dir
        .as_ref()
        .expect("coordinator requires a cache dir");
    let spawn = |k: usize| -> Slot {
        // A stale heartbeat from the previous incarnation would feed the
        // fresh lease a frozen epoch; start from no-signal instead.
        let _ = std::fs::remove_file(shard_heartbeat_path(stem, k, total));
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(argv);
        cmd.env("SUSS_SHARD", format!("{k}/{total}"));
        cmd.env("SUSS_CACHE_DIR", cache);
        // The child writes no figures (it exits after its shard
        // manifest); its stdout is only table noise.
        cmd.stdout(std::process::Stdio::null());
        match cmd.spawn() {
            Ok(child) => Slot::Running {
                child,
                lease: LeaseClock::new(opts.shard_lease, Instant::now()),
            },
            Err(e) => {
                eprintln!("warning: shard {k}/{total} failed to spawn: {e}");
                Slot::Dead
            }
        }
    };
    let mut restarts_used = vec![0u32; total];
    // Grant a restart (with linear backoff) while the budget allows,
    // else give the shard up to merge-time reassignment.
    let next_after_death = |k: usize, restarts_used: &mut [u32], sup: &mut ShardSupervision| {
        if restarts_used[k] < opts.shard_restarts {
            restarts_used[k] += 1;
            sup.restarts += 1;
            let backoff = SHARD_RESTART_BACKOFF * restarts_used[k];
            eprintln!(
                "warning: restarting shard {k}/{total} in {backoff:?} \
                 (restart {} of {})",
                restarts_used[k], opts.shard_restarts
            );
            Slot::Backoff {
                at: Instant::now() + backoff,
            }
        } else {
            eprintln!(
                "warning: shard {k}/{total} is out of restarts; \
                 its remaining cells will be reassigned at merge"
            );
            Slot::Dead
        }
    };
    let mut slots: Vec<Slot> = (0..total).map(&spawn).collect();
    loop {
        let mut live = 0usize;
        for (k, slot) in slots.iter_mut().enumerate() {
            let next: Option<Slot> = match slot {
                Slot::Running { child, lease } => match child.try_wait() {
                    Ok(Some(status)) => {
                        if status.success() {
                            Some(Slot::Finished)
                        } else if status.code() == Some(SHARD_FAILED_EXIT) {
                            eprintln!(
                                "warning: shard {k}/{total} completed with failed cells \
                                 (see its shard manifest)"
                            );
                            Some(Slot::Finished)
                        } else {
                            eprintln!("warning: shard {k}/{total} exited abnormally: {status}");
                            Some(next_after_death(k, &mut restarts_used, &mut sup))
                        }
                    }
                    Ok(None) => {
                        let now = Instant::now();
                        let hb = read_heartbeat(&shard_heartbeat_path(stem, k, total));
                        if lease.observe(hb.map(|h| h.epoch), now) {
                            eprintln!(
                                "warning: shard {k}/{total} heartbeat lease expired \
                                 (epoch frozen past {:?}); killing it",
                                opts.shard_lease.unwrap_or_default()
                            );
                            sup.lease_expiries += 1;
                            let _ = child.kill();
                            let _ = child.wait();
                            Some(next_after_death(k, &mut restarts_used, &mut sup))
                        } else {
                            None
                        }
                    }
                    Err(e) => {
                        eprintln!("warning: waiting for shard {k}/{total} failed: {e}");
                        Some(Slot::Dead)
                    }
                },
                Slot::Backoff { at } => {
                    if Instant::now() >= *at {
                        Some(spawn(k))
                    } else {
                        None
                    }
                }
                Slot::Finished | Slot::Dead => None,
            };
            if let Some(next) = next {
                *slot = next;
            }
            if matches!(slot, Slot::Running { .. } | Slot::Backoff { .. }) {
                live += 1;
            }
        }
        if live == 0 {
            return sup;
        }
        thread::sleep(SHARD_POLL);
    }
}

/// The coordinator's back half: read the shard manifests (reassigning
/// any shard whose manifest is missing, corrupt, or from a different
/// campaign — its cells re-run inline against the warm shared cache),
/// merge them, reload the full result set from the cache (recomputing
/// inline on a cache miss — eviction must not corrupt the campaign),
/// stamp digest, fingerprint, recovery counters, and coordinator wall
/// time, remove the coordination scratch files after a fully successful
/// merge, and apply the failure policy.
fn merge_and_load<T, F>(
    campaign: &Campaign,
    opts: &RunnerOpts,
    started: Instant,
    total: usize,
    exec_label: String,
    f: Arc<F>,
    sup: ShardSupervision,
) -> CampaignReport<T>
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(&Cell) -> T + Send + Sync + 'static,
{
    let stem = opts.stem_for(&campaign.experiment);
    let mut cells_reassigned = 0u64;
    let mut shard_manifests = Vec::with_capacity(total);
    for k in 0..total {
        let path = shard_manifest_path(&stem, k, total);
        let read = match RunManifest::read(&path) {
            Ok(m) => match validate_shard_manifest(&m, campaign, k, total) {
                Ok(()) => Some(m),
                Err(why) => {
                    quarantine_shard_manifest(&path, &why);
                    None
                }
            },
            Err(e) => {
                if path.exists() {
                    quarantine_shard_manifest(&path, &e.to_string());
                } else {
                    eprintln!("warning: shard {k}/{total} left no manifest ({e})");
                }
                None
            }
        };
        match read {
            Some(m) => shard_manifests.push(m),
            None => {
                eprintln!(
                    "warning: reassigning shard {k}/{total}'s cells inline \
                     (completed cells resume from the shared cache)"
                );
                // Re-run the dead shard's slice in-process against the
                // warm shared cache: its completed cells are cache hits,
                // only its orphans recompute (`cache_misses`). This
                // rewrites the shard manifest on disk, so a re-driven
                // merge sees the recovered shard. No exit, and the chaos
                // kill hook is armed only in `SUSS_SHARD` children, so
                // recovery cannot kill the coordinator.
                let fk = Arc::clone(&f);
                let shard = ShardInfo { index: k, total };
                let recovered: CampaignReport<T> =
                    run_shard(campaign, opts, shard, false, move |cell: &Cell| fk(cell));
                cells_reassigned += recovered.manifest.cache_misses as u64;
                shard_manifests.push(recovered.manifest);
            }
        }
    }
    let mut manifest = match RunManifest::merge_shards(shard_manifests) {
        Ok(m) => m,
        Err(e) => panic!(
            "campaign '{}': shard merge failed: {e}",
            campaign.experiment
        ),
    };
    let cache = campaign.open_cache(opts);
    let n = campaign.cells.len();
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for cell in &campaign.cells {
        if !manifest.cells[cell.index].status.succeeded() {
            continue;
        }
        let id = campaign.identity(cell);
        match cache.as_ref().and_then(|c| c.load::<T>(&id)) {
            Some(v) => results[cell.index] = Some(v),
            None => {
                eprintln!(
                    "warning: cell '{}' missing from the shared cache; recomputing",
                    cell.label
                );
                let v = f(cell);
                if let Some(c) = &cache {
                    let _ = c.store(&id, &v);
                }
                results[cell.index] = Some(v);
            }
        }
    }
    manifest.executor = exec_label;
    manifest.results_digest = results_digest_of(&results, &manifest.cells);
    // Recovery counters are additive on top of whatever the shard
    // manifests carried (in-process recovery stamps nothing there).
    // None of them enter the fingerprint: recovery must not move it.
    manifest.shard_restarts += sup.restarts;
    manifest.lease_expiries += sup.lease_expiries;
    manifest.cells_reassigned += cells_reassigned;
    let wall = started.elapsed().as_secs_f64();
    manifest.wall_secs = wall;
    manifest.cells_per_sec = n as f64 / wall.max(1e-9);
    manifest.events_per_sec = manifest.events_total as f64 / wall.max(1e-9);
    manifest.utilization =
        manifest.worker_busy_secs / (wall.max(1e-9) * manifest.workers.max(1) as f64);
    manifest.fingerprint = manifest.compute_fingerprint();
    campaign.sweep_cache(opts);
    if opts.progress {
        eprint!("{}", manifest.summary());
    }
    if manifest.all_ok() {
        cleanup_shard_scratch(&stem, total);
    }
    if opts.on_failure == FailurePolicy::Raise {
        raise_first_failure(&manifest);
    }
    CampaignReport { results, manifest }
}

/// Check that a shard manifest parsed from disk actually belongs to this
/// campaign and shard slot — a stale file from another run, a shard
/// manifest copied to the wrong slot, or a mismatched `CAMPAIGN_VERSION`
/// must be quarantined and reassigned, not merged.
fn validate_shard_manifest(
    m: &RunManifest,
    campaign: &Campaign,
    index: usize,
    total: usize,
) -> Result<(), String> {
    let shard = ShardInfo { index, total };
    match m.shard {
        Some(s) if s.index == index && s.total == total => {}
        Some(s) => {
            return Err(format!(
                "claims shard {}/{} but sits in slot {index}/{total}",
                s.index, s.total
            ))
        }
        None => return Err("carries no shard stamp".to_string()),
    }
    if m.experiment != campaign.experiment
        || m.version != campaign.version
        || m.total_cells != campaign.cells.len()
    {
        return Err(format!(
            "belongs to campaign '{}' v{} ({} cells), not '{}' v{} ({} cells)",
            m.experiment,
            m.version,
            m.total_cells,
            campaign.experiment,
            campaign.version,
            campaign.cells.len()
        ));
    }
    if m.cells.len() != campaign.cells.len() {
        return Err(format!(
            "has {} cell records for a {}-cell campaign",
            m.cells.len(),
            campaign.cells.len()
        ));
    }
    for (i, r) in m.cells.iter().enumerate() {
        if r.index != i {
            return Err(format!("cell record {i} is out of position"));
        }
        let owned = shard.owns(i);
        if !owned && r.status != CellStatus::Skipped {
            return Err(format!("executed cell {i}, which it does not own"));
        }
        if owned && r.status == CellStatus::Skipped {
            return Err(format!("skipped cell {i}, which it owns"));
        }
    }
    Ok(())
}

/// Move a hostile shard manifest aside as `<path>.quarantine` (same
/// policy as cache corruption: preserved for forensics, never merged).
fn quarantine_shard_manifest(path: &Path, why: &str) {
    let mut q = path.as_os_str().to_os_string();
    q.push(".quarantine");
    let outcome = std::fs::rename(path, &q);
    match outcome {
        Ok(()) => eprintln!(
            "warning: shard manifest {} {why}; quarantined to {}",
            path.display(),
            std::path::Path::new(&q).display()
        ),
        Err(e) => eprintln!(
            "warning: shard manifest {} {why}; quarantine failed ({e}), ignoring it",
            path.display()
        ),
    }
}

/// Remove the coordination scratch files (heartbeats and the shard
/// plan) after a fully-successful merge. Shard manifests stay — they
/// are run artifacts, not scratch.
fn cleanup_shard_scratch(stem: &Path, total: usize) {
    for k in 0..total {
        let _ = std::fs::remove_file(shard_heartbeat_path(stem, k, total));
    }
    let name = stem
        .file_name()
        .map(|s| s.to_string_lossy())
        .unwrap_or_default();
    let _ = std::fs::remove_file(stem.with_file_name(format!("{name}.shardplan.json")));
}

/// The machine-readable shard plan written by the coordinator to
/// `<stem>.shardplan.json`: what was split, how, and where the shard
/// manifests will land — so external drivers (other machines sharing the
/// cache) can run shards themselves and merge later.
#[derive(Debug, Clone, Serialize)]
struct ShardPlan {
    experiment: String,
    version: String,
    total_cells: usize,
    shards: usize,
    cache_dir: String,
    cells_per_shard: Vec<usize>,
    shard_manifests: Vec<String>,
}

/// Write the shard plan next to the manifests. Failure only warns — the
/// plan is documentation, not coordination state.
fn write_shard_plan(stem: &Path, campaign: &Campaign, total: usize, opts: &RunnerOpts) {
    let plan = ShardPlan {
        experiment: campaign.experiment.clone(),
        version: campaign.version.clone(),
        total_cells: campaign.cells.len(),
        shards: total,
        cache_dir: opts
            .cache_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_default(),
        cells_per_shard: (0..total)
            .map(|k| {
                let s = ShardInfo { index: k, total };
                (0..campaign.cells.len()).filter(|&i| s.owns(i)).count()
            })
            .collect(),
        shard_manifests: (0..total)
            .map(|k| shard_manifest_path(stem, k, total).display().to_string())
            .collect(),
    };
    let name = stem
        .file_name()
        .map(|s| s.to_string_lossy())
        .unwrap_or_default();
    let path = stem.with_file_name(format!("{name}.shardplan.json"));
    let write = path
        .parent()
        .map(std::fs::create_dir_all)
        .unwrap_or(Ok(()))
        .and_then(|_| std::fs::write(&path, serde::to_string(&plan) + "\n"));
    if let Err(e) = write {
        eprintln!("warning: cannot write shard plan {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_campaign(n: u64) -> Campaign {
        let mut c = Campaign::new("unit", "v1");
        for seed in 0..n {
            c.cell(format!("cell-{seed}"), format!("seed={seed}"), seed);
        }
        c
    }

    #[test]
    fn results_arrive_in_cell_order() {
        let c = demo_campaign(32);
        let out = c.run(&RunnerOpts::default().with_workers(8).executor(), |cell| {
            // Uneven cell cost to scramble completion order.
            let spin = (cell.seed % 7) * 200;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
            cell.seed as f64
        });
        let expect: Vec<f64> = (0..32).map(|s| s as f64).collect();
        assert_eq!(out.manifest.total_cells, 32);
        assert_eq!(out.manifest.cache_hits, 0);
        assert_eq!(out.manifest.workers, 8);
        assert_eq!(out.manifest.executor, "pool");
        assert!(!out.manifest.results_digest.is_empty());
        assert_eq!(out.expect_all(), expect);
    }

    #[test]
    fn empty_campaign_is_fine() {
        let c = Campaign::new("unit", "v1");
        assert!(c.is_empty());
        let out = c.run(&RunnerOpts::serial().executor(), |_| 0u64);
        assert!(out.results.is_empty());
        assert_eq!(out.manifest.total_cells, 0);
    }

    #[test]
    #[should_panic(expected = "cell 'cell-3' panicked: boom")]
    fn cell_panics_surface_with_label() {
        let c = demo_campaign(6);
        let _ = c.run(&RunnerOpts::default().with_workers(3).executor(), |cell| {
            if cell.seed == 3 {
                panic!("boom");
            }
            cell.seed
        });
    }

    #[test]
    fn cell_events_land_in_manifest_telemetry() {
        let c = demo_campaign(8);
        let out = c.run(&RunnerOpts::default().with_workers(4).executor(), |cell| {
            simtrace::runtime::add_cell_events(100 + cell.seed);
            cell.seed
        });
        let expect: u64 = (0..8).map(|s| 100 + s).sum();
        assert_eq!(out.manifest.events_total, expect);
        for rec in &out.manifest.cells {
            assert_eq!(rec.events, 100 + rec.seed);
        }
        assert!(out.manifest.events_per_sec > 0.0);
        assert!(out.manifest.worker_busy_secs >= 0.0);
        assert!(out.manifest.utilization >= 0.0 && out.manifest.utilization <= 1.0);
    }

    #[test]
    fn record_policy_survives_a_panicking_cell() {
        let c = demo_campaign(8);
        let opts = RunnerOpts::default().with_workers(3).record_failures();
        let clean = c.run(&opts.clone().executor(), |cell| cell.seed * 10);
        assert!(clean.all_ok());
        assert!(!clean.manifest.results_digest.is_empty());

        let hurt = c.run(&opts.executor(), |cell| {
            if cell.seed == 3 {
                panic!("injected");
            }
            cell.seed * 10
        });
        assert!(!hurt.all_ok());
        assert_eq!(hurt.manifest.cells_failed, 1);
        assert_eq!(hurt.manifest.cell_retries, 0);
        assert_eq!(hurt.results[3], None);
        assert!(
            hurt.manifest.results_digest.is_empty(),
            "a failed cell must void the results digest"
        );
        let rec = &hurt.manifest.cells[3];
        assert_eq!(rec.status, CellStatus::Panicked);
        assert_eq!(rec.attempts, 1);
        assert!(rec.error.contains("injected"), "error: {}", rec.error);
        // Every other cell is byte-identical to the clean run.
        for i in (0..8).filter(|&i| i != 3) {
            assert_eq!(hurt.results[i], clean.results[i], "cell {i}");
            assert_eq!(hurt.manifest.cells[i].status, CellStatus::Ok);
        }
    }

    #[test]
    fn retry_recovers_a_flaky_cell() {
        use std::sync::atomic::AtomicU32;
        let c = demo_campaign(6);
        let tries = Arc::new(AtomicU32::new(0));
        let t = Arc::clone(&tries);
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_cell_retries(2)
                .executor(),
            move |cell| {
                if cell.seed == 2 && t.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                cell.seed
            },
        );
        assert!(out.all_ok());
        assert_eq!(out.results[2], Some(2));
        assert_eq!(out.manifest.cell_retries, 1);
        assert_eq!(out.manifest.cells[2].status, CellStatus::Retried);
        assert_eq!(out.manifest.cells[2].attempts, 2);
        assert_eq!(out.manifest.cells[1].status, CellStatus::Ok);
        assert_eq!(out.manifest.cells[1].attempts, 1);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let c = demo_campaign(4);
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_cell_retries(2)
                .record_failures()
                .executor(),
            |cell| {
                if cell.seed == 1 {
                    panic!("always");
                }
                cell.seed
            },
        );
        assert_eq!(out.manifest.cells_failed, 1);
        assert_eq!(out.manifest.cell_retries, 2);
        assert_eq!(out.manifest.cells[1].status, CellStatus::Panicked);
        assert_eq!(out.manifest.cells[1].attempts, 3, "1 run + 2 retries");
    }

    #[test]
    fn watchdog_abandons_a_hung_cell() {
        let c = demo_campaign(5);
        let started = Instant::now();
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_cell_timeout(Duration::from_millis(150))
                .record_failures()
                .executor(),
            |cell| {
                if cell.seed == 1 {
                    // A "hang" that outlives the watchdog by far but
                    // still lets the leaked thread die quickly.
                    std::thread::sleep(Duration::from_secs(4));
                }
                cell.seed
            },
        );
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "campaign must not wait out the hang"
        );
        assert_eq!(out.manifest.cells_failed, 1);
        assert_eq!(out.manifest.cell_timeouts, 1);
        assert_eq!(out.manifest.cells[1].status, CellStatus::TimedOut);
        assert!(out.manifest.cells[1].error.contains("wall-clock"));
        assert_eq!(out.results[1], None);
        for i in [0usize, 2, 3, 4] {
            assert_eq!(out.results[i], Some(i as u64), "cell {i}");
        }
    }

    #[test]
    fn stall_watchdog_spares_slow_but_advancing_cells() {
        let c = demo_campaign(4);
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_stall_timeout(Duration::from_millis(200))
                .record_failures()
                .executor(),
            |cell| {
                if cell.seed == 0 {
                    // Slower than the stall window end to end, but
                    // progressing the whole time: must survive.
                    for _ in 0..8 {
                        std::thread::sleep(Duration::from_millis(60));
                        simtrace::runtime::tick_progress();
                    }
                } else if cell.seed == 1 {
                    // Livelocked: wall clock advances, simulator doesn't.
                    std::thread::sleep(Duration::from_secs(4));
                }
                cell.seed
            },
        );
        assert_eq!(out.results[0], Some(0), "advancing cell must survive");
        assert_eq!(out.manifest.cells[0].status, CellStatus::Ok);
        assert_eq!(out.results[1], None);
        assert_eq!(out.manifest.cells[1].status, CellStatus::TimedOut);
        assert!(
            out.manifest.cells[1]
                .error
                .contains("no simulator progress"),
            "error: {}",
            out.manifest.cells[1].error
        );
    }

    #[test]
    fn failed_cells_miss_the_cache_so_resume_reruns_only_them() {
        let dir =
            std::env::temp_dir().join(format!("simrunner-resume-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = demo_campaign(6);
        let opts = RunnerOpts::default()
            .with_workers(2)
            .with_cache(&dir)
            .record_failures();
        let broken = c.run(&opts.clone().executor(), |cell| {
            if cell.seed == 4 {
                panic!("boom");
            }
            cell.seed as f64
        });
        assert_eq!(broken.manifest.cells_failed, 1);
        assert_eq!(broken.manifest.cache_hits, 0);
        // Resume: the bug is "fixed"; only the failed cell recomputes.
        let resumed = c.run(&opts.executor(), |cell| cell.seed as f64);
        assert!(resumed.all_ok());
        assert_eq!(resumed.manifest.cache_hits, 5);
        assert_eq!(resumed.manifest.cache_misses, 1);
        assert!(!resumed.manifest.cells[4].cached);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_cache_degrades_to_uncached_run() {
        // A file where the cache root should be: create_dir_all fails.
        let file =
            std::env::temp_dir().join(format!("simrunner-badroot-unit-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let c = demo_campaign(3);
        let out = c.run(&RunnerOpts::serial().with_cache(&file).executor(), |cell| {
            cell.seed
        });
        assert_eq!(out.manifest.cache_hits, 0);
        assert_eq!(out.expect_all(), vec![0, 1, 2]);
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn profiled_run_lands_spans_and_wall_percentiles_in_manifest() {
        let c = demo_campaign(8);
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_profile()
                .executor(),
            |cell| {
                let _g = simtrace::prof::span("cell/work");
                // Make the span worth at least a few microseconds.
                let mut acc = 0u64;
                for i in 0..20_000 {
                    acc = acc.wrapping_add(std::hint::black_box(i ^ cell.seed));
                }
                acc % 2
            },
        );
        let m = &out.manifest;
        assert!(!m.prof.is_empty(), "profiled run must record spans");
        assert!(
            m.prof.spans.iter().any(|s| s.path == "cell/work"),
            "spans: {:?}",
            m.prof.spans
        );
        let work = m.prof.spans.iter().find(|s| s.path == "cell/work").unwrap();
        assert_eq!(work.calls, 8, "one span entry per cell");
        assert!(m.wall_ms_p50 > 0.0);
        assert!(m.wall_ms_p99 >= m.wall_ms_p50);
        // An unprofiled run of the same campaign records nothing.
        let off = c.run(&RunnerOpts::default().with_workers(2).executor(), |cell| {
            cell.seed
        });
        assert!(off.manifest.prof.is_empty());
    }

    #[test]
    fn scope_annotations_flow_into_the_manifest_sorted() {
        let c = demo_campaign(4);
        let out = c.run(&RunnerOpts::default().with_workers(2).executor(), |cell| {
            simtrace::runtime::add_scope_annotation(simtrace::ScopeAnnotation {
                label: format!("scope/{}/queue_depth", cell.label),
                n: 10 + cell.seed,
                p50: 0.001,
                p90: 0.002,
                p99: 0.003,
                p999: 0.004,
            });
            cell.seed
        });
        assert_eq!(out.manifest.scope_annotations.len(), 4);
        let labels: Vec<&str> = out
            .manifest
            .scope_annotations
            .iter()
            .map(|a| a.label.as_str())
            .collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(
            labels, sorted,
            "scope annotations must be canonically ordered"
        );
        assert!(out
            .manifest
            .scope_annotations
            .iter()
            .any(|a| a.label == "scope/cell-2/queue_depth" && a.n == 12));
    }

    #[test]
    fn terminal_panic_dumps_the_flight_recorder() {
        let dir =
            std::env::temp_dir().join(format!("simrunner-flightrec-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = demo_campaign(5);
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_cell_retries(1)
                .with_flightrec_dir(&dir)
                .record_failures()
                .executor(),
            |cell| {
                simtrace::flightrec::record_with(|| {
                    simtrace::TraceRecord::metric(42, simtrace::kind::COUNTER, "unit.marker", 7)
                });
                if cell.seed == 3 {
                    panic!("terminal");
                }
                cell.seed
            },
        );
        assert!(!out.all_ok());
        let rec = &out.manifest.cells[3];
        assert_eq!(rec.status, CellStatus::Panicked);
        assert!(
            rec.flightrec.ends_with("cell-3.jsonl"),
            "dump path: {}",
            rec.flightrec
        );
        let dump = std::fs::read_to_string(&rec.flightrec).expect("dump exists");
        let parsed = simtrace::query::parse_jsonl(&dump).expect("dump parses");
        // Seeded dispatch record (attempt 2 after one retry) plus the
        // cell's own marker.
        assert!(parsed
            .iter()
            .any(|r| r.name.as_deref() == Some("runner.dispatch") && r.value == Some(2.0)));
        assert!(parsed
            .iter()
            .any(|r| r.name.as_deref() == Some("unit.marker")));
        // Successful cells leave no dump.
        for i in (0..5).filter(|&i| i != 3) {
            assert!(out.manifest.cells[i].flightrec.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timed_out_cell_dumps_the_flight_recorder_from_outside() {
        let dir = std::env::temp_dir().join(format!(
            "simrunner-flightrec-hang-unit-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let c = demo_campaign(3);
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_cell_timeout(Duration::from_millis(150))
                .with_flightrec_dir(&dir)
                .record_failures()
                .executor(),
            |cell| {
                if cell.seed == 1 {
                    std::thread::sleep(Duration::from_secs(4));
                }
                cell.seed
            },
        );
        let rec = &out.manifest.cells[1];
        assert_eq!(rec.status, CellStatus::TimedOut);
        assert!(!rec.flightrec.is_empty(), "hung cell must leave a dump");
        let dump = std::fs::read_to_string(&rec.flightrec).expect("dump exists");
        assert!(
            simtrace::query::parse_jsonl(&dump).is_ok_and(|r| !r.is_empty()),
            "dump must parse non-empty"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- shard supervision ----

    #[test]
    fn lease_clock_expires_only_frozen_epochs() {
        let t0 = Instant::now();
        let lease = Duration::from_millis(100);
        let mut clock = LeaseClock::new(Some(lease), t0);
        // No heartbeat yet: the window runs from construction...
        assert!(!clock.observe(None, t0 + Duration::from_millis(90)));
        // ...and the first observation counts as an advance (slow start).
        assert!(!clock.observe(Some(0), t0 + Duration::from_millis(150)));
        // Advancing epochs keep resetting the window indefinitely, even
        // with every gap longer than half the lease.
        for i in 1..10u64 {
            assert!(
                !clock.observe(Some(i), t0 + Duration::from_millis(150 + i * 90)),
                "epoch {i} was advancing"
            );
        }
        // Frozen epoch: expires once the lease elapses with no change.
        let frozen_at = t0 + Duration::from_millis(150 + 9 * 90);
        assert!(!clock.observe(Some(9), frozen_at + Duration::from_millis(90)));
        assert!(clock.observe(Some(9), frozen_at + Duration::from_millis(101)));

        // A shard that never writes a heartbeat at all expires too.
        let mut silent = LeaseClock::new(Some(lease), t0);
        assert!(silent.observe(None, t0 + Duration::from_millis(101)));

        // No lease configured: never expires, however stale.
        let mut off = LeaseClock::new(None, t0);
        assert!(!off.observe(None, t0 + Duration::from_secs(3600)));
    }

    #[test]
    fn shard_manifest_validation_rejects_imposters() {
        let dir =
            std::env::temp_dir().join(format!("simrunner-shardval-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = demo_campaign(6);
        let opts = RunnerOpts::serial()
            .with_cache(dir.join("cache"))
            .with_manifest_stem(dir.join("unit"));
        let m = run_shard(&c, &opts, ShardInfo { index: 0, total: 2 }, false, |cell| {
            cell.seed
        })
        .manifest;
        assert!(validate_shard_manifest(&m, &c, 0, 2).is_ok());
        // Wrong slot: a shard-0 manifest cannot stand in for shard 1.
        assert!(validate_shard_manifest(&m, &c, 1, 2).is_err_and(|e| e.contains("slot")));
        // Wrong campaign version.
        let mut stale = m.clone();
        stale.version = "other".to_string();
        assert!(validate_shard_manifest(&stale, &c, 0, 2)
            .is_err_and(|e| e.contains("belongs to campaign")));
        // Executed a cell it does not own.
        let mut greedy = m.clone();
        greedy.cells[1].status = CellStatus::Ok;
        assert!(
            validate_shard_manifest(&greedy, &c, 0, 2).is_err_and(|e| e.contains("does not own"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- shard ----

    #[test]
    fn shard_worker_computes_only_owned_cells() {
        let dir =
            std::env::temp_dir().join(format!("simrunner-shardworker-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = demo_campaign(7);
        let opts = RunnerOpts::serial()
            .with_cache(dir.join("cache"))
            .with_manifest_stem(dir.join("unit"))
            .with_executor(ExecSpec::Shard { index: 1, total: 3 });
        let out = c.run(&opts.executor(), |cell| cell.seed * 2);
        assert_eq!(out.manifest.executor, "shard 1/3");
        assert_eq!(out.manifest.shard, Some(ShardInfo { index: 1, total: 3 }));
        // Owns 1 and 4 (7 cells, stride 3).
        assert_eq!(out.manifest.cells_skipped, 5);
        assert_eq!(out.manifest.cache_misses, 2);
        for i in 0..7 {
            if i % 3 == 1 {
                assert_eq!(out.results[i], Some(i as u64 * 2), "cell {i}");
                assert_eq!(out.manifest.cells[i].status, CellStatus::Ok);
            } else {
                assert_eq!(out.results[i], None, "cell {i}");
                assert_eq!(out.manifest.cells[i].status, CellStatus::Skipped);
            }
        }
        let path = shard_manifest_path(&dir.join("unit"), 1, 3);
        let written = RunManifest::read(&path).expect("shard manifest written");
        assert_eq!(written.cells_skipped, 5);
        assert_eq!(written.fingerprint, written.compute_fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
