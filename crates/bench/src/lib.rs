//! # suss-bench — the benchmark harness
//!
//! One binary per table/figure of the paper (DESIGN.md §3 maps each id to
//! its experiment module), plus Criterion micro/macro benches.
//!
//! Every binary accepts `--quick` to run the scaled-down parameter set
//! (useful for smoke tests; the default is the full paper-scale run) and
//! `--csv` to emit machine-readable output after the human-readable
//! table. All experiments run as simrunner campaigns, so every binary
//! also accepts the parallel-execution flags (`--workers`, `--no-cache`,
//! `--cold`, `--no-progress`), the sharding flags (`--shards N` to
//! coordinate N shard child processes, `--shard K/N` to run one shard,
//! `--merge-shards N` to merge
//! already-written shard manifests, `--shard-lease-ms N` /
//! `--shard-restarts N` to tune the coordinator's heartbeat lease and
//! dead-shard restart budget), caches results under `results/cache/`,
//! and writes a run manifest to `results/<name>.manifest.json`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use netsim::{Agent, Ctx, EngineConfig, Packet, Sim, SimTime};
use simrunner::{ExecSpec, RunManifest, RunnerOpts};
use std::any::Any;
use std::path::PathBuf;
use std::time::Duration;

/// Synthetic scheduler workload for the event-queue microbench: one agent
/// keeps `pending` timers armed at all times, re-arming each as it fires
/// with a deterministic pseudo-random delay (1 µs – 300 ms, so the far tail
/// also exercises the wheel's overflow level). The event queue is the only
/// non-trivial work, which isolates per-event scheduler cost.
///
/// Returns the number of events dispatched (≥ `events`), so callers can
/// fold it into a benchmark result and keep the optimizer honest.
pub fn timer_churn(engine: EngineConfig, pending: u64, events: u64) -> u64 {
    struct Churn {
        pending: u64,
        lcg: u64,
    }
    impl Churn {
        fn next_delay(&mut self) -> Duration {
            // SplitMix64-style step; cheap and deterministic.
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Duration::from_nanos(1_000 + (self.lcg >> 16) % 300_000_000)
        }
    }
    impl Agent for Churn {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            let d = self.next_delay();
            ctx.set_timer(ctx.now() + d, token);
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for token in 0..self.pending {
                let d = self.next_delay();
                ctx.set_timer(ctx.now() + d, token);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let mut sim = Sim::with_engine(7, engine);
    sim.add_agent(Box::new(Churn {
        pending,
        lcg: 0x9E37_79B9_7F4A_7C15,
    }));
    sim.run_while(SimTime::from_secs(86_400), |s| {
        s.events_dispatched() < events
    });
    sim.events_dispatched()
}

/// The shared command line of every figure/table/ablation binary.
///
/// Construct with [`BenchCli::parse`], passing the binary's artifact name
/// once; the manifest and trace paths (`results/<name>.manifest.json`,
/// `results/<name>.trace.jsonl`) derive from it, so binaries never thread
/// their own name through each call.
#[derive(Debug, Clone, Default)]
pub struct BenchCli {
    /// Artifact name (manifest/trace file stem under `results/`).
    name: &'static str,
    /// Run the scaled-down parameter set.
    pub quick: bool,
    /// Also emit CSV.
    pub csv: bool,
    /// Worker threads for campaign execution (0 = all cores).
    pub workers: usize,
    /// Disable the result cache.
    pub no_cache: bool,
    /// Ignore existing cache entries (results are still stored back).
    pub cold: bool,
    /// Suppress the stderr progress stream.
    pub no_progress: bool,
    /// Structured JSONL trace output, from `--trace [path]` or
    /// `SUSS_TRACE=path`. An empty path means "trace to the default
    /// `results/<name>.trace.jsonl`" — resolve it with
    /// [`BenchCli::trace_path`].
    pub trace: Option<PathBuf>,
    /// Coordinate N shard child processes (`--shards N`).
    pub shards: Option<usize>,
    /// Run as one shard of a split campaign (`--shard K/N`).
    pub shard: Option<(usize, usize)>,
    /// Merge already-written shard manifests (`--merge-shards N`).
    pub merge_shards: Option<usize>,
    /// Coordinator heartbeat lease in milliseconds (`--shard-lease-ms N`;
    /// 0 disables lease monitoring).
    pub shard_lease_ms: Option<u64>,
    /// Per-shard restart budget for dead shard children
    /// (`--shard-restarts N`).
    pub shard_restarts: Option<u32>,
    /// The arguments a shard child should re-run with: this invocation's
    /// argv minus the shard-orchestration flags.
    child_args: Vec<String>,
}

impl BenchCli {
    /// Parse `std::env::args` for the binary publishing artifacts under
    /// `results/<name>.*`.
    pub fn parse(name: &'static str) -> Self {
        let mut o = BenchCli {
            name,
            ..BenchCli::default()
        };
        let mut args = std::env::args().skip(1).peekable();
        // Keep every argument a shard child should inherit; the
        // orchestration flags themselves must not recurse into children.
        let keep = |o: &mut BenchCli, a: &str| o.child_args.push(a.to_string());
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => {
                    o.quick = true;
                    keep(&mut o, "--quick");
                }
                "--csv" => {
                    o.csv = true;
                    keep(&mut o, "--csv");
                }
                "--workers" => {
                    o.workers = match args.next().and_then(|v| v.parse().ok()) {
                        Some(w) => w,
                        None => {
                            eprintln!("--workers needs a number");
                            std::process::exit(2);
                        }
                    };
                    keep(&mut o, "--workers");
                    let w = o.workers.to_string();
                    keep(&mut o, &w);
                }
                "--no-cache" => {
                    o.no_cache = true;
                    keep(&mut o, "--no-cache");
                }
                "--cold" => {
                    o.cold = true;
                    keep(&mut o, "--cold");
                }
                "--no-progress" => o.no_progress = true,
                "--shards" => {
                    o.shards = match args.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => {
                            eprintln!("--shards needs a shard count >= 1");
                            std::process::exit(2);
                        }
                        n => n,
                    }
                }
                "--shard" => {
                    let spec = args.next().unwrap_or_default();
                    o.shard = match simrunner::parse_shard(&spec) {
                        Some(kn) => Some(kn),
                        None => {
                            eprintln!("--shard needs K/N with K < N, got {spec:?}");
                            std::process::exit(2);
                        }
                    }
                }
                "--merge-shards" => {
                    o.merge_shards = match args.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => {
                            eprintln!("--merge-shards needs a shard count >= 1");
                            std::process::exit(2);
                        }
                        n => n,
                    }
                }
                // Coordinator-side supervision knobs: children inherit
                // neither (the coordinator watches them, not vice versa).
                "--shard-lease-ms" => {
                    o.shard_lease_ms = match args.next().and_then(|v| v.parse().ok()) {
                        Some(ms) => Some(ms),
                        None => {
                            eprintln!("--shard-lease-ms needs milliseconds (0 disables)");
                            std::process::exit(2);
                        }
                    }
                }
                "--shard-restarts" => {
                    o.shard_restarts = match args.next().and_then(|v| v.parse().ok()) {
                        Some(n) => Some(n),
                        None => {
                            eprintln!("--shard-restarts needs a restart budget");
                            std::process::exit(2);
                        }
                    }
                }
                "--trace" => {
                    // Optional operand: `--trace out.jsonl` or bare
                    // `--trace` for the binary's default path.
                    let explicit = args
                        .peek()
                        .is_some_and(|p| !p.starts_with('-'))
                        .then(|| args.next().unwrap());
                    o.trace = Some(explicit.map(PathBuf::from).unwrap_or_default());
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: {name} [--quick] [--csv] [--workers N] [--no-cache] \
                         [--cold] [--no-progress] [--trace [PATH]] \
                         [--shards N] [--shard K/N] [--merge-shards N] \
                         [--shard-lease-ms N] [--shard-restarts N]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        // Shard children exchange results through the shared cache; a
        // cacheless split could never be merged back together.
        if (o.shards.is_some() || o.shard.is_some() || o.merge_shards.is_some()) && o.no_cache {
            eprintln!("sharded execution requires the result cache (drop --no-cache)");
            std::process::exit(2);
        }
        // Child shard processes write no terminal; their progress
        // streams would interleave illegibly.
        o.child_args.push("--no-progress".to_string());
        if o.trace.is_none() {
            if let Ok(p) = std::env::var("SUSS_TRACE") {
                if !p.is_empty() {
                    o.trace = Some(PathBuf::from(p));
                }
            }
        }
        o
    }

    /// The binary's artifact name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The resolved JSONL trace path, if tracing was requested; a bare
    /// `--trace` defaults to `results/<name>.trace.jsonl`.
    pub fn trace_path(&self) -> Option<PathBuf> {
        let p = self.trace.as_ref()?;
        if p.as_os_str().is_empty() {
            Some(PathBuf::from("results").join(format!("{}.trace.jsonl", self.name)))
        } else {
            Some(p.clone())
        }
    }

    /// Open the JSONL trace sink for this run (creating parent
    /// directories), or `None` when tracing is off. The chosen path is
    /// announced on stderr. Call [`simtrace::EventSink::flush`] — or let
    /// the process exit via the sink's buffered writer being dropped at
    /// end of `main` — after exporting.
    pub fn open_trace(&self) -> Option<simtrace::JsonlSink<std::io::BufWriter<std::fs::File>>> {
        let path = self.trace_path()?;
        if let Some(parent) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                return None;
            }
        }
        match std::fs::File::create(&path) {
            Ok(f) => {
                eprintln!("trace: {}", path.display());
                Some(simtrace::JsonlSink::new(std::io::BufWriter::new(f)))
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Campaign execution options for this invocation: requested worker
    /// count, the shared cache under `results/cache/`, progress on
    /// stderr (human output goes to stdout, so redirects stay clean),
    /// flight-recorder dumps under `results/flightrec/` for cells that
    /// terminally panic or time out, the engine selected by the
    /// `--shards`/`--shard`/`--merge-shards` flags, and `SUSS_*`
    /// environment overrides applied last (so a coordinator's
    /// `SUSS_SHARD=k/N` wins inside shard children;
    /// `SUSS_FLIGHTREC_DIR=` disables the recorder, `SUSS_PROF=1`
    /// enables per-cell span profiling). `--no-cache` still outranks
    /// `SUSS_CACHE_DIR`.
    pub fn runner(&self) -> RunnerOpts {
        self.runner_with_env(|k| std::env::var(k).ok())
    }

    /// [`runner`](Self::runner) with the environment read through `get`.
    fn runner_with_env(&self, get: impl Fn(&str) -> Option<String>) -> RunnerOpts {
        let mut r = RunnerOpts::default().with_workers(self.workers);
        if !self.no_cache {
            r.cache_dir = Some(PathBuf::from("results/cache"));
        }
        r.force_cold = self.cold;
        r.progress = !self.no_progress;
        r.flightrec_dir = Some(PathBuf::from("results/flightrec"));
        r.manifest_stem = Some(PathBuf::from("results").join(self.name));
        if let Some((index, total)) = self.shard {
            // A CLI-selected shard run exits after writing its shard
            // manifest — the figure-rendering tail of the binary must
            // not run on a partial result set.
            r.executor = ExecSpec::Shard { index, total };
            r.shard_exit = true;
        } else if let Some(shards) = self.shards {
            r.executor = ExecSpec::Coordinator {
                shards,
                argv: self.child_args.clone(),
            };
        } else if let Some(shards) = self.merge_shards {
            r.executor = ExecSpec::MergeShards { shards };
        }
        if let Some(ms) = self.shard_lease_ms {
            r.shard_lease = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(n) = self.shard_restarts {
            r.shard_restarts = n;
        }
        let (mut r, warnings) = r.apply_env(get);
        for w in warnings {
            eprintln!("warning: {w}");
        }
        // An explicit flag beats the ambient environment.
        if self.no_cache {
            r.cache_dir = None;
        }
        r
    }

    /// Write a campaign manifest to `results/<name>.manifest.json`.
    pub fn write_manifest(&self, m: &RunManifest) {
        let path = PathBuf::from("results").join(format!("{}.manifest.json", self.name));
        match m.write(&path) {
            Ok(()) => eprintln!("manifest: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    /// Export one simulation run's flows and counters into the trace
    /// sink under `run` label, then flush. `flows` pairs each flow id
    /// with its outcome; all outcomes must come from the same simulation
    /// (they share one counter snapshot — the first one's is exported).
    pub fn export_run(
        sink: &mut dyn simtrace::EventSink,
        run: Option<&str>,
        flows: &[(u64, &experiments::FlowOutcome)],
    ) {
        let mut t_end = 0u64;
        for (id, out) in flows {
            out.trace.export(*id, run, sink);
            if let Some(s) = out.trace.samples.last() {
                t_end = t_end.max(s.t.as_nanos());
            }
            if let Some((t, _)) = out.trace.events.last() {
                t_end = t_end.max(t.as_nanos());
            }
        }
        if let Some((_, first)) = flows.first() {
            simtrace::export_counters(&first.counters, t_end, run, sink);
        }
        if let Err(e) = sink.flush() {
            eprintln!("trace flush failed: {e}");
        }
    }

    /// Print a table, and its CSV form if requested.
    pub fn emit(&self, title: &str, table: &simstats::TextTable) {
        println!("== {title} ==");
        print!("{}", table.render());
        if self.csv {
            println!("--- csv ---");
            print!("{}", table.to_csv());
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cache_flag_outranks_the_cache_dir_env() {
        let env = |k: &str| (k == "SUSS_CACHE_DIR").then(|| "/tmp/elsewhere".to_string());
        let mut cli = BenchCli::default();
        assert_eq!(
            cli.runner_with_env(env).cache_dir,
            Some(PathBuf::from("/tmp/elsewhere")),
            "without --no-cache the env redirects the cache"
        );
        cli.no_cache = true;
        assert_eq!(cli.runner_with_env(env).cache_dir, None);
    }

    #[test]
    fn shard_lease_flag_zero_disables() {
        let no_env = |_: &str| None;
        let mut cli = BenchCli {
            shard_lease_ms: Some(2000),
            shard_restarts: Some(3),
            ..BenchCli::default()
        };
        let r = cli.runner_with_env(no_env);
        assert_eq!(r.shard_lease, Some(Duration::from_millis(2000)));
        assert_eq!(r.shard_restarts, 3);
        cli.shard_lease_ms = Some(0);
        assert_eq!(
            cli.runner_with_env(no_env).shard_lease,
            None,
            "0 must disable the lease"
        );
    }
}
