//! Argument parsing and the `main` body of the `gm-run` driver: a
//! sweep over the registry (or the `--filter`ed part of it) plus the
//! `merge`, `store` and `trace` subcommands.
//!
//! Parsing is strict: unknown flags, unknown workload names, and
//! malformed values print usage and exit non-zero instead of being
//! silently ignored.
//!
//! Stream discipline: stdout carries only the report (tables, CSV,
//! postambles) so it is byte-comparable across runs; everything
//! operational — cache hit/miss summaries, per-experiment timing,
//! store compaction notes, "wrote file" confirmations — goes to stderr.

use crate::experiment::{self, apply_workload_filter, Experiment, ExperimentKind};
use crate::fault::FaultPlan;
use crate::merge;
use crate::report::{experiment_json, report_text, run_experiment};
use crate::runner::{Runner, Shard, Supervision};
use crate::telemetry::{self, Telemetry};
use gm_results::ResultStore;
use gm_stats::Json;
use gm_workloads::Scale;
use std::time::{Duration, Instant};

/// Process exit codes, shared by every `gm-run` entry point.
/// Centralised so the meanings cannot drift between subcommands.
pub mod exit {
    /// Full success.
    pub const OK: i32 = 0;
    /// Hard failure: unreadable input, I/O error, failed check.
    pub const FAILURE: i32 = 1;
    /// Usage error: unknown flag, malformed value, inconsistent
    /// combination.
    pub const USAGE: i32 = 2;
    /// Partial success: the sweep completed but some job(s) exhausted
    /// supervision (their grid cells are annotated in the report).
    pub const PARTIAL: i32 = 3;
}

/// Parsed `gm-run` sweep options.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    pub scale: Scale,
    /// Worker threads; 0 = available parallelism.
    pub jobs: usize,
    /// Write structured results to this path.
    pub json: Option<String>,
    /// Restrict sweeps to these workload names.
    pub workloads: Option<Vec<String>>,
    /// Result-store directory for cache-aware re-runs.
    pub store: Option<String>,
    /// With `store`: exit non-zero if any job was simulated (cache miss).
    pub expect_cached: bool,
    /// Run only this partition of the job list.
    pub shard: Option<Shard>,
    /// Append JSON-lines span telemetry to this path (see
    /// [`crate::telemetry`]).
    pub telemetry: Option<String>,
    /// Extra attempts per failed job (`--retries`); `None` keeps the
    /// [`Supervision`] default of one retry.
    pub retries: Option<u32>,
    /// Per-job wall-clock budget in seconds (`--budget`).
    pub budget: Option<u64>,
    /// Fail the whole run (exit 1) if any supervised job failed, instead
    /// of reporting partial success (exit 3).
    pub strict: bool,
    /// Deterministic fault injection (`--inject`, parsed eagerly so a
    /// typo fails before hours of simulation).
    pub inject: Option<FaultPlan>,
    /// With `--store`: fsync every appended record (crash durability).
    pub store_sync: bool,
    /// List registered experiments instead of running.
    pub list: bool,
    /// Substring filter selecting experiments to run.
    pub filter: Option<String>,
    pub help: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: Scale::Test,
            jobs: 0,
            json: None,
            workloads: None,
            store: None,
            expect_cached: false,
            shard: None,
            telemetry: None,
            retries: None,
            budget: None,
            strict: false,
            inject: None,
            store_sync: false,
            list: false,
            filter: None,
            help: false,
        }
    }
}

/// Usage text.
pub fn usage() -> String {
    "usage: gm-run [options]\n\
         \x20      gm-run merge <SHARD.json>... [--json <PATH>] [--jobs <N>]\n\
         \x20      gm-run store <DIR> [--compact] [--gc] [--verify] [--purge-quarantine]\n\
         \x20      gm-run trace <EXPERIMENT> [--workload <NAME>] [--scheme <LABEL>]\n\
         \x20                   [--scale <S>] [--out <FILE>] [--summary]\n\
         \n\
         options:\n\
         \x20 --scale <test|bench|full>  workload scale (default: test)\n\
         \x20 --full                     alias for --scale full\n\
         \x20 --bench                    alias for --scale bench\n\
         \x20 --jobs <N>                 worker threads (default: available parallelism)\n\
         \x20 --json <PATH>              write structured results to PATH\n\
         \x20 --workloads <a,b,...>      restrict sweeps to the named workloads\n\
         \x20 --store <DIR>              result store: reuse cached job results, append new ones\n\
         \x20 --expect-cached            with --store: fail if any job had to be simulated\n\
         \x20                            (misses caused by store damage warn instead)\n\
         \x20 --store-sync               with --store: fsync every appended record\n\
         \x20 --telemetry <FILE>         append JSON-lines run/experiment/job span events to FILE\n\
         \x20 --retries <N>              extra attempts per failed job (default: 1)\n\
         \x20 --budget <SECS>            per-job wall-clock budget; over-budget jobs fail\n\
         \x20 --strict                   exit 1 if any job failed (default: finish the sweep,\n\
         \x20                            annotate the report, exit 3)\n\
         \x20 --inject <SPEC>            deterministic fault injection, e.g.\n\
         \x20                            panic:mcf/GhostMinion@1 (tests and CI smokes)\n\
         \x20 --list                     list registered experiments and exit\n\
         \x20 --filter <SUBSTR>          run only experiments whose name contains SUBSTR\n\
         \x20                            (each experiment's full name selects just it)\n\
         \x20 --shard <K/N>              run the Kth of N job partitions (requires --json;\n\
         \x20                            recombine with gm-run merge)\n\
         \x20 --help                     show this help\n\
         \n\
         exit codes:\n\
         \x20 0  success\n\
         \x20 1  hard failure (unreadable input, I/O error, failed check)\n\
         \x20 2  usage error\n\
         \x20 3  partial success (sweep completed, some jobs failed supervision)\n"
        .to_owned()
}

/// Parses `args` (without the program name). Returns a human-readable
/// error for unknown flags, missing values, malformed values, and
/// inconsistent combinations.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = value("--scale", &mut it)?;
                opts.scale = Scale::from_name(&v)
                    .ok_or_else(|| format!("invalid --scale {v:?} (expected test|bench|full)"))?;
            }
            "--full" => opts.scale = Scale::Full,
            "--bench" => opts.scale = Scale::Bench,
            "--jobs" => {
                let v = value("--jobs", &mut it)?;
                opts.jobs =
                    v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("invalid --jobs {v:?} (expected a positive integer)")
                    })?;
            }
            "--json" => opts.json = Some(value("--json", &mut it)?),
            "--workloads" => {
                let v = value("--workloads", &mut it)?;
                let names: Vec<String> = v.split(',').map(str::to_owned).collect();
                if names.iter().any(String::is_empty) {
                    return Err(format!(
                        "invalid --workloads {v:?} (expected a comma-separated name list)"
                    ));
                }
                opts.workloads = Some(names);
            }
            "--store" => opts.store = Some(value("--store", &mut it)?),
            "--expect-cached" => opts.expect_cached = true,
            "--store-sync" => opts.store_sync = true,
            "--telemetry" => opts.telemetry = Some(value("--telemetry", &mut it)?),
            "--retries" => {
                let v = value("--retries", &mut it)?;
                opts.retries = Some(v.parse::<u32>().map_err(|_| {
                    format!("invalid --retries {v:?} (expected a non-negative integer)")
                })?);
            }
            "--budget" => {
                let v = value("--budget", &mut it)?;
                opts.budget = Some(v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("invalid --budget {v:?} (expected seconds, a positive integer)")
                })?);
            }
            "--strict" => opts.strict = true,
            "--inject" => opts.inject = Some(FaultPlan::parse(&value("--inject", &mut it)?)?),
            "--shard" => {
                opts.shard = Some(Shard::parse(&value("--shard", &mut it)?)?);
            }
            "--list" => opts.list = true,
            "--filter" => opts.filter = Some(value("--filter", &mut it)?),
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.expect_cached && opts.store.is_none() {
        return Err("--expect-cached requires --store".into());
    }
    if opts.store_sync && opts.store.is_none() {
        return Err("--store-sync requires --store".into());
    }
    if opts.shard.is_some() && opts.json.is_none() && !opts.list && !opts.help {
        return Err("--shard requires --json (the shard document is the run's output)".into());
    }
    // The telemetry stream appending over the results document would
    // corrupt both outputs.
    if opts.telemetry.is_some() && opts.telemetry == opts.json {
        return Err(format!(
            "--telemetry and --json name the same file ({}); the telemetry \
             stream would clobber the results document",
            opts.telemetry.as_deref().unwrap_or("")
        ));
    }
    Ok(opts)
}

fn parse_or_exit(program: &str, args: &[String]) -> Options {
    match parse(args) {
        Ok(opts) => {
            if opts.help {
                print!("{}", usage());
                std::process::exit(exit::OK);
            }
            opts
        }
        Err(e) => {
            eprint!("{program}: {e}\n\n{}", usage());
            std::process::exit(exit::USAGE);
        }
    }
}

fn fail(program: &str, message: &str) -> ! {
    eprintln!("{program}: {message}");
    std::process::exit(exit::FAILURE);
}

/// Opens the store named by `--store`, if any, applying `--store-sync`.
fn open_store(program: &str, opts: &Options) -> Option<ResultStore> {
    opts.store.as_ref().map(|dir| {
        let mut store = ResultStore::open(dir)
            .unwrap_or_else(|e| fail(program, &format!("cannot open store {dir:?}: {e}")));
        store.set_sync(opts.store_sync);
        store
    })
}

/// Builds the job runner from `--jobs` plus the supervision flags.
fn build_runner(opts: &Options) -> Runner {
    let defaults = Supervision::default();
    let mut runner = Runner::new(opts.jobs).with_supervision(Supervision {
        attempts: opts
            .retries
            .map_or(defaults.attempts, |r| r.saturating_add(1)),
        budget: opts.budget.map(Duration::from_secs),
        strict: opts.strict,
    });
    if let Some(plan) = &opts.inject {
        runner = runner.with_faults(plan.clone());
    }
    runner
}

/// Partial-success exit: the sweep finished, every completed job landed
/// in the store/report, but `failed` jobs exhausted supervision. Exit 3
/// distinguishes this from full success (0) and hard failure (1).
fn exit_partial(program: &str, failed: usize) {
    if failed > 0 {
        eprintln!(
            "{program}: partial success: {failed} job(s) failed permanently \
             (see the '!! job failed' report lines); exiting 3"
        );
        std::process::exit(exit::PARTIAL);
    }
}

/// Writes the combined JSON document if `--json` was given.
fn write_json(program: &str, opts_json: Option<&String>, doc: &Json) {
    if let Some(path) = opts_json {
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            fail(program, &format!("cannot write {path:?}: {e}"));
        }
        eprintln!("wrote {path}");
    }
}

/// Compacts one experiment's store file, reporting to stderr only when
/// something was actually dropped. Shared by post-run compaction and
/// `gm-run store --compact` so the report/warning policy cannot drift.
fn compact_one(program: &str, store: &ResultStore, experiment: &str) {
    match store.compact(experiment) {
        Ok(stats) if stats.superseded > 0 || stats.corrupt > 0 => eprintln!(
            "{program}: store: compacted {experiment}: kept {}, dropped {} superseded and {} corrupt line(s)",
            stats.kept, stats.superseded, stats.corrupt
        ),
        Ok(_) => {}
        Err(e) => eprintln!("warning: store compaction for {experiment} failed: {e}"),
    }
}

/// Compacts the store files this run touched, reporting anything that
/// was actually rewritten.
fn compact_store(program: &str, store: &ResultStore, experiments: &[Experiment]) {
    for exp in experiments {
        if matches!(exp.kind, ExperimentKind::Sweep(_)) {
            compact_one(program, store, exp.name);
        }
    }
}

/// Enforces `--expect-cached` after a run.
fn enforce_expect_cached(program: &str, opts: &Options, misses: usize, corrupt: usize) {
    if !opts.expect_cached || misses == 0 {
        return;
    }
    if corrupt > 0 {
        // The misses are explained by store damage: the affected jobs
        // were re-simulated (and re-appended), which is the graceful
        // degradation `--expect-cached` should report, not abort on.
        eprintln!(
            "{program}: warning: --expect-cached: {misses} job(s) re-simulated because the \
             store was damaged ({corrupt} quarantined line(s)/read error(s)); continuing"
        );
        return;
    }
    fail(
        program,
        &format!("--expect-cached: {misses} job(s) had to be simulated (cache miss)"),
    );
}

fn seconds(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Simulated megacycles per wall-clock second — the engine-throughput
/// telemetry every sweep reports.
fn mcycles_per_s(sim_cycles: u64, sim_wall_us: u64) -> f64 {
    if sim_wall_us == 0 {
        0.0
    } else {
        sim_cycles as f64 / sim_wall_us as f64
    }
}

/// Opens the telemetry stream named by `--telemetry` (if any) and
/// emits its `run_start` event.
fn open_telemetry(program: &str, opts: &Options, shard: Option<Shard>) -> Option<Telemetry> {
    opts.telemetry.as_ref().map(|path| {
        let tel = Telemetry::create(path).unwrap_or_else(|e| fail(program, &e));
        tel.emit("run_start", |j| {
            j.set("program", program).set("scale", opts.scale.name());
            if let Some(shard) = shard {
                j.set("shard", shard.to_string());
            }
        });
        tel
    })
}

/// Emits `run_end`, flushes the telemetry stream, and confirms the
/// write on stderr (stdout stays byte-comparable).
fn close_telemetry(
    program: &str,
    opts: &Options,
    telemetry: Option<Telemetry>,
    experiments: usize,
) {
    let Some(tel) = telemetry else { return };
    tel.emit("run_end", |j| {
        j.set("experiments", experiments);
    });
    if let Err(e) = tel.finish() {
        fail(program, &e);
    }
    eprintln!(
        "{program}: wrote telemetry to {}",
        opts.telemetry.as_deref().unwrap_or("")
    );
}

/// Prints the per-stage run/skip/wall-time counters accumulated during
/// one sweep experiment to stderr (stdout stays byte-comparable).
#[cfg(feature = "stage-prof")]
fn stage_profile_report(program: &str, exp_name: &str) {
    let mut table = gm_stats::Table::new(vec![
        "stage".into(),
        "runs".into(),
        "skips".into(),
        "skip%".into(),
        "wall_ms".into(),
    ]);
    let (mut runs, mut skips) = (0u64, 0u64);
    for c in &gm_sim::prof::snapshot() {
        let gated = c.runs + c.skips;
        let skip_pct = if gated > 0 {
            c.skips as f64 / gated as f64 * 100.0
        } else {
            0.0
        };
        table.row(vec![
            c.stage.name().to_owned(),
            c.runs.to_string(),
            c.skips.to_string(),
            format!("{skip_pct:.1}"),
            format!("{:.2}", c.nanos as f64 / 1e6),
        ]);
        runs += c.runs;
        skips += c.skips;
    }
    eprintln!("{program}: stage profile for {exp_name}:");
    eprint!("{}", table.render());
    // One greppable summary line per experiment (the CI smoke step
    // asserts the gating fires, i.e. skips > 0).
    eprintln!("{program}: stage profile {exp_name}: {runs} runs, {skips} skips");
}

/// Runs `experiments` unsharded, printing each report and writing the
/// combined JSON if requested. In a `stage-prof` build, each sweep
/// experiment is followed by its per-stage profile on stderr.
fn run_and_emit(program: &str, experiments: &[Experiment], opts: &Options) {
    let store = open_store(program, opts);
    let telemetry = open_telemetry(program, opts, None);
    let runner = build_runner(opts);
    let mut emitted = Vec::new();
    let mut misses = 0usize;
    let mut corrupt = 0usize;
    let mut failed = 0usize;
    for exp in experiments {
        #[cfg(feature = "stage-prof")]
        gm_sim::prof::reset();
        let started = Instant::now();
        let out = run_experiment(&runner, exp, opts.scale, store.as_ref(), telemetry.as_ref())
            .unwrap_or_else(|e| fail(program, &format!("{}: {e}", exp.name)));
        let wall = started.elapsed();
        print!("{}", report_text(exp.title, &out));
        if matches!(exp.kind, ExperimentKind::Sweep(_)) {
            let mut line = format!(
                "{program}: {}: {} job(s), {} cached, {} simulated in {:.2}s",
                exp.name,
                out.cache.hits + out.cache.misses,
                out.cache.hits,
                out.cache.misses,
                seconds(out.sim_wall_us),
            );
            if out.cache.misses > 0 {
                line.push_str(&format!(
                    " at {:.1} Mcycles/s",
                    mcycles_per_s(out.sim_cycles, out.sim_wall_us)
                ));
            }
            if let Some((label, us)) = &out.slowest {
                line.push_str(&format!(" (slowest {label} {:.2}s)", seconds(*us)));
            }
            if !out.failures.is_empty() {
                line.push_str(&format!(", {} FAILED", out.failures.len()));
            }
            // Host time of the whole experiment: workload build,
            // fingerprints and store reads included, which a warm run
            // spends while simulating nothing.
            line.push_str(&format!(", {:.2}s wall", wall.as_secs_f64()));
            eprintln!("{line}");
            #[cfg(feature = "stage-prof")]
            stage_profile_report(program, exp.name);
        }
        misses += out.cache.misses;
        corrupt += out.cache.corrupt;
        failed += out.failures.len();
        if opts.json.is_some() {
            emitted.push(experiment_json(exp, opts.scale, &out));
        }
    }
    let mut doc = Json::object();
    doc.set("generator", program)
        .set("scale", opts.scale.name())
        .set("experiments", Json::Array(emitted));
    write_json(program, opts.json.as_ref(), &doc);
    close_telemetry(program, opts, telemetry, experiments.len());
    if let Some(store) = &store {
        compact_store(program, store, experiments);
    }
    enforce_expect_cached(program, opts, misses, corrupt);
    exit_partial(program, failed);
}

/// Runs one shard of `experiments`: no stdout report (a shard cannot
/// render normalised tables), just the shard JSON document plus stderr
/// telemetry. Non-sweep experiments run on shard 1 only.
fn run_shard_and_emit(program: &str, experiments: &[Experiment], opts: &Options, shard: Shard) {
    let store = open_store(program, opts);
    let telemetry = open_telemetry(program, opts, Some(shard));
    let runner = build_runner(opts);
    let mut entries = Vec::new();
    let mut misses = 0usize;
    let mut corrupt = 0usize;
    let mut failed = 0usize;
    let mut ran = 0usize;
    for exp in experiments {
        match &exp.kind {
            ExperimentKind::Sweep(sweep) => {
                if let Some(tel) = &telemetry {
                    tel.emit("experiment_start", |j| {
                        j.set("experiment", exp.name);
                    });
                }
                let run = runner
                    .run_sweep_shard(
                        sweep,
                        opts.scale,
                        exp.name,
                        store.as_ref(),
                        shard,
                        telemetry.as_ref(),
                    )
                    .unwrap_or_else(|e| fail(program, &format!("{}: {e}", exp.name)));
                if let Some(tel) = &telemetry {
                    tel.emit("experiment_end", |j| {
                        j.set("experiment", exp.name)
                            .set("jobs", run.owned_jobs())
                            .set("hits", run.cache.hits)
                            .set("misses", run.cache.misses)
                            .set("sim_wall_us", run.sim_wall_us());
                        if !run.failures.is_empty() {
                            j.set("failed", run.failures.len() as u64);
                        }
                    });
                }
                ran += 1;
                let mut line = format!(
                    "{program}: shard {shard}: {}: {}/{} job(s), {} cached, {} simulated in {:.2}s at {:.1} Mcycles/s",
                    exp.name,
                    run.owned_jobs(),
                    run.total_jobs(),
                    run.cache.hits,
                    run.cache.misses,
                    seconds(run.sim_wall_us()),
                    mcycles_per_s(run.sim_cycles(), run.sim_wall_us()),
                );
                if !run.failures.is_empty() {
                    line.push_str(&format!(", {} FAILED", run.failures.len()));
                    for f in &run.failures {
                        eprintln!("{program}: shard {shard}: job failed: {f}");
                    }
                }
                eprintln!("{line}");
                misses += run.cache.misses;
                corrupt += run.cache.corrupt;
                failed += run.failures.len();
                entries.push(merge::shard_entry(exp, opts.scale, &run, sweep));
            }
            ExperimentKind::Security | ExperimentKind::Table1 => {
                if shard.index() != 1 {
                    eprintln!(
                        "{program}: shard {shard}: {}: non-sweep experiments run on shard 1, skipping",
                        exp.name
                    );
                    continue;
                }
                let out = run_experiment(&runner, exp, opts.scale, None, telemetry.as_ref())
                    .unwrap_or_else(|e| fail(program, &format!("{}: {e}", exp.name)));
                ran += 1;
                entries.push(merge::shard_nonsweep_entry(exp, opts.scale, &out));
            }
        }
    }
    let doc = merge::shard_doc(program, opts.scale, shard, entries);
    write_json(program, opts.json.as_ref(), &doc);
    close_telemetry(program, opts, telemetry, ran);
    if let Some(store) = &store {
        compact_store(program, store, experiments);
    }
    enforce_expect_cached(program, opts, misses, corrupt);
    exit_partial(program, failed);
}

/// Applies `--workloads`, then dispatches to the unsharded or sharded
/// run path.
fn run_selected(program: &str, mut experiments: Vec<Experiment>, opts: &Options) {
    if let Some(names) = &opts.workloads {
        if let Err(e) = apply_workload_filter(&mut experiments, names) {
            eprint!("{program}: {e}\n\n{}", usage());
            std::process::exit(exit::USAGE);
        }
        // A name can be valid for one suite and absent from another
        // (e.g. `mcf` exists in SPEC2006 but not Parsec). Skip sweeps
        // the filter emptied — loudly — rather than printing header-only
        // tables for them.
        experiments.retain(|e| {
            let emptied = matches!(&e.kind,
                ExperimentKind::Sweep(s) if s.workloads.as_deref() == Some(&[]));
            if emptied {
                eprintln!(
                    "{program}: {}: no selected workload is in this suite, skipping",
                    e.name
                );
            }
            !emptied
        });
        if experiments.is_empty() {
            fail(program, "--workloads left no experiment to run");
        }
    }
    match opts.shard {
        Some(shard) => run_shard_and_emit(program, &experiments, opts, shard),
        None => run_and_emit(program, &experiments, opts),
    }
}

/// `main` body of the `gm-run` driver: the `merge` subcommand, `--list`,
/// `--filter`, or the whole registry.
pub fn gm_run_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("merge") => {
            merge_main(&args[1..]);
            return;
        }
        Some("store") => {
            store_main(&args[1..]);
            return;
        }
        Some("trace") => {
            trace_main(&args[1..]);
            return;
        }
        // Anything positional that is not a known subcommand is a typo
        // (`gm-run benhc`): usage to stderr and exit 2, consistent with
        // the strict flag parsing below.
        Some(cmd) if !cmd.starts_with('-') => {
            eprint!("gm-run: unknown subcommand {cmd:?}\n\n{}", usage());
            std::process::exit(exit::USAGE);
        }
        _ => {}
    }
    let opts = parse_or_exit("gm-run", &args);
    let selected = match &opts.filter {
        Some(pattern) => experiment::matching(pattern),
        None => experiment::registry(),
    };
    if opts.list {
        // --list respects --filter, so a filter can be previewed
        // without running it.
        let mut t = gm_stats::Table::new(vec!["experiment".into(), "title".into()]);
        for e in &selected {
            t.row(vec![e.name.to_owned(), e.title.to_owned()]);
        }
        print!("{}", t.render());
        return;
    }
    if selected.is_empty() {
        eprintln!(
            "gm-run: no experiment matches {:?} (try --list)",
            opts.filter.as_deref().unwrap_or("")
        );
        std::process::exit(exit::FAILURE);
    }
    run_selected("gm-run", selected, &opts);
}

fn trace_usage() -> String {
    "usage: gm-run trace <EXPERIMENT> [--workload <NAME>] [--scheme <LABEL>]\n\
     \x20                  [--scale <test|bench|full>] [--out <FILE>] [--summary]\n\
     \x20      gm-run trace --validate <TRACE.txt>\n\
     \x20      gm-run trace --validate-telemetry <EVENTS.jsonl>\n\
     \n\
     Runs ONE (workload \u{d7} scheme) job of a sweep experiment with\n\
     per-instruction pipeline tracing attached. --out streams a gem5\n\
     O3PipeView-format text trace (loadable in the Konata viewer);\n\
     --summary prints a guest-cycle attribution table to stdout — per\n\
     functional-unit class, the cycles lost to FU waits, STT taint\n\
     parking, store-forward blocking, and squashed work. With neither\n\
     flag, --summary is the default; both may be combined (the run is\n\
     traced once and the stream teed).\n\
     \n\
     --workload defaults to the experiment's first workload unit and\n\
     --scheme (matched against the column label or scheme name) to its\n\
     first lineup column. Tracing never perturbs the simulation: a\n\
     traced run's cycle count and fingerprint are identical to an\n\
     untraced one (tested by tests/trace_neutrality.rs).\n\
     \n\
     --validate / --validate-telemetry parse a previously written trace\n\
     or telemetry stream with the strict in-repo checkers and exit\n\
     non-zero on any malformation — the CI smoke gate.\n"
        .to_owned()
}

/// `gm-run trace`: one traced (workload × scheme) job, or validation of
/// previously emitted trace/telemetry files.
fn trace_main(args: &[String]) {
    use gm_sim::TraceSink;
    use gm_trace::{validate_o3, O3PipeViewSink, SummarySink, Tee};
    use std::cell::RefCell;
    use std::rc::Rc;

    let program = "gm-run trace";
    let mut experiment_name: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut scheme_label: Option<String> = None;
    let mut scale = Scale::Test;
    let mut out: Option<String> = None;
    let mut summary = false;
    let mut validate_trace: Option<String> = None;
    let mut validate_telemetry: Option<String> = None;
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> String {
        it.next().cloned().unwrap_or_else(|| {
            eprint!("{program}: {flag} requires a value\n\n{}", trace_usage());
            std::process::exit(exit::USAGE);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload", &mut it)),
            "--scheme" => scheme_label = Some(value("--scheme", &mut it)),
            "--scale" => {
                let v = value("--scale", &mut it);
                scale = Scale::from_name(&v).unwrap_or_else(|| {
                    eprint!(
                        "{program}: invalid --scale {v:?} (expected test|bench|full)\n\n{}",
                        trace_usage()
                    );
                    std::process::exit(exit::USAGE);
                });
            }
            "--out" => out = Some(value("--out", &mut it)),
            "--summary" => summary = true,
            "--validate" => validate_trace = Some(value("--validate", &mut it)),
            "--validate-telemetry" => {
                validate_telemetry = Some(value("--validate-telemetry", &mut it));
            }
            "--help" | "-h" => {
                print!("{}", trace_usage());
                std::process::exit(exit::OK);
            }
            flag if flag.starts_with('-') => {
                eprint!("{program}: unknown argument {flag:?}\n\n{}", trace_usage());
                std::process::exit(exit::USAGE);
            }
            name if experiment_name.is_none() => experiment_name = Some(name.to_owned()),
            extra => {
                eprint!(
                    "{program}: unexpected argument {extra:?}\n\n{}",
                    trace_usage()
                );
                std::process::exit(exit::USAGE);
            }
        }
    }
    // Validation modes stand alone: they read files, they run nothing.
    if validate_trace.is_some() || validate_telemetry.is_some() {
        if experiment_name.is_some() || out.is_some() || summary {
            eprint!(
                "{program}: --validate modes take only a file argument\n\n{}",
                trace_usage()
            );
            std::process::exit(exit::USAGE);
        }
        if let Some(path) = &validate_trace {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(program, &format!("cannot read {path:?}: {e}")));
            let r = validate_o3(&text)
                .unwrap_or_else(|e| fail(program, &format!("{path}: invalid trace: {e}")));
            eprintln!(
                "{program}: {path}: valid O3PipeView trace: {} instruction(s), \
                 {} retired, {} squashed",
                r.instructions, r.retired, r.squashed
            );
        }
        if let Some(path) = &validate_telemetry {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(program, &format!("cannot read {path:?}: {e}")));
            let s = telemetry::validate(&text)
                .unwrap_or_else(|e| fail(program, &format!("{path}: invalid telemetry: {e}")));
            let mut line = format!(
                "{program}: {path}: valid telemetry stream: {} event(s), \
                 {} experiment(s), {} job(s)",
                s.events, s.experiments, s.jobs
            );
            if s.failed > 0 || s.retries > 0 {
                line.push_str(&format!(", {} failed, {} retried", s.failed, s.retries));
            }
            eprintln!("{line}");
        }
        return;
    }
    let Some(exp_name) = experiment_name else {
        eprint!("{program}: trace needs an experiment\n\n{}", trace_usage());
        std::process::exit(exit::USAGE);
    };
    let exp = experiment::find(&exp_name).unwrap_or_else(|| {
        fail(
            program,
            &format!("unknown experiment {exp_name:?} (try gm-run --list)"),
        )
    });
    let ExperimentKind::Sweep(sweep) = &exp.kind else {
        fail(program, &format!("{exp_name} is not a sweep experiment"));
    };
    let set = sweep.workload_set(scale);
    let unit = match &workload {
        Some(name) => set
            .units
            .iter()
            .find(|u| u.name == name)
            .unwrap_or_else(|| {
                let names: Vec<&str> = set.units.iter().map(|u| u.name).collect();
                fail(
                    program,
                    &format!("{exp_name} has no workload {name:?} (choose from {names:?})"),
                )
            }),
        None => &set.units[0],
    };
    let col = match &scheme_label {
        Some(label) => sweep
            .schemes
            .iter()
            .find(|c| &c.label == label || c.scheme.name() == label)
            .unwrap_or_else(|| {
                let labels: Vec<&str> = sweep.schemes.iter().map(|c| c.label.as_str()).collect();
                fail(
                    program,
                    &format!("{exp_name} has no scheme {label:?} (choose from {labels:?})"),
                )
            }),
        None => &sweep.schemes[0],
    };
    // With no --out, the summary is the only output worth running for.
    let summary = summary || out.is_none();
    let o3 = out.as_ref().map(|path| {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(program, &format!("cannot create {path:?}: {e}")));
        Rc::new(RefCell::new(O3PipeViewSink::new(std::io::BufWriter::new(
            file,
        ))))
    });
    let sum = summary.then(|| Rc::new(RefCell::new(SummarySink::new())));
    let mut fan: Vec<Rc<RefCell<dyn TraceSink>>> = Vec::new();
    if let Some(s) = &o3 {
        fan.push(s.clone() as Rc<RefCell<dyn TraceSink>>);
    }
    if let Some(s) = &sum {
        fan.push(s.clone() as Rc<RefCell<dyn TraceSink>>);
    }
    let sink: Rc<RefCell<dyn TraceSink>> = if fan.len() == 1 {
        fan.pop().expect("one sink")
    } else {
        Rc::new(RefCell::new(Tee::new(fan)))
    };
    let mut machine = ghostminion::Machine::new(col.scheme, sweep.config, unit.programs.clone());
    machine.set_trace(sink);
    let result = machine.run(sweep.config.max_cycles);
    let committed: u64 = result.core_stats.iter().map(|c| c.committed).sum();
    eprintln!(
        "{program}: {exp_name} {}/{} at {} scale: {} cycles, {} committed instruction(s)",
        unit.name,
        col.label,
        scale.name(),
        result.cycles,
        committed
    );
    if let Some(o3) = &o3 {
        if let Err(e) = o3.borrow_mut().finish() {
            fail(program, &format!("cannot write trace: {e}"));
        }
        eprintln!("{program}: wrote {}", out.as_deref().unwrap_or(""));
    }
    if let Some(sum) = &sum {
        print!("{}", sum.borrow().render(result.cycles));
    }
}

fn store_usage() -> String {
    "usage: gm-run store <DIR> [--compact] [--gc] [--verify] [--purge-quarantine]\n\
     \n\
     Inspects a result store: per-experiment record counts, the total\n\
     cached simulation wall-clock those records represent (the time a warm\n\
     re-run saves), and the quarantined evidence each experiment carries.\n\
     --compact rewrites every store file, dropping superseded and corrupt\n\
     lines. --gc additionally drops records whose fingerprint no current\n\
     registry experiment produces (at any scale) — stale cache entries\n\
     from old configs, schemes, or workloads — reporting the records and\n\
     bytes reclaimed; a fully-reclaimed file is removed. Neither pass\n\
     touches .quarantine sidecars: quarantined lines are evidence, kept\n\
     until --purge-quarantine deletes them (reporting the lines and bytes\n\
     reclaimed).\n\
     \n\
     --verify is a read-only deep-integrity pass: every line is re-parsed\n\
     with the strict checker, per-record checksums are recomputed, record\n\
     schemas are validated field by field, and each fingerprint is\n\
     cross-checked against the jobs the current registry can actually\n\
     produce (a record must also name the workload and scheme its\n\
     fingerprint belongs to). Findings go to stderr and the exit code is\n\
     1 if there were any; lines without a checksum (written before\n\
     checksums existed) are reported but are not findings.\n"
        .to_owned()
}

/// Every fingerprint `experiment` can currently produce, across all
/// scales, mapped to the (workload, scheme label) job producing it — the
/// live set a store garbage collection keeps, and the identity `--verify`
/// cross-checks records against. `None` when the name is not a
/// registered sweep experiment (its records are all stale by
/// definition).
fn registry_identities(
    experiment: &str,
) -> Option<std::collections::HashMap<String, (String, String)>> {
    let exp = experiment::find(experiment)?;
    let ExperimentKind::Sweep(sweep) = &exp.kind else {
        return None; // non-sweep experiments write no records
    };
    let mut map = std::collections::HashMap::new();
    for scale in [Scale::Test, Scale::Bench, Scale::Full] {
        let ws = sweep.workload_set(scale);
        for unit in &ws.units {
            for col in &sweep.schemes {
                map.insert(
                    gm_results::job_fingerprint(unit, &col.scheme, scale, &sweep.config),
                    (unit.name.to_owned(), col.label.clone()),
                );
            }
        }
    }
    Some(map)
}

/// The deep-integrity pass behind `gm-run store --verify`. Returns the
/// number of findings; reporting goes to stderr (there is no stdout
/// contract to protect here, but the policy is uniform).
fn verify_store(program: &str, store: &ResultStore, experiments: &[String]) -> usize {
    use gm_results::{parse_store_line, validate_record, StoreLine};
    let mut findings = 0usize;
    let (mut records, mut checksummed, mut legacy) = (0usize, 0usize, 0usize);
    for name in experiments {
        let path = store.path(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{program}: verify: {name}: cannot read {path:?}: {e}");
                findings += 1;
                continue;
            }
        };
        let identities = registry_identities(name);
        if identities.is_none() {
            eprintln!(
                "{program}: verify: {name}: not a registered sweep experiment \
                 (every record is stale; gm-run store --gc reclaims the file)"
            );
            findings += 1;
        }
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            let finding = |what: &str| {
                eprintln!("{program}: verify: {name} line {lineno}: {what}");
            };
            match parse_store_line(line) {
                StoreLine::Blank => {}
                StoreLine::Corrupt { reason } => {
                    finding(&reason);
                    findings += 1;
                }
                StoreLine::Record {
                    record,
                    fingerprint,
                    checksummed: has_sum,
                } => {
                    records += 1;
                    if has_sum {
                        checksummed += 1;
                    } else {
                        legacy += 1;
                    }
                    if let Err(e) = validate_record(&record) {
                        finding(&e);
                        findings += 1;
                    }
                    let Some(ids) = &identities else { continue };
                    match ids.get(&fingerprint) {
                        None => {
                            finding(&format!(
                                "fingerprint {}... matches no job the current registry \
                                 produces (stale record; --gc reclaims it)",
                                &fingerprint[..16.min(fingerprint.len())]
                            ));
                            findings += 1;
                        }
                        Some((workload, label)) => {
                            let rec_workload = record.get("workload").and_then(Json::as_str);
                            let rec_scheme = record.get("scheme").and_then(Json::as_str);
                            if rec_workload != Some(workload) || rec_scheme != Some(label) {
                                finding(&format!(
                                    "record names {}/{} but its fingerprint belongs to \
                                     {workload}/{label}",
                                    rec_workload.unwrap_or("?"),
                                    rec_scheme.unwrap_or("?")
                                ));
                                findings += 1;
                            }
                        }
                    }
                }
            }
        }
        let qpath = store.quarantine_path(name);
        if let Ok(qtext) = std::fs::read_to_string(&qpath) {
            let n = qtext.lines().filter(|l| !l.trim().is_empty()).count();
            if n > 0 {
                eprintln!(
                    "{program}: verify: {name}: {n} previously quarantined line(s) in {qpath:?}"
                );
            }
        }
    }
    eprintln!(
        "{program}: verify: {} file(s), {records} record(s) ({checksummed} checksummed, \
         {legacy} legacy), {findings} finding(s)",
        experiments.len()
    );
    findings
}

/// `gm-run store`: result-store maintenance.
fn store_main(args: &[String]) {
    let program = "gm-run store";
    let mut dir: Option<String> = None;
    let mut compact = false;
    let mut gc = false;
    let mut verify = false;
    let mut purge_quarantine = false;
    for arg in args {
        match arg.as_str() {
            "--compact" => compact = true,
            "--gc" => gc = true,
            "--verify" => verify = true,
            "--purge-quarantine" => purge_quarantine = true,
            "--help" | "-h" => {
                print!("{}", store_usage());
                std::process::exit(exit::OK);
            }
            flag if flag.starts_with('-') => {
                eprint!("{program}: unknown argument {flag:?}\n\n{}", store_usage());
                std::process::exit(exit::USAGE);
            }
            path if dir.is_none() => dir = Some(path.to_owned()),
            extra => {
                eprint!(
                    "{program}: unexpected argument {extra:?}\n\n{}",
                    store_usage()
                );
                std::process::exit(exit::USAGE);
            }
        }
    }
    let Some(dir) = dir else {
        eprint!("{program}: store needs a directory\n\n{}", store_usage());
        std::process::exit(exit::USAGE);
    };
    let store = ResultStore::open(&dir)
        .unwrap_or_else(|e| fail(program, &format!("cannot open store {dir:?}: {e}")));
    let experiments = store
        .experiments()
        .unwrap_or_else(|e| fail(program, &format!("cannot list store {dir:?}: {e}")));
    let mut table = gm_stats::Table::new(vec![
        "experiment".into(),
        "records".into(),
        "cached_wall_s".into(),
        "superseded".into(),
        "corrupt".into(),
        "quarantined".into(),
    ]);
    let (mut total_records, mut total_wall) = (0u64, 0u64);
    let (mut total_q_lines, mut total_q_bytes) = (0usize, 0u64);
    for name in &experiments {
        let shard = store
            .load(name)
            .unwrap_or_else(|e| fail(program, &format!("cannot load {name}: {e}")));
        let wall: u64 = shard
            .records
            .values()
            .filter_map(|r| gm_results::record_wall_us(r).ok())
            .sum();
        let quarantined = store.quarantine_stats(name).unwrap_or_default();
        total_records += shard.records.len() as u64;
        total_wall += wall;
        total_q_lines += quarantined.lines;
        total_q_bytes += quarantined.bytes;
        table.row(vec![
            name.clone(),
            shard.records.len().to_string(),
            format!("{:.2}", seconds(wall)),
            (shard.lines - shard.records.len()).to_string(),
            shard.corrupt.to_string(),
            quarantined.lines.to_string(),
        ]);
    }
    table.row(vec![
        "total".into(),
        total_records.to_string(),
        format!("{:.2}", seconds(total_wall)),
        String::new(),
        String::new(),
        total_q_lines.to_string(),
    ]);
    print!("{}", table.render());
    // Sidecars without a matching store file would otherwise be
    // invisible. They outlive what wrote them: older binaries left
    // `remote.quarantine` from the retired `--remote` client, and `--gc`
    // deletes a removed experiment's store file but keeps its sidecar.
    let orphan_sidecars: Vec<String> = {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .ok()
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter_map(|n| n.strip_suffix(".quarantine").map(str::to_owned))
            .filter(|stem| !experiments.contains(stem))
            .collect();
        names.sort();
        names
    };
    for stem in &orphan_sidecars {
        if let Ok(q) = store.quarantine_stats(stem) {
            total_q_lines += q.lines;
            total_q_bytes += q.bytes;
            eprintln!(
                "{program}: {}: {} quarantined line(s), {} byte(s) (no matching store file)",
                store.quarantine_path(stem).display(),
                q.lines,
                q.bytes
            );
        }
    }
    if total_q_lines > 0 {
        eprintln!(
            "{program}: {total_q_lines} quarantined line(s) in {total_q_bytes} byte(s) of \
             sidecar evidence (--purge-quarantine reclaims them)"
        );
    }
    if compact {
        for name in &experiments {
            compact_one(program, &store, name);
        }
    }
    if gc {
        let (mut total_dropped, mut total_bytes) = (0u64, 0u64);
        for name in &experiments {
            let live = registry_identities(name);
            let result = match &live {
                Some(map) => store.gc(name, &|fp| map.contains_key(fp)),
                // Unknown experiment: nothing in the registry produces
                // its records, so the whole file is stale.
                None => store.gc(name, &|_| false),
            };
            match result {
                Ok(stats) if stats.dropped > 0 || stats.superseded > 0 || stats.corrupt > 0 => {
                    total_dropped += stats.dropped as u64;
                    total_bytes += stats.reclaimed_bytes;
                    eprintln!(
                        "{program}: gc {name}: kept {}, dropped {} stale, {} superseded and \
                         {} corrupt line(s), reclaimed {} byte(s){}",
                        stats.kept,
                        stats.dropped,
                        stats.superseded,
                        stats.corrupt,
                        stats.reclaimed_bytes,
                        if stats.kept == 0 {
                            " (file removed)"
                        } else {
                            ""
                        },
                    );
                }
                Ok(_) => {}
                Err(e) => eprintln!("warning: store gc for {name} failed: {e}"),
            }
        }
        eprintln!("{program}: gc reclaimed {total_dropped} record(s), {total_bytes} byte(s)");
    }
    if purge_quarantine {
        let (mut purged_lines, mut purged_bytes, mut purged_files) = (0usize, 0u64, 0usize);
        let mut names = experiments.clone();
        names.extend(orphan_sidecars.iter().cloned());
        for name in &names {
            match store.purge_quarantine(name) {
                Ok(stats) if stats.lines > 0 || stats.bytes > 0 => {
                    purged_lines += stats.lines;
                    purged_bytes += stats.bytes;
                    purged_files += 1;
                    eprintln!(
                        "{program}: purged {}: {} quarantined line(s), {} byte(s)",
                        store.quarantine_path(name).display(),
                        stats.lines,
                        stats.bytes
                    );
                }
                Ok(_) => {}
                Err(e) => eprintln!("warning: cannot purge quarantine for {name}: {e}"),
            }
        }
        eprintln!(
            "{program}: purge-quarantine reclaimed {purged_lines} line(s), \
             {purged_bytes} byte(s) across {purged_files} sidecar(s)"
        );
    }
    if verify {
        // Verify runs after --compact/--gc so it checks what is left on
        // disk, not what those passes were about to rewrite.
        let findings = verify_store(program, &store, &experiments);
        if findings > 0 {
            fail(
                program,
                &format!("--verify found {findings} integrity finding(s)"),
            );
        }
    }
}

fn merge_usage() -> String {
    "usage: gm-run merge <SHARD.json>... [--json <PATH>] [--jobs <N>]\n\
     \n\
     Combines the JSON documents written by `gm-run --shard K/N --json ...`\n\
     into one report, bit-identical to the unsharded run that a shared\n\
     result store would produce: tables and CSV on stdout, the combined\n\
     document to --json. All N shards must be present exactly once.\n"
        .to_owned()
}

/// `gm-run merge`: recombine shard documents.
fn merge_main(args: &[String]) {
    let program = "gm-run";
    let mut files: Vec<String> = Vec::new();
    let mut json: Option<String> = None;
    let mut jobs = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(v) => json = Some(v.clone()),
                None => {
                    eprint!("{program}: --json requires a value\n\n{}", merge_usage());
                    std::process::exit(exit::USAGE);
                }
            },
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprint!(
                            "{program}: --jobs requires a positive integer\n\n{}",
                            merge_usage()
                        );
                        std::process::exit(exit::USAGE);
                    });
            }
            "--help" | "-h" => {
                print!("{}", merge_usage());
                std::process::exit(exit::OK);
            }
            flag if flag.starts_with('-') => {
                eprint!("{program}: unknown argument {flag:?}\n\n{}", merge_usage());
                std::process::exit(exit::USAGE);
            }
            file => files.push(file.to_owned()),
        }
    }
    if files.is_empty() {
        eprint!(
            "{program}: merge needs at least one shard document\n\n{}",
            merge_usage()
        );
        std::process::exit(exit::USAGE);
    }
    let docs: Vec<Json> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(program, &format!("cannot read {path:?}: {e}")));
            Json::parse(&text)
                .unwrap_or_else(|e| fail(program, &format!("cannot parse {path:?}: {e}")))
        })
        .collect();
    let merged = merge::merge_docs(&docs, &Runner::new(jobs))
        .unwrap_or_else(|e| fail(program, &format!("merge: {e}")));
    let mut emitted = Vec::new();
    for (exp, out) in &merged.outputs {
        print!("{}", report_text(exp.title, out));
        if json.is_some() {
            emitted.push(experiment_json(exp, merged.scale, out));
        }
    }
    let mut doc = Json::object();
    doc.set("generator", program)
        .set("scale", merged.scale.name())
        .set("experiments", Json::Array(emitted));
    write_json(program, json.as_ref(), &doc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentKind;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_standard_flags() {
        let o = parse(&args(&[
            "--scale", "bench", "--jobs", "4", "--json", "out.json",
        ]))
        .unwrap();
        assert_eq!(o.scale, Scale::Bench);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert!(!o.list && o.filter.is_none() && !o.help);
        assert!(o.workloads.is_none() && o.store.is_none());
        assert!(!o.expect_cached && o.shard.is_none());
        let o = parse(&args(&["--list", "--filter", "fig1"])).unwrap();
        assert!(o.list);
        assert_eq!(o.filter.as_deref(), Some("fig1"));
    }

    #[test]
    fn parses_the_store_and_shard_flags() {
        let o = parse(&args(&[
            "--store",
            ".gm-store",
            "--expect-cached",
            "--shard",
            "2/4",
            "--json",
            "s.json",
        ]))
        .unwrap();
        assert_eq!(o.store.as_deref(), Some(".gm-store"));
        assert!(o.expect_cached);
        assert_eq!(o.shard, Some(Shard::new(2, 4).unwrap()));
    }

    #[test]
    fn parses_workload_lists() {
        let o = parse(&args(&["--workloads", "mcf,lbm,povray"])).unwrap();
        assert_eq!(
            o.workloads.as_deref().unwrap(),
            ["mcf".to_owned(), "lbm".to_owned(), "povray".to_owned()]
        );
        assert!(parse(&args(&["--workloads", ""])).is_err());
        assert!(parse(&args(&["--workloads", "a,,b"])).is_err());
    }

    #[test]
    fn legacy_scale_aliases_still_work() {
        assert_eq!(parse(&args(&["--full"])).unwrap().scale, Scale::Full);
        assert_eq!(parse(&args(&["--bench"])).unwrap().scale, Scale::Bench);
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // `--remote` is a retired flag: a script still passing it must
        // fail loudly instead of silently running without it.
        for input in [
            &["--scal", "test"][..],
            &["--store", ".gm-store", "--remote", "127.0.0.1:4460"],
        ] {
            let e = parse(&args(input)).unwrap_err();
            assert!(e.contains("unknown argument"), "{e}");
        }
        // Positional junk is rejected too.
        assert!(parse(&args(&["fig6"])).is_err());
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(parse(&args(&["--scale", "huge"])).is_err());
        assert!(parse(&args(&["--jobs", "0"])).is_err());
        assert!(parse(&args(&["--jobs", "many"])).is_err());
        assert!(parse(&args(&["--jobs"])).is_err());
        assert!(parse(&args(&["--json"])).is_err());
        assert!(parse(&args(&["--store"])).is_err());
        assert!(parse(&args(&["--shard", "0/4", "--json", "s.json"])).is_err());
        assert!(parse(&args(&["--shard", "nope", "--json", "s.json"])).is_err());
    }

    #[test]
    fn inconsistent_combinations_are_rejected() {
        let e = parse(&args(&["--expect-cached"])).unwrap_err();
        assert!(e.contains("--store"), "{e}");
        let e = parse(&args(&["--shard", "1/2"])).unwrap_err();
        assert!(e.contains("--json"), "{e}");
        // --list and --help escape the --json requirement (nothing runs).
        assert!(parse(&args(&["--shard", "1/2", "--list"])).is_ok());
        assert!(parse(&args(&["--shard", "1/2", "--help"])).is_ok());
    }

    #[test]
    fn parses_the_supervision_flags() {
        let o = parse(&args(&[
            "--retries",
            "0",
            "--budget",
            "30",
            "--strict",
            "--inject",
            "panic:mcf/GhostMinion@1",
        ]))
        .unwrap();
        assert_eq!(o.retries, Some(0));
        assert_eq!(o.budget, Some(30));
        assert!(o.strict);
        assert_eq!(
            o.inject,
            Some(FaultPlan::none().panic_once("mcf", "GhostMinion"))
        );
        // Malformed values are rejected eagerly, before anything runs.
        assert!(parse(&args(&["--retries", "-1"])).is_err());
        assert!(parse(&args(&["--retries", "some"])).is_err());
        assert!(parse(&args(&["--budget", "0"])).is_err());
        assert!(parse(&args(&["--budget", "1.5"])).is_err());
        let e = parse(&args(&["--inject", "explode:a/b"])).unwrap_err();
        assert!(e.contains("--inject"), "{e}");
    }

    #[test]
    fn exit_codes_are_stable_and_documented() {
        // The table below is a public contract (CI scripts rely on
        // it); renumbering is a break.
        assert_eq!(exit::OK, 0);
        assert_eq!(exit::FAILURE, 1);
        assert_eq!(exit::USAGE, 2);
        assert_eq!(exit::PARTIAL, 3);
        let u = usage();
        assert!(u.contains("exit codes:"), "usage must print the table");
        for line in [
            "0  success",
            "1  hard failure",
            "2  usage error",
            "3  partial success",
        ] {
            assert!(u.contains(line), "{line:?} missing from usage");
        }
    }

    #[test]
    fn store_sync_requires_a_store() {
        let e = parse(&args(&["--store-sync"])).unwrap_err();
        assert!(e.contains("--store"), "{e}");
        let o = parse(&args(&["--store", ".gm-store", "--store-sync"])).unwrap();
        assert!(o.store_sync);
    }

    #[test]
    fn expect_cached_degrades_when_the_store_was_damaged() {
        let o = parse(&args(&["--store", ".gm-store", "--expect-cached"])).unwrap();
        // Misses explained by quarantined damage must not abort: the
        // jobs were re-simulated, which is the graceful degradation.
        // (The abort branch calls `exit` and is covered by CI smokes.)
        enforce_expect_cached("gm-test", &o, 2, 1);
        enforce_expect_cached("gm-test", &o, 0, 0);
    }

    #[test]
    fn telemetry_must_not_collide_with_the_json_output() {
        let o = parse(&args(&["--telemetry", "events.jsonl"])).unwrap();
        assert_eq!(o.telemetry.as_deref(), Some("events.jsonl"));
        assert!(parse(&args(&["--telemetry"])).is_err());
        // Same path for the span stream and the results document would
        // corrupt both.
        let e = parse(&args(&["--telemetry", "out.json", "--json", "out.json"])).unwrap_err();
        assert!(e.contains("same file"), "{e}");
        assert!(parse(&args(&["--telemetry", "t.jsonl", "--json", "out.json"])).is_ok());
    }

    #[test]
    fn usage_mentions_every_flag() {
        let u = usage();
        for flag in [
            "--scale",
            "--jobs",
            "--json",
            "--workloads",
            "--store",
            "--expect-cached",
            "--list",
            "--filter",
            "--shard",
            "--telemetry",
            "--retries",
            "--budget",
            "--strict",
            "--inject",
            "--store-sync",
            "merge",
            "store",
            "trace",
            "--gc",
            "--verify",
            "--purge-quarantine",
        ] {
            assert!(u.contains(flag), "{flag} missing from usage");
        }
    }

    #[test]
    fn trace_usage_mentions_the_trace_only_flags() {
        let u = trace_usage();
        for flag in [
            "--workload",
            "--scheme",
            "--scale",
            "--out",
            "--summary",
            "--validate",
            "--validate-telemetry",
            "Konata",
        ] {
            assert!(u.contains(flag), "{flag} missing from trace usage");
        }
    }

    #[test]
    fn only_table1_skips_simulation() {
        let skipped: Vec<&str> = experiment::registry()
            .iter()
            .filter(|e| matches!(e.kind, ExperimentKind::Table1))
            .map(|e| e.name)
            .collect();
        assert_eq!(skipped, ["table1"]);
    }
}
