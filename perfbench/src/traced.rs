//! The traced run (`--trace 1`): per-layer numbers, measured apart from
//! the end-to-end runs.
//!
//! Each round makes two passes over the workload, each on a fresh store:
//!
//! * **untraced** — `run_experiment`, exactly as an end-to-end run, with
//!   job telemetry attached to count the runner's retries;
//! * **traced** — the same pipeline taken apart into the public calls
//!   `run_experiment` makes (`WorkloadSet::new`, `job_fingerprint`,
//!   `ResultStore::load`/`append`, `result_from_record`, `run_unit`,
//!   `render_sweep`/`report_text`, and the security experiment), each
//!   wrapped in a span. Its report is checked against the golden file
//!   like any other.
//!
//! Rounds repeat until `--seconds` have passed. Then a seeded sample of
//! the workload's jobs is simulated twice more: single-core jobs through
//! `Core::run` on a [`TimedBackend`] (the core/memory-system split), and
//! every sampled job through `Machine::run` with and without a
//! `gm_trace::SummarySink` attached. Every sampled result must equal the
//! untraced pass's result for that job bit for bit.

use crate::adapter::TimedBackend;
use crate::stats::{median, SplitMix};
use crate::{
    check_pass, check_repeat, counts_key, run_pass, setup, Args, Metrics, PassCheck, PassEnv,
    Tally, WORKERS,
};
use ghostminion::{Machine, MachineResult, MemorySystem, Scheme, SystemConfig};
use gm_bench::experiment::{Experiment, ExperimentKind, Sweep};
use gm_bench::report::{render_sweep, report_text, run_experiment, ExperimentOutput};
use gm_bench::runner::SweepResults;
use gm_bench::{run_unit, CacheStats, Telemetry};
use gm_results::{job_fingerprint, job_record, program_sha, record_wall_us, result_from_record};
use gm_sim::Core;
use gm_stats::Json;
use gm_trace::SummarySink;
use gm_workloads::{Scale, WorkloadSet, WorkloadUnit};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Single-core jobs in the traced sample.
const SINGLE_CORE_SAMPLE: usize = 40;
/// Multicore jobs in the traced sample (no core/memory split for them).
const MULTICORE_SAMPLE: usize = 12;

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Span totals of one traced pass, ns, plus the layers' work counts.
/// Worker-side spans sum over both workers; `main_ns` sums the spans on
/// the driving thread, which tile the pass except for unattributed time.
#[derive(Default)]
struct Layers {
    wall_ns: u64,
    main_ns: u64,
    build_ns: u64,
    builds: u64,
    image_bytes: u64,
    fp_phase_ns: u64,
    fp_ns: u64,
    fp_first_ns: u64,
    load_ns: u64,
    records_loaded: u64,
    quarantined: u64,
    append_ns: u64,
    appends: u64,
    hits: u64,
    lookups: u64,
    jobs_phase_ns: u64,
    busy_ns: u64,
    render_ns: u64,
    attacks_ns: u64,
    attack_runs: u64,
}

impl Layers {
    /// Books a span on the driving thread under one layer's total.
    fn main_span(&mut self, layer: fn(&mut Self) -> &mut u64, since: Instant) {
        let d = ns(since);
        *layer(self) += d;
        self.main_ns += d;
    }

    fn metrics(&self, m: &mut Metrics) {
        m.push("workloads.build_ms", ms(self.build_ns), "ms");
        m.push("workloads.builds", self.builds as f64, "count");
        m.push(
            "workloads.image_mib",
            self.image_bytes as f64 / 1048576.0,
            "MiB",
        );
        m.push("fingerprint.ms", ms(self.fp_ns), "ms");
        m.push("fingerprint.first_pass_ms", ms(self.fp_first_ns), "ms");
        m.push(
            "fingerprint.mib_per_s",
            ratio(
                self.image_bytes as f64 / 1048576.0,
                self.fp_first_ns as f64 / 1e9,
            ),
            "MiB/s",
        );
        m.push("store.load_ms", ms(self.load_ns), "ms");
        m.push("store.records_loaded", self.records_loaded as f64, "count");
        m.push("store.append_ms", ms(self.append_ns), "ms");
        m.push("store.appends", self.appends as f64, "count");
        m.push(
            "store.hit_ratio",
            ratio(self.hits as f64, self.lookups as f64),
            "ratio",
        );
        m.push("store.quarantined", self.quarantined as f64, "count");
        m.push("report.render_ms", ms(self.render_ns), "ms");
        m.push("attacks.ms", ms(self.attacks_ns), "ms");
        m.push("attacks.runs", self.attack_runs as f64, "count");
        m.push("runner.ms", ms(self.jobs_phase_ns), "ms");
        m.push(
            "runner.busy_ratio",
            ratio(
                self.busy_ns as f64,
                (WORKERS as u64 * self.jobs_phase_ns) as f64,
            ),
            "ratio",
        );
        m.push(
            "bench.unattributed_ms",
            ms(self.wall_ns.saturating_sub(self.main_ns)),
            "ms",
        );
    }
}

/// What one job of the traced job phase did.
#[derive(Default)]
struct JobOut {
    result: Option<MachineResult>,
    hit: bool,
    reconstruct_ns: u64,
    append_ns: u64,
    appended: bool,
    busy_ns: u64,
    error: Option<String>,
}

/// Data-segment bytes of every program in `set`: what the first
/// fingerprint pass hashes.
fn image_bytes(set: &WorkloadSet) -> u64 {
    set.units
        .iter()
        .flat_map(|u| &u.programs)
        .flat_map(|p| &p.data)
        .map(|seg| seg.bytes.len() as u64)
        .sum()
}

/// One sweep through its public building blocks, in the order
/// `Runner::run_sweep_shard` calls them.
fn traced_sweep(
    env: &PassEnv,
    exp: &Experiment,
    sweep: &Sweep,
    l: &mut Layers,
) -> Result<String, String> {
    let t = Instant::now();
    let set = sweep.workload_set(Scale::Test);
    l.main_span(|l| &mut l.build_ns, t);
    l.builds += 1;
    l.image_bytes += image_bytes(&set);

    let t = Instant::now();
    let loaded = env
        .store
        .load(exp.name)
        .map_err(|e| format!("{}: store load failed: {e}", exp.name))?;
    l.main_span(|l| &mut l.load_ns, t);
    l.records_loaded += loaded.records.len() as u64;
    l.quarantined += loaded.corrupt as u64;

    let jobs: Vec<(usize, usize)> = (0..set.units.len())
        .flat_map(|u| (0..sweep.schemes.len()).map(move |s| (u, s)))
        .collect();
    // The first pass hashes each unit's program images once, into the
    // memo `job_fingerprint` would fill on the unit's first job; the
    // per-job fingerprints then only hash the small descriptor.
    let t = Instant::now();
    let first_pass = env.runner.map(&set.units, |unit| {
        let t = Instant::now();
        unit.program_shas
            .get_or_init(|| unit.programs.iter().map(program_sha).collect());
        ns(t)
    });
    let fingerprints = env.runner.map(&jobs, |&(u, s)| {
        let t = Instant::now();
        let fp = job_fingerprint(
            &set.units[u],
            &sweep.schemes[s].scheme,
            Scale::Test,
            &sweep.config,
        );
        (fp, ns(t))
    });
    l.main_span(|l| &mut l.fp_phase_ns, t);
    l.fp_first_ns += first_pass.iter().sum::<u64>();
    l.fp_ns += first_pass.iter().sum::<u64>() + fingerprints.iter().map(|f| f.1).sum::<u64>();

    let t = Instant::now();
    let outcomes = env.runner.map(&(0..jobs.len()).collect::<Vec<_>>(), |&i| {
        let (u, s) = jobs[i];
        let (unit, col) = (&set.units[u], &sweep.schemes[s]);
        let fp = &fingerprints[i].0;
        let started = Instant::now();
        let mut o = JobOut::default();
        if let Some(record) = loaded.records.get(fp) {
            o.hit = true;
            let t = Instant::now();
            let rebuilt = result_from_record(record, unit.name, col.scheme.name())
                .and_then(|r| record_wall_us(record).map(|_| r));
            o.reconstruct_ns = ns(t);
            o.result = rebuilt.ok();
        }
        if o.result.is_none() {
            let t = Instant::now();
            let result = run_unit(col.scheme, unit, sweep.config);
            let record = job_record(
                unit.name,
                &col.label,
                &result,
                t.elapsed().as_micros() as u64,
                fp,
            );
            let t = Instant::now();
            if let Err(e) = env.store.append(exp.name, &record) {
                o.error = Some(format!("{}: store append failed: {e}", exp.name));
            }
            o.append_ns = ns(t);
            o.appended = true;
            o.result = Some(result);
        }
        o.busy_ns = ns(started);
        o
    });
    l.main_span(|l| &mut l.jobs_phase_ns, t);

    let t = Instant::now();
    let mut rows: Vec<Vec<MachineResult>> = (0..set.units.len()).map(|_| Vec::new()).collect();
    for ((u, _), o) in jobs.iter().zip(outcomes) {
        if let Some(e) = o.error {
            return Err(e);
        }
        l.lookups += 1;
        l.hits += u64::from(o.hit);
        l.load_ns += o.reconstruct_ns;
        l.append_ns += o.append_ns;
        l.appends += u64::from(o.appended);
        l.busy_ns += o.busy_ns;
        rows[*u].push(o.result.expect("every job produced a result"));
    }
    let (preamble, table, postamble) = render_sweep(sweep, &SweepResults { set, rows });
    let out = ExperimentOutput {
        preamble,
        table,
        postamble,
        results: Json::Array(Vec::new()),
        cache: CacheStats::default(),
        sim_wall_us: 0,
        sim_cycles: 0,
        slowest: None,
        failures: Vec::new(),
    };
    let text = report_text(exp.title, &out);
    l.main_span(|l| &mut l.render_ns, t);
    Ok(text)
}

/// The traced pass over every experiment of the workload; its reports
/// are checked against the golden file into `tally`.
fn traced_pass(env: &PassEnv, tally: &mut Tally) -> Result<Layers, String> {
    let mut l = Layers::default();
    let started = Instant::now();
    for exp in &env.experiments {
        let text = match &exp.kind {
            ExperimentKind::Sweep(sweep) => traced_sweep(env, exp, sweep, &mut l)?,
            other => {
                let t = Instant::now();
                let out = run_experiment(&env.runner, exp, Scale::Test, Some(&env.store), None)?;
                if matches!(other, ExperimentKind::Security) {
                    l.main_span(|l| &mut l.attacks_ns, t);
                    // Each table cell plus the string-recovery demo.
                    l.attack_runs += out.results.as_array().map_or(0, |a| a.len() as u64) + 1;
                } else {
                    l.main_span(|l| &mut l.render_ns, t);
                }
                let t = Instant::now();
                let text = report_text(exp.title, &out);
                l.main_span(|l| &mut l.render_ns, t);
                text
            }
        };
        tally.attempted += 1;
        if !env.golden.section_matches(exp.title, &text) {
            tally.fail(format!(
                "traced {}: report differs from the golden stdout",
                exp.name
            ));
        }
    }
    l.wall_ns = ns(started);
    Ok(l)
}

/// One job of the seeded sample and the untraced pass's result for it.
struct SampleJob {
    name: String,
    unit: WorkloadUnit,
    scheme: Scheme,
    cfg: SystemConfig,
    reference: MachineResult,
}

/// Picks the traced sample from the workload's sweep jobs: single-core
/// jobs when the workload has any, else multicore ones. `--seed` chooses
/// which jobs and their order.
fn pick_sample(args: &Args, reference: &PassCheck) -> Result<Vec<SampleJob>, String> {
    let mut all = Vec::new();
    for exp in args.workload.experiments() {
        let ExperimentKind::Sweep(sweep) = &exp.kind else {
            continue;
        };
        let set = sweep.workload_set(Scale::Test);
        for unit in &set.units {
            for col in &sweep.schemes {
                all.push((exp.name, unit.clone(), col.clone(), sweep.config));
            }
        }
    }
    let single: Vec<_> = all.iter().filter(|j| j.1.threads() == 1).cloned().collect();
    let (pool, k) = if single.is_empty() {
        (all, MULTICORE_SAMPLE)
    } else {
        (single, SINGLE_CORE_SAMPLE)
    };
    let mut rng = SplitMix::new(args.seed);
    rng.sample(pool, k)
        .into_iter()
        .map(|(exp, unit, col, cfg)| {
            let key = (exp.to_owned(), unit.name.to_owned(), col.label.clone());
            let record = reference.records.get(&key).ok_or_else(|| {
                format!("no untraced result for {exp} {}/{}", unit.name, col.label)
            })?;
            let reference = result_from_record(record, unit.name, col.scheme.name())?;
            Ok(SampleJob {
                name: format!("{exp} {}/{}", unit.name, col.label),
                unit,
                scheme: col.scheme,
                cfg,
                reference,
            })
        })
        .collect()
}

fn same(a: &MachineResult, b: &MachineResult) -> bool {
    a.cycles == b.cycles && a.core_stats == b.core_stats && a.mem_stats == b.mem_stats
}

/// A single-core job driven through `Core::run` on a timed backend, as
/// `Machine::new` + `Machine::run` would build and run it.
struct Split {
    identical: bool,
    committed: u64,
    run_ns: u64,
    mem_ns: u64,
    calls: u64,
}

fn split_run(job: &SampleJob) -> Split {
    let mut core_cfg = job.cfg.core;
    core_cfg.taint_mode = job.scheme.taint_mode();
    core_cfg.strict_fu_order = job.scheme.strict_fu_order;
    let mut mem = MemorySystem::new(job.scheme, job.cfg.hierarchy, 1);
    let mut core = Core::new(0, core_cfg, job.unit.programs[0].clone());
    let mut timed = TimedBackend::new(&mut mem);
    let t = Instant::now();
    let cycles = core.run(&mut timed, job.cfg.max_cycles);
    let run_ns = ns(t);
    let (calls, mem_ns) = timed.totals();
    let r = &job.reference;
    Split {
        identical: r.threads == 1
            && cycles == r.cycles
            && r.core_stats[0] == *core.stats()
            && r.mem_stats == *mem.stats(),
        committed: core.stats().committed,
        run_ns,
        mem_ns,
        calls,
    }
}

/// `Machine::run` on one job, with or without a `SummarySink`.
fn machine_run(job: &SampleJob, sink: bool) -> (u64, bool) {
    let mut m = Machine::new(job.scheme, job.cfg, job.unit.programs.clone());
    if sink {
        m.set_trace(Rc::new(RefCell::new(SummarySink::new())));
    }
    let t = Instant::now();
    let result = m.run(job.cfg.max_cycles);
    (ns(t), same(&result, &job.reference))
}

/// Job retries recorded in a telemetry stream.
fn count_retries(path: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|j| j.get("event").and_then(Json::as_str) == Some("job_retry"))
        .count() as u64)
}

pub fn run(args: &Args, scratch: &Path, warm: Option<&Path>) -> Result<(Tally, Metrics), String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut tally = Tally::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut reference: Option<PassCheck> = None;
    // Per untraced pass: [jobs, simulated, retries, failed].
    let mut runner_counts: Vec<[f64; 4]> = Vec::new();
    let mut pass = 0;
    while traced.is_empty() || started.elapsed() < budget {
        // Odd rounds run the traced pass first, so neither pass always
        // meets the warmer process.
        if traced.len() % 2 == 1 {
            let env = setup(args, scratch, pass, warm)?;
            traced.push(traced_pass(&env, &mut tally)?);
            pass += 1;
        }
        let env = setup(args, scratch, pass, warm)?;
        let telemetry_path = scratch.join(format!("telemetry-{pass}.jsonl"));
        let telemetry = Telemetry::create(&telemetry_path.to_string_lossy())?;
        let (wall, runs) = run_pass(&env, Some(&telemetry))?;
        telemetry.finish()?;
        untraced.push(wall.as_secs_f64());
        let mut counts = [0.0, 0.0, count_retries(&telemetry_path)? as f64, 0.0];
        for run in &runs {
            let out = &run.out;
            counts[0] += (out.cache.hits + out.cache.misses + out.failures.len()) as f64;
            counts[1] += out.cache.misses as f64;
            counts[3] += out.failures.len() as f64;
        }
        runner_counts.push(counts);
        let check = check_pass(args.workload.warm(), &env, &runs);
        tally.merge(&check.tally);
        reference.get_or_insert(check);
        drop(env);
        pass += 1;

        if untraced.len() > traced.len() {
            let env = setup(args, scratch, pass, warm)?;
            traced.push(traced_pass(&env, &mut tally)?);
            pass += 1;
        }
    }
    let reference = reference.expect("at least one round ran");
    if !args.injected() {
        check_repeat(args.workload, &counts_key(&reference), &mut tally)?;
    }

    let sample = pick_sample(args, &reference)?;
    let single_core = sample.iter().all(|j| j.unit.threads() == 1);
    let runner = args.runner();
    let splits = if single_core {
        runner.map(&sample, split_run)
    } else {
        Vec::new()
    };
    // Plain and sink runs alternate which goes first, so neither side
    // always meets a warmer cache.
    let indexed: Vec<(usize, &SampleJob)> = sample.iter().enumerate().collect();
    let sink_runs = runner.map(&indexed, |&(i, job)| {
        if i % 2 == 0 {
            let plain = machine_run(job, false);
            (plain, machine_run(job, true))
        } else {
            let sink = machine_run(job, true);
            (machine_run(job, false), sink)
        }
    });
    for (job, ((_, plain_ok), (_, sink_ok))) in sample.iter().zip(&sink_runs) {
        tally.attempted += 1;
        if !plain_ok || !sink_ok {
            tally.fail(format!(
                "{}: Machine::run differs from the untraced result",
                job.name
            ));
        }
    }
    for (job, s) in sample.iter().zip(&splits) {
        tally.attempted += 1;
        if !s.identical {
            tally.fail(format!(
                "{}: traced Core::run differs from Machine::run",
                job.name
            ));
        }
    }

    let mut m = Metrics::default();
    // Span metrics: per-metric median over the traced passes.
    let per_pass: Vec<Metrics> = traced
        .iter()
        .map(|l| {
            let mut pm = Metrics::default();
            l.metrics(&mut pm);
            pm
        })
        .collect();
    for (i, first) in per_pass[0].0.iter().enumerate() {
        let values: Vec<f64> = per_pass.iter().map(|pm| pm.0[i].value).collect();
        m.push(first.name, median(&values), first.unit);
    }
    for (i, name) in [
        "runner.jobs",
        "runner.simulated",
        "runner.retries",
        "runner.failed",
    ]
    .into_iter()
    .enumerate()
    {
        let per_pass: Vec<f64> = runner_counts.iter().map(|c| c[i]).collect();
        m.push(name, median(&per_pass), "count");
    }

    let plain_ns: u64 = sink_runs.iter().map(|((p, _), _)| p).sum();
    let sink_ns: u64 = sink_runs.iter().map(|(_, (s, _))| s).sum();
    let sample_insts: u64 = sample.iter().map(|j| j.reference.committed()).sum();
    m.push("sim.run_ms", ms(plain_ns), "ms");
    m.push(
        "sim.ns_per_inst",
        ratio(plain_ns as f64, sample_insts as f64),
        "ns/inst",
    );
    let run_ns: u64 = splits.iter().map(|s| s.run_ns).sum();
    let mem_ns: u64 = splits.iter().map(|s| s.mem_ns).sum();
    let calls: u64 = splits.iter().map(|s| s.calls).sum();
    let split_insts: u64 = splits.iter().map(|s| s.committed).sum();
    m.push("core.self_ms", ms(run_ns.saturating_sub(mem_ns)), "ms");
    m.push("memsys.self_ms", ms(mem_ns), "ms");
    m.push("memsys.calls", calls as f64, "count");
    m.push(
        "memsys.calls_per_inst",
        ratio(calls as f64, split_insts as f64),
        "calls/inst",
    );
    m.push(
        "memsys.ns_per_call",
        ratio(mem_ns as f64, calls as f64),
        "ns",
    );
    reference.counts.metrics(&mut m);
    m.push(
        "bench.trace_overhead_ratio",
        ratio(
            median(
                &traced
                    .iter()
                    .map(|l| l.wall_ns as f64 / 1e9)
                    .collect::<Vec<_>>(),
            ),
            median(&untraced),
        ),
        "ratio",
    );
    m.push(
        "trace.sink_overhead_ratio",
        ratio(sink_ns as f64, plain_ns as f64),
        "ratio",
    );
    m.push(
        "trace.adapter_overhead_ratio",
        ratio(run_ns as f64, plain_ns as f64),
        "ratio",
    );
    m.push("trace.sample_jobs", sample.len() as f64, "count");
    println!(
        "perfbench: {} traced rounds; sample of {} {} job(s){}",
        traced.len(),
        sample.len(),
        if single_core {
            "single-core"
        } else {
            "multicore"
        },
        if single_core {
            ""
        } else {
            " (whole Machine::run spans only: core.self_ms and memsys.* host metrics read 0)"
        }
    );
    Ok((tally, m))
}
