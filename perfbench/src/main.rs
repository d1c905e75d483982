//! The repository benchmark: drives the simulator in-process through the
//! same public path `gm-run` takes (`report::run_experiment` with a
//! two-worker `Runner` and a `ResultStore`), checks every output against
//! the committed golden files, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <cold_spec06|cold_parsec|warm_full> --seed <n>
//!           --seconds <s> --trace <0|1> [--inject <fault plan>] [--attempts <n>]
//! ```
//!
//! Run it from the repository root (it reads `tests/golden/`). See
//! `perfbench/README.md` for the workloads, the metrics and which layer
//! moves which metric.

mod adapter;
mod golden;
mod stats;
mod traced;

use gm_bench::experiment::{find, registry, Experiment, ExperimentKind};
use gm_bench::report::{report_text, run_experiment, ExperimentOutput};
use gm_bench::{FaultPlan, Runner, Supervision, Telemetry};
use gm_results::ResultStore;
use gm_stats::Json;
use gm_workloads::Scale;
use golden::Golden;
use stats::{median, percentile};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Runner workers: the closed loop's client count (one per vCPU of the
/// reference host). Each worker pulls the next job when one finishes.
pub const WORKERS: usize = 2;

/// `setup_s` is the median over batches of set-ups of each batch's mean
/// (a set-up takes under a few milliseconds, too short to read steadily
/// alone). [`SETUP_BATCHES`] batches run before the first measured pass
/// and after each, so they sample the host's speed across the whole run.
const SETUP_BATCH_SPAN: Duration = Duration::from_millis(20);
/// Set-up batches per gap between passes.
const SETUP_BATCHES: usize = 5;

const USAGE: &str = "usage: perfbench --workload <cold_spec06|cold_parsec|warm_full> \
--seed <n> --seconds <s> --trace <0|1> [--inject <fault plan>] [--attempts <n>]";

/// The benchmark's workloads: fixed job lists taken from the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 (25 SPEC2006 kernels × 8 schemes) into a fresh store.
    ColdSpec06,
    /// Fig. 7 (7 four-thread Parsec units × 8 schemes) into a fresh store.
    ColdParsec,
    /// The whole registry replayed from a store holding every sweep job.
    WarmFull,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "cold_spec06" => Some(Self::ColdSpec06),
            "cold_parsec" => Some(Self::ColdParsec),
            "warm_full" => Some(Self::WarmFull),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ColdSpec06 => "cold_spec06",
            Self::ColdParsec => "cold_parsec",
            Self::WarmFull => "warm_full",
        }
    }

    pub fn experiments(self) -> Vec<Experiment> {
        match self {
            Self::ColdSpec06 => vec![find("fig6").expect("fig6 is registered")],
            Self::ColdParsec => vec![find("fig7").expect("fig7 is registered")],
            Self::WarmFull => registry(),
        }
    }

    pub fn warm(self) -> bool {
        self == Self::WarmFull
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    faults: Option<FaultPlan>,
    attempts: Option<u32>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut faults, mut attempts) = (None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(bad)?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--inject" => faults = Some(FaultPlan::parse(&value)?),
                "--attempts" => {
                    attempts = Some(
                        value
                            .parse::<u32>()
                            .ok()
                            .filter(|n| *n >= 1)
                            .ok_or_else(bad)?,
                    )
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let missing = |f: &str| format!("missing {f}");
        Ok(Self {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            faults,
            attempts,
        })
    }

    /// The runner every measured pass uses: two workers, default
    /// supervision unless `--attempts` overrides it, and the injected
    /// fault plan if any.
    pub fn runner(&self) -> Runner {
        let mut runner = Runner::new(WORKERS);
        if let Some(attempts) = self.attempts {
            runner = runner.with_supervision(Supervision {
                attempts,
                ..Supervision::default()
            });
        }
        if let Some(plan) = &self.faults {
            runner = runner.with_faults(plan.clone());
        }
        runner
    }

    pub fn injected(&self) -> bool {
        self.faults.is_some() || self.attempts.is_some()
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a metric list tersely: `m.push("wall_s", 1.2, "s")`.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// Correctness tally: units of work attempted and how many failed, with
/// a description of each failure for stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems.iter().cloned());
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

/// The benchmark's scratch directory inside the build tree next to its
/// own executable (`<target>/release/perfbench-state`), so it stays
/// inside the checkout and a rebuild starts from a clean warm store.
fn state_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perfbench-state");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A directory removed (with everything in it) when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Disarms the guard, keeping the directory.
    fn keep(mut self) -> PathBuf {
        std::mem::take(&mut self.0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !self.0.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", from.display()))?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("cannot copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Everything one pass needs, built by [`setup`].
pub struct PassEnv {
    pub golden: Golden,
    pub experiments: Vec<Experiment>,
    pub runner: Runner,
    pub store: ResultStore,
    /// Removes the pass's store directory once the pass is checked.
    dir: ScratchDir,
}

/// Set-up for one pass, the part `setup_s` times: read the expected
/// outputs, resolve the experiments, build the runner, and give the pass
/// a store of its own — empty for a cold workload, a copy of the filled
/// store for `warm_full`.
pub fn setup(
    args: &Args,
    scratch: &Path,
    pass: usize,
    warm: Option<&Path>,
) -> Result<PassEnv, String> {
    let golden = Golden::load(Path::new("tests/golden"))?;
    let dir = ScratchDir(scratch.join(format!("pass-{pass}")));
    let _ = std::fs::remove_dir_all(&dir.0);
    if let Some(filled) = warm {
        copy_dir(filled, &dir.0)?;
    }
    let store = ResultStore::open(&dir.0).map_err(|e| format!("cannot open store: {e}"))?;
    Ok(PassEnv {
        golden,
        experiments: args.workload.experiments(),
        runner: args.runner(),
        store,
        dir,
    })
}

/// One experiment of an untraced pass.
pub struct ExpRun {
    pub exp: Experiment,
    pub out: ExperimentOutput,
    pub text: String,
    pub wall: Duration,
}

/// The timed part: every experiment of the workload through
/// `run_experiment`, rendered as `gm-run` prints it.
pub fn run_pass(
    env: &PassEnv,
    telemetry: Option<&Telemetry>,
) -> Result<(Duration, Vec<ExpRun>), String> {
    let started = Instant::now();
    let mut runs = Vec::new();
    for exp in &env.experiments {
        let t = Instant::now();
        let out = run_experiment(&env.runner, exp, Scale::Test, Some(&env.store), telemetry)
            .map_err(|e| format!("{}: {e}", exp.name))?;
        let text = report_text(exp.title, &out);
        runs.push(ExpRun {
            exp: exp.clone(),
            out,
            text,
            wall: t.elapsed(),
        });
    }
    Ok((started.elapsed(), runs))
}

fn field(record: &Json, key: &str) -> u64 {
    record.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn text_field<'a>(record: &'a Json, key: &str) -> &'a str {
    record.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Simulated totals over a set of job records. These are pure functions
/// of the simulator's output, so two runs must agree on them exactly.
#[derive(Default, Clone, PartialEq, Debug)]
pub struct SimCounts {
    jobs: u64,
    cycles: u64,
    core_cycles: u64,
    committed: u64,
    fetched: u64,
    squashed: u64,
    mispredicts: u64,
    stt_delays: u64,
    strict_fu_delays: u64,
    load_retries: u64,
    gm_loads: u64,
    gm_minion_hits: u64,
    counters: [u64; 8],
}

/// Memory-system counters reported per layer, in `SimCounts::counters` order.
const MEM_COUNTERS: [(&str, &str); 8] = [
    ("memsys.l1d_hits", "l1d_hits"),
    ("memsys.l2_hits", "l2_hits"),
    ("memsys.dram_accesses", "dram_accesses"),
    ("memsys.mshr_retries", "mshr_retries"),
    ("memsys.timeguards", "timeguards"),
    ("memsys.leapfrogs", "leapfrogs"),
    ("memsys.lost_at_commit", "lost_at_commit"),
    ("memsys.coherence_replays", "coherence_replays"),
];

impl SimCounts {
    fn add(&mut self, record: &Json) {
        self.jobs += 1;
        self.cycles += field(record, "cycles");
        for core in record.get("cores").and_then(Json::as_array).unwrap_or(&[]) {
            self.core_cycles += field(core, "cycles");
            self.committed += field(core, "committed");
            self.fetched += field(core, "fetched");
            self.squashed += field(core, "squashed");
            self.mispredicts += field(core, "mispredicts");
            self.stt_delays += field(core, "stt_delays");
            self.strict_fu_delays += field(core, "strict_fu_delays");
            self.load_retries += field(core, "load_retries");
        }
        let counters = record.get("counters").cloned().unwrap_or_else(Json::object);
        for (slot, (_, name)) in self.counters.iter_mut().zip(MEM_COUNTERS) {
            *slot += field(&counters, name);
        }
        if text_field(record, "scheme_name") == "GhostMinion" {
            self.gm_loads += field(&counters, "loads");
            self.gm_minion_hits += field(&counters, "minion_hits");
        }
    }

    /// The per-layer simulated-count metrics.
    pub fn metrics(&self, m: &mut Metrics) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        m.push(
            "core.ipc",
            ratio(self.committed, self.core_cycles),
            "inst/cycle",
        );
        m.push(
            "core.squash_ratio",
            ratio(self.squashed, self.fetched),
            "ratio",
        );
        m.push("core.mispredicts", self.mispredicts as f64, "count");
        m.push("core.stt_delays", self.stt_delays as f64, "count");
        m.push(
            "core.strict_fu_delays",
            self.strict_fu_delays as f64,
            "count",
        );
        m.push("core.load_retries", self.load_retries as f64, "count");
        m.push(
            "memsys.minion_hit_ratio",
            ratio(self.gm_minion_hits, self.gm_loads),
            "ratio",
        );
        for (value, (name, _)) in self.counters.iter().zip(MEM_COUNTERS) {
            m.push(name, *value as f64, "count");
        }
    }
}

/// What checking one untraced pass found, plus the numbers the
/// end-to-end metrics are made of.
#[derive(Default)]
pub struct PassCheck {
    pub tally: Tally,
    /// Per-job host times, ms, keyed by job: simulated jobs on a cold
    /// workload, whole experiments on `warm_full` (where no job is
    /// simulated).
    pub job_ms: Vec<(String, f64)>,
    /// Σ committed instructions / cycles over the jobs the pass produced.
    pub insts: u64,
    pub cycles: u64,
    /// Σ host time of simulated jobs, µs.
    pub sim_wall_us: u64,
    pub counts: SimCounts,
    pub overhead_pct: f64,
    /// Sweep jobs reported, keyed by `(experiment, workload, label)`.
    pub records: HashMap<(String, String, String), Json>,
}

/// Checks one pass's outputs: each report against its golden section (a
/// whole-registry pass also against the whole file), each fingerprint
/// against the golden list, that every job is present, that a cold pass
/// wrote every result to its store, and that a warm pass simulated
/// nothing. `gm_overhead_pct` comes from the first experiment (fig6, or
/// fig7 on `cold_parsec`).
pub fn check_pass(warm: bool, env: &PassEnv, runs: &[ExpRun]) -> PassCheck {
    let mut c = PassCheck::default();
    let mut whole = String::new();
    let mut overhead: HashMap<String, [u64; 2]> = HashMap::new();
    for run in runs {
        let name = run.exp.name;
        whole.push_str(&run.text);
        if !env.golden.section_matches(run.exp.title, &run.text) {
            c.tally
                .fail(format!("{name}: report differs from the golden stdout"));
        }
        if warm {
            c.job_ms
                .push((name.to_owned(), run.wall.as_secs_f64() * 1e3));
        }
        let ExperimentKind::Sweep(_) = &run.exp.kind else {
            c.tally.attempted += 1;
            continue;
        };
        let out = &run.out;
        let records = out.results.as_array().unwrap_or(&[]);
        let expected = env.golden.jobs(name);
        c.tally.attempted += expected as u64;
        for f in &out.failures {
            c.tally.fail(format!("{name}: job failed: {f}"));
        }
        if records.len() + out.failures.len() != expected {
            c.tally.fail(format!(
                "{name}: {} results + {} failures for {expected} golden jobs",
                records.len(),
                out.failures.len()
            ));
        }
        if warm && (out.cache.misses > 0 || out.cache.corrupt > 0) {
            c.tally.fail(format!(
                "{name}: warm store missed {} job(s), {} corrupt",
                out.cache.misses, out.cache.corrupt
            ));
        }
        for r in records {
            let (wl, label) = (text_field(r, "workload"), text_field(r, "scheme"));
            if env.golden.fingerprint(name, wl, label) != Some(text_field(r, "fingerprint")) {
                c.tally
                    .fail(format!("{name}: fingerprint of {wl}/{label} differs"));
            }
            c.counts.add(r);
            c.insts += field(r, "committed");
            c.cycles += field(r, "cycles");
            if !warm {
                c.job_ms
                    .push((format!("{wl}/{label}"), field(r, "wall_us") as f64 / 1e3));
                c.sim_wall_us += field(r, "wall_us");
            }
            if name == runs[0].exp.name {
                let slot = overhead.entry(wl.to_owned()).or_default();
                match label {
                    "Unsafe" => slot[0] = field(r, "cycles"),
                    "GhostMinion" => slot[1] = field(r, "cycles"),
                    _ => {}
                }
            }
            c.records.insert(
                (name.to_owned(), wl.to_owned(), label.to_owned()),
                r.clone(),
            );
        }
        if !warm {
            let stored = env.store.load(name).map(|s| s.records.len()).unwrap_or(0);
            if stored != records.len() {
                c.tally.fail(format!(
                    "{name}: store holds {stored} of {} results",
                    records.len()
                ));
            }
        }
    }
    if runs.len() == registry().len() && !env.golden.whole_matches(&whole) {
        c.tally
            .fail("registry stdout differs from the golden file".into());
    }
    let ratios: Vec<f64> = overhead
        .values()
        .filter(|[base, gm]| *base > 0 && *gm > 0)
        .map(|[base, gm]| *gm as f64 / *base as f64)
        .collect();
    if !ratios.is_empty() {
        let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
        c.overhead_pct = (log_mean.exp() - 1.0) * 100.0;
    }
    c
}

/// Identifies the running build: the executable's size and mtime. State
/// kept under this key is dropped once another build runs in the same
/// target directory.
fn build_key() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(&exe).map_err(|e| e.to_string())?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    Ok(format!("{:x}-{mtime:x}", meta.len()))
}

/// Removes every entry of `state` whose name starts with `prefix` except
/// `keep`: another build's state.
fn drop_other_builds(state: &Path, prefix: &str, keep: &str) -> Result<(), String> {
    for entry in std::fs::read_dir(state)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(prefix) && name != keep {
            let path = entry.path();
            let _ = std::fs::remove_dir_all(&path).or_else(|_| std::fs::remove_file(&path));
        }
    }
    Ok(())
}

/// The private flag that makes the executable fill a warm store (see
/// [`warm_store`]) instead of measuring.
const FILL_FLAG: &str = "--fill-warm-store";

/// Returns the warm store of this build, filling it first if needed:
/// a cold pass of the whole registry with the code under test, checked
/// against the golden files, kept under `state/warm-<build key>` for
/// every later run to copy. The fill runs in a child process, so its
/// memory peak stays out of this process's `peak_rss_mib`.
fn warm_store(state: &Path) -> Result<PathBuf, String> {
    let name = format!("warm-{}", build_key()?);
    let dir = state.join(&name);
    if dir.join("COMPLETE").is_file() {
        return Ok(dir);
    }
    let started = Instant::now();
    let tmp = ScratchDir(state.join(format!("fill-{}", std::process::id())));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg(FILL_FLAG)
        .arg(&tmp.0)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the warm-store fill: {e}"))?;
    if !status.success() {
        return Err(format!("filling the warm store failed ({status})"));
    }
    let filled = tmp.0.join("pass-0");
    if !filled.join("COMPLETE").is_file() {
        return Err("the warm-store fill left no complete store".into());
    }
    drop_other_builds(state, "warm-", &name)?;
    std::fs::rename(&filled, &dir).map_err(|e| format!("cannot install warm store: {e}"))?;
    eprintln!(
        "perfbench: filled the warm store in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    Ok(dir)
}

/// The child side of [`warm_store`]: a cold pass of the whole registry
/// into `<scratch>/pass-0`, marked `COMPLETE` only if every output
/// matches the golden files.
fn fill_warm_store(scratch: &Path) -> Result<(), String> {
    let args = Args {
        workload: Workload::WarmFull,
        seed: 0,
        seconds: 1.0,
        trace: false,
        faults: None,
        attempts: None,
    };
    let env = setup(&args, scratch, 0, None)?;
    let (_, runs) = run_pass(&env, None)?;
    let check = check_pass(false, &env, &runs);
    if check.tally.failed > 0 {
        return Err(format!(
            "filling the warm store failed: {}",
            check.tally.problems.join("; ")
        ));
    }
    let filled = env.dir.keep();
    std::fs::write(filled.join("COMPLETE"), b"").map_err(|e| e.to_string())
}

/// Compares this run's simulated counts with the first run's for this
/// build and workload (recorded in the state directory under the build
/// key), so two runs of one build must agree on them exactly.
fn check_repeat(workload: Workload, counts: &str, tally: &mut Tally) -> Result<(), String> {
    let state = state_dir()?;
    let prefix = format!("counts-{}-", workload.name());
    let name = format!("{prefix}{}.txt", build_key()?);
    drop_other_builds(&state, &prefix, &name)?;
    let path = state.join(name);
    match std::fs::read_to_string(&path) {
        Ok(first) if first != counts => tally.fail(format!(
            "simulated counts differ from the first run of this build ({})",
            path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::write(&path, counts);
        }
    }
    Ok(())
}

/// Renders the exact-repeat key: every simulated count and the overhead.
fn counts_key(check: &PassCheck) -> String {
    let mut m = Metrics::default();
    check.counts.metrics(&mut m);
    let mut s = format!(
        "jobs {}\ncycles {}\ncommitted {}\n",
        check.counts.jobs, check.counts.cycles, check.counts.committed
    );
    for metric in &m.0 {
        s.push_str(&format!("{} {:?}\n", metric.name, metric.value));
    }
    s.push_str(&format!("gm_overhead_pct {:?}\n", check.overhead_pct));
    s
}

/// User + system CPU time of this process so far (from `/proc/self/stat`).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs [`SETUP_BATCHES`] batches of set-ups and adds each batch's mean
/// set-up time to `setups`. A batch runs set-ups until their summed time
/// reaches [`SETUP_BATCH_SPAN`]; each set-up is timed alone and torn down
/// outside its span.
fn setup_batches(
    args: &Args,
    scratch: &Path,
    warm: Option<&Path>,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..SETUP_BATCHES {
        let mut total = Duration::ZERO;
        let mut n = 0;
        while total < SETUP_BATCH_SPAN {
            let t = Instant::now();
            let env = setup(args, scratch, n, warm)?;
            total += t.elapsed();
            n += 1;
            drop(env);
        }
        setups.push(total.as_secs_f64() / n as f64);
    }
    Ok(())
}

/// The untraced run: repeated set-up + pass until `--seconds` of passes
/// have been measured; end-to-end metrics are medians over passes.
fn measure(args: &Args, scratch: &Path, warm: Option<&Path>) -> Result<(Tally, Metrics), String> {
    let mut tally = Tally::default();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut job_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut minst, mut mcycles) = (Vec::new(), Vec::new());
    let mut key: Option<String> = None;
    let mut overhead = 0.0;
    setup_batches(args, scratch, warm, &mut setups)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut measured = Duration::ZERO;
    while walls.is_empty() || measured < budget {
        let pass = walls.len();
        let env = setup(args, scratch, pass, warm)?;
        let cpu = cpu_seconds();
        let (wall, runs) = run_pass(&env, None)?;
        eprintln!(
            "perfbench: pass {pass}: {:.3}s wall, {:.2}s cpu",
            wall.as_secs_f64(),
            cpu_seconds() - cpu
        );
        measured += wall;
        walls.push(wall.as_secs_f64());
        let check = check_pass(args.workload.warm(), &env, &runs);
        tally.merge(&check.tally);
        for (job, ms) in &check.job_ms {
            job_ms.entry(job.clone()).or_default().push(*ms);
        }
        if args.workload.warm() {
            // No job is simulated: the rate at which the replay delivers
            // simulated work, per host second of the whole pass.
            minst.push(check.insts as f64 / wall.as_secs_f64() / 1e6);
            mcycles.push(check.cycles as f64 / wall.as_secs_f64() / 1e6);
        } else {
            let job_s = check.sim_wall_us.max(1) as f64 / 1e6;
            minst.push(check.insts as f64 / job_s / 1e6);
            mcycles.push(check.cycles as f64 / job_s / 1e6);
        }
        overhead = check.overhead_pct;
        let this_key = counts_key(&check);
        match &key {
            Some(first) if *first != this_key => {
                tally.fail(format!("pass {pass}: simulated counts differ from pass 0"))
            }
            Some(_) => {}
            None => key = Some(this_key),
        }
        drop(env);
        setup_batches(args, scratch, warm, &mut setups)?;
    }
    if !args.injected() {
        check_repeat(args.workload, key.as_deref().unwrap_or(""), &mut tally)?;
    }
    let mut m = Metrics::default();
    m.push("wall_s", median(&walls), "s");
    m.push("setup_s", median(&setups), "s");
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    let ok = tally.attempted.saturating_sub(tally.failed) as f64 / tally.attempted.max(1) as f64;
    m.push("success_ratio", ok, "ratio");
    m.push("sim_minst_per_s", median(&minst), "Minst/s");
    m.push("sim_mcycles_per_s", median(&mcycles), "Mcycles/s");
    // Each job's time is its median over the passes, and the percentiles
    // are taken over jobs: two jobs of similar cost that swap places in
    // one pass then leave the tail percentiles where they were.
    let per_job: Vec<f64> = job_ms.values().map(|v| median(v)).collect();
    let (p50, _) = percentile(&per_job, 50.0);
    let (p80, beyond80) = percentile(&per_job, 80.0);
    let (p95, beyond95) = percentile(&per_job, 95.0);
    m.push("job_ms_p50", p50, "ms");
    m.push("job_ms_p80", p80, "ms");
    m.push("job_ms_p95", p95, "ms");
    m.push("gm_overhead_pct", overhead, "%");
    println!(
        "perfbench: {} passes, {} jobs (p80: {beyond80} beyond, p95: {beyond95} beyond)",
        walls.len(),
        per_job.len()
    );
    Ok((tally, m))
}

fn run(args: &Args) -> Result<(Tally, Metrics), String> {
    if !Path::new("tests/golden/gm_run_test_scale.txt").is_file() {
        return Err("tests/golden/ not found: run from the repository root".into());
    }
    let state = state_dir()?;
    let scratch = ScratchDir(state.join(format!("run-{}", std::process::id())));
    let warm = if args.workload.warm() {
        Some(warm_store(&state)?)
    } else {
        None
    };
    if args.trace {
        traced::run(args, &scratch.0, warm.as_deref())
    } else {
        measure(args, &scratch.0, warm.as_deref())
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == FILL_FLAG {
        if let Err(e) = fill_warm_store(Path::new(&argv[2])) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (tally, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for p in &tally.problems {
        eprintln!("perfbench: FAIL {p}");
    }
    let mut body = Vec::new();
    for m in &metrics.0 {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            std::process::exit(1);
        }
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}
