//! Integration tests for the experiment harness: the parallel runner
//! must be a pure wall-clock optimisation (tables, CSV and JSON
//! bit-identical to the serial run), a warm result store must eliminate
//! re-simulation entirely, and any `--shard K/N` split must merge back
//! into a report bit-identical to the unsharded `--jobs 1` run.

use ghostminion::{Scheme, SystemConfig};
use gm_bench::experiment::{self, apply_workload_filter, ExperimentKind, Report, SchemeCol, Sweep};
use gm_bench::merge::{merge_docs, shard_doc, shard_entry};
use gm_bench::report::{render_sweep, report_text, run_experiment, sweep_results_json};
use gm_bench::{FaultPlan, Runner, Shard};
use gm_results::ResultStore;
use gm_workloads::{Scale, Suite};
use proptest::prelude::*;
use std::path::PathBuf;

/// A unique scratch directory under the system temp dir, removed on
/// drop (the offline environment has no `tempfile` crate).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        Self(std::env::temp_dir().join(format!(
            "gm-harness-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }

    fn store(&self) -> ResultStore {
        ResultStore::open(&self.0).expect("scratch store opens")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_sweep(suite: Suite, workloads: Vec<&'static str>) -> Sweep {
    Sweep {
        suite,
        workloads: Some(workloads),
        schemes: vec![
            SchemeCol::named(Scheme::unsafe_baseline()),
            SchemeCol::named(Scheme::ghost_minion()),
        ],
        report: Report::NormalizedTime,
        config: SystemConfig::micro2021(),
    }
}

#[test]
fn jobs4_is_bit_identical_to_jobs1() {
    let sweep = small_sweep(Suite::Spec2006, vec!["gamess", "hmmer"]);
    let serial = Runner::new(1).run_sweep(&sweep, Scale::Test);
    let parallel = Runner::new(4).run_sweep(&sweep, Scale::Test);

    let (_, t1, _) = render_sweep(&sweep, &serial);
    let (_, t4, _) = render_sweep(&sweep, &parallel);
    assert_eq!(t1.render(), t4.render(), "table must not depend on --jobs");
    assert_eq!(t1.to_csv(), t4.to_csv(), "CSV must not depend on --jobs");
}

#[test]
fn security_report_is_bit_identical_across_worker_counts() {
    // The attack runs go to the pool as one flat list and finish in any
    // order; the report must not show it.
    let exp = experiment::find("security").expect("registry has security");
    let run = |jobs| {
        let out = run_experiment(&Runner::new(jobs), &exp, Scale::Test, None, None).unwrap();
        (report_text(exp.title, &out), out.results.render())
    };
    let (text1, json1) = run(1);
    let (text4, json4) = run(4);
    assert_eq!(text1, text4, "security report must not depend on --jobs");
    assert_eq!(json1, json4, "security JSON must not depend on --jobs");
}

#[test]
fn store_backed_json_is_bit_identical_across_worker_counts() {
    // Per-job JSON carries wall-clock, so byte-identity across runs holds
    // when both runs replay the same store (hits report the stored wall).
    let scratch = Scratch::new("jobs-json");
    let store = scratch.store();
    let sweep = small_sweep(Suite::Spec2006, vec!["gamess", "hmmer"]);
    let warm = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!(warm.cache.misses, 4);

    let serial = Runner::new(1)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    let parallel = Runner::new(4)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!(
        sweep_results_json(&sweep, &serial).render(),
        sweep_results_json(&sweep, &parallel).render(),
        "store-backed JSON must not depend on --jobs"
    );
    assert_eq!(
        sweep_results_json(&sweep, &warm).render(),
        sweep_results_json(&sweep, &serial).render(),
        "cache hits must replay the original records bit for bit"
    );
}

#[test]
fn a_warm_store_eliminates_all_simulation() {
    let scratch = Scratch::new("warm");
    let store = scratch.store();
    let sweep = small_sweep(Suite::Spec2006, vec!["gamess", "hmmer"]);

    let cold = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!((cold.cache.hits, cold.cache.misses), (0, 4));
    assert!(cold.sim_wall_us() > 0, "misses must record wall-clock");
    assert!(cold.slowest_sim(&sweep).is_some());

    let warm = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!((warm.cache.hits, warm.cache.misses), (4, 0));
    assert_eq!(warm.sim_wall_us(), 0, "zero re-simulation on a warm store");
    assert!(warm.slowest_sim(&sweep).is_none());

    // The replayed grid renders the same report.
    let (_, cold_table, _) = render_sweep(&sweep, &cold.to_results());
    let (_, warm_table, _) = render_sweep(&sweep, &warm.to_results());
    assert_eq!(cold_table.render(), warm_table.render());
}

/// Satellite of the fault-tolerance PR: everything operational (retry
/// warnings, quarantine notes) goes to stderr, so the *rendered report*
/// of a run that recovered from a bit-rotten store line and a transient
/// panic is byte-identical to a clean run's.
#[test]
fn reports_stay_byte_identical_under_recoverable_faults() {
    let scratch = Scratch::new("recoverable");
    let store = scratch.store();
    let sweep = small_sweep(Suite::Spec2006, vec!["gamess", "hmmer"]);

    // Clean reference: a cold run that also warms the store.
    let clean = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    let (clean_res, omitted) = clean.complete_results();
    assert!(omitted.is_empty(), "fault-free run omits nothing");
    let (pre, clean_table, post) = render_sweep(&sweep, &clean_res);
    assert!(pre.is_empty() && post.is_empty());

    // Bit-rot the gamess/Unsafe record: its checksum now fails, the line
    // is quarantined on load, and the job re-simulates — where an
    // injected transient panic makes the first attempt fail too.
    let path = store.path("t");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let idx = lines
        .iter()
        .position(|l| l.contains("\"workload\":\"gamess\"") && l.contains("\"scheme\":\"Unsafe\""))
        .expect("store holds the gamess/Unsafe record");
    lines[idx] = lines[idx].replacen("\"cycles\":", "\"cycles\":1", 1);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let healed = Runner::new(2)
        .with_faults(FaultPlan::none().panic_once("gamess", "Unsafe"))
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert!(healed.failures.is_empty(), "retry healed the transient");
    assert_eq!(
        (healed.cache.hits, healed.cache.misses),
        (3, 1),
        "only the quarantined record re-simulates"
    );
    assert!(
        store.quarantine_path("t").exists(),
        "the rotten line is preserved in the quarantine sidecar"
    );

    let (healed_res, omitted) = healed.complete_results();
    assert!(omitted.is_empty());
    let (pre, healed_table, post) = render_sweep(&sweep, &healed_res);
    assert!(pre.is_empty() && post.is_empty(), "no stdout annotations");
    assert_eq!(
        clean_table.render(),
        healed_table.render(),
        "recovered report must be byte-identical"
    );
    assert_eq!(clean_table.to_csv(), healed_table.to_csv());

    // The re-simulated record superseded the rotten one: a further warm
    // run replays everything.
    let warm = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!((warm.cache.hits, warm.cache.misses), (4, 0));
}

#[test]
fn a_config_change_invalidates_the_cache() {
    let scratch = Scratch::new("invalidate");
    let store = scratch.store();
    let mut sweep = small_sweep(Suite::Spec2006, vec!["gamess"]);
    Runner::new(1)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    // Any behavioural knob flips the fingerprint; the warm store misses.
    sweep.config.core.rob_entries -= 1;
    let run = Runner::new(1)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!((run.cache.hits, run.cache.misses), (0, 2));
}

#[test]
fn the_same_sweep_loop_handles_multithreaded_units() {
    // Fig. 7's 4-thread Parsec units flow through the identical
    // (workload × scheme) expansion — no private sweep loop.
    let sweep = small_sweep(Suite::Parsec, vec!["swaptions"]);
    let res = Runner::new(2).run_sweep(&sweep, Scale::Test);
    assert_eq!(res.rows.len(), 1);
    assert!(res.rows[0].iter().all(|r| r.threads == 4));
    let (_, table, _) = render_sweep(&sweep, &res);
    assert_eq!(table.len(), 2, "one workload + geomean");
}

#[test]
fn normalized_sweep_has_rows_plus_geomean() {
    let sweep = small_sweep(Suite::Spec2006, vec!["gamess", "hmmer"]);
    let res = Runner::new(2).run_sweep(&sweep, Scale::Test);
    let (_, table, _) = render_sweep(&sweep, &res);
    assert_eq!(table.len(), 3, "two workloads + geomean");
    let csv = table.to_csv();
    assert!(csv.starts_with("workload,GhostMinion"));
    assert!(csv.contains("geomean"));
}

#[test]
fn sweep_json_carries_per_job_records() {
    let sweep = small_sweep(Suite::Spec2006, vec!["gamess"]);
    let run = Runner::new(1)
        .run_sweep_shard(&sweep, Scale::Test, "t", None, Shard::full(), None)
        .unwrap();
    let json = sweep_results_json(&sweep, &run).render();
    for field in [
        "\"workload\":\"gamess\"",
        "\"scheme\":\"Unsafe\"",
        "\"scheme\":\"GhostMinion\"",
        "\"threads\":1",
        "\"cycles\":",
        "\"committed\":",
        "\"wall_us\":",
        "\"fingerprint\":",
        "\"counters\":{",
        "\"cores\":[{",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
}

#[test]
fn workload_filter_is_strict_and_intersects() {
    let mut experiments = vec![experiment::find("fig6").unwrap()];
    let err = apply_workload_filter(&mut experiments, &["not-a-workload".to_owned()]).unwrap_err();
    assert!(err.contains("unknown workload"), "{err}");

    apply_workload_filter(&mut experiments, &["hmmer".to_owned(), "gamess".to_owned()]).unwrap();
    let ExperimentKind::Sweep(sweep) = &experiments[0].kind else {
        panic!("fig6 is a sweep");
    };
    // Suite order, not request order.
    assert_eq!(
        sweep.workloads.as_deref(),
        Some(["gamess", "hmmer"].as_slice())
    );

    // Intersecting an existing filter narrows it.
    apply_workload_filter(&mut experiments, &["hmmer".to_owned(), "mcf".to_owned()]).unwrap();
    let ExperimentKind::Sweep(sweep) = &experiments[0].kind else {
        panic!("fig6 is a sweep");
    };
    assert_eq!(sweep.workloads.as_deref(), Some(["hmmer"].as_slice()));

    // Non-sweep-only selections reject the flag outright.
    let mut t1 = vec![experiment::find("table1").unwrap()];
    assert!(apply_workload_filter(&mut t1, &["gamess".to_owned()]).is_err());
}

/// One sharded end-to-end round at `n` shards for the scoped-down
/// `fu_order` registry experiment, against a shared warm store:
/// partition must be disjoint and covering, and the merged report must
/// be bit-identical to the unsharded `--jobs 1` run. (A warm
/// same-configuration store has no *historical* records, so this is the
/// round-robin path; the LPT path is covered by
/// `historical_costs_shard_consistently_against_one_store`.)
fn shard_round(n: u32, store: &ResultStore, reference: &(String, String)) {
    let mut experiments = vec![experiment::find("fu_order").unwrap()];
    apply_workload_filter(&mut experiments, &["gamess".to_owned(), "hmmer".to_owned()]).unwrap();
    let exp = &experiments[0];
    let ExperimentKind::Sweep(sweep) = &exp.kind else {
        panic!("fu_order is a sweep");
    };

    let mut docs = Vec::new();
    let mut owned_per_job: Vec<usize> = Vec::new();
    for k in 1..=n {
        let shard = Shard::new(k, n).unwrap();
        let run = Runner::new(1)
            .run_sweep_shard(sweep, Scale::Test, exp.name, Some(store), shard, None)
            .unwrap();
        assert_eq!(run.cache.misses, 0, "warm store: shards never simulate");
        // Flatten ownership in job order.
        let flat: Vec<bool> = run
            .rows
            .iter()
            .flat_map(|row| row.iter().map(Option::is_some))
            .collect();
        if owned_per_job.is_empty() {
            owned_per_job = vec![0; flat.len()];
        }
        for (slot, owned) in owned_per_job.iter_mut().zip(&flat) {
            *slot += usize::from(*owned);
        }
        docs.push(shard_doc(
            "gm-run",
            Scale::Test,
            shard,
            vec![shard_entry(exp, Scale::Test, &run, sweep)],
        ));
    }
    // Disjoint and covering: every job owned by exactly one shard.
    assert!(
        owned_per_job.iter().all(|&owners| owners == 1),
        "{n}-way partition must own every job exactly once: {owned_per_job:?}"
    );

    let merged = merge_docs(&docs, &Runner::new(1)).unwrap();
    assert_eq!(merged.outputs.len(), 1);
    let (mexp, mout) = &merged.outputs[0];
    assert_eq!(mexp.name, "fu_order");
    assert_eq!(
        report_text(mexp.title, mout),
        reference.0,
        "{n}-way merge must reproduce the unsharded report"
    );
    assert_eq!(
        mout.results.render(),
        reference.1,
        "{n}-way merge must reproduce the unsharded per-job JSON"
    );
}

/// Cost-aware sharding from *historical* records: a store warmed under
/// a different configuration (fingerprints invalidated, workload and
/// scheme labels intact — the "previous code version / cheaper scale"
/// workflow) predicts job costs, and only `gamess` is warmed, so
/// `hmmer`'s jobs are predicted at the mean (partial knowledge). The
/// shards run *sequentially against the same store directory*: the
/// partition must not shift when shard 1 appends its freshly simulated
/// records (cost inputs are historical records only, which a
/// current-configuration run never writes), and the merged report must
/// match the unsharded run.
#[test]
fn historical_costs_shard_consistently_against_one_store() {
    let scratch = Scratch::new("historical-cost");
    let store = scratch.store();
    let mut experiments = vec![experiment::find("fu_order").unwrap()];
    apply_workload_filter(&mut experiments, &["gamess".to_owned(), "hmmer".to_owned()]).unwrap();
    let exp = &experiments[0];
    let ExperimentKind::Sweep(sweep) = &exp.kind else {
        panic!("fu_order is a sweep");
    };
    // Reference (storeless — the report depends only on the simulation).
    let reference = report_text(
        exp.title,
        &run_experiment(&Runner::new(1), exp, Scale::Test, None, None).unwrap(),
    );
    // Warm the store under an *older* configuration: every record's
    // fingerprint misses the current jobs, so nothing is cached, but
    // the (workload, scheme) wall-clocks still predict costs.
    let mut old = sweep.clone();
    old.config.core.rob_entries -= 1;
    old.workloads = Some(vec!["gamess"]);
    Runner::new(1)
        .run_sweep_shard(
            &old,
            Scale::Test,
            exp.name,
            Some(&store),
            Shard::full(),
            None,
        )
        .unwrap();

    let mut docs = Vec::new();
    let mut owned_per_job: Vec<usize> = Vec::new();
    let mut misses = 0;
    for k in 1..=2u32 {
        let shard = Shard::new(k, 2).unwrap();
        let run = Runner::new(1)
            .run_sweep_shard(sweep, Scale::Test, exp.name, Some(&store), shard, None)
            .unwrap();
        misses += run.cache.misses;
        let flat: Vec<bool> = run
            .rows
            .iter()
            .flat_map(|row| row.iter().map(Option::is_some))
            .collect();
        if owned_per_job.is_empty() {
            owned_per_job = vec![0; flat.len()];
        }
        for (slot, owned) in owned_per_job.iter_mut().zip(&flat) {
            *slot += usize::from(*owned);
        }
        docs.push(shard_doc(
            "gm-run",
            Scale::Test,
            shard,
            vec![shard_entry(exp, Scale::Test, &run, sweep)],
        ));
    }
    assert!(
        owned_per_job.iter().all(|&owners| owners == 1),
        "historical-cost LPT split must own every job exactly once even \
         when shards run sequentially against one store: {owned_per_job:?}"
    );
    assert_eq!(
        misses,
        owned_per_job.len(),
        "history predicts costs but caches nothing — every job simulates"
    );
    let merged = merge_docs(&docs, &Runner::new(1)).unwrap();
    let (mexp, mout) = &merged.outputs[0];
    assert_eq!(report_text(mexp.title, mout), reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Satellite requirement: every K/N partition is disjoint, covers
    /// all jobs, and its merged report is bit-identical to the
    /// unsharded `--jobs 1` output.
    #[test]
    fn any_shard_split_merges_bit_identically(n in 1u32..=4) {
        let scratch = Scratch::new("shard-prop");
        let store = scratch.store();
        // Unsharded --jobs 1 reference against the same (cold) store.
        let mut experiments = vec![experiment::find("fu_order").unwrap()];
        apply_workload_filter(
            &mut experiments,
            &["gamess".to_owned(), "hmmer".to_owned()],
        )
        .unwrap();
        let exp = &experiments[0];
        let out = run_experiment(&Runner::new(1), exp, Scale::Test, Some(&store), None).unwrap();
        let reference = (report_text(exp.title, &out), out.results.render());
        shard_round(n, &store, &reference);
    }
}
