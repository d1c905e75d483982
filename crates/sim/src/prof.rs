//! Per-stage profiling counters for the stage-gated busy path
//! (feature `stage-prof`).
//!
//! `Core::tick` dispatches a pipeline stage only when its pending-work
//! predicate holds. With this feature enabled, every dispatch decision
//! is counted: how often each stage actually ran, how often the gate
//! skipped it, and how much wall time the dispatched bodies cost. The
//! numbers prove the gating fires (skip counts) and show where the
//! remaining busy-path time goes (run time per stage) — the
//! profile-guided evidence ROADMAP item 1 asks for.
//!
//! The counters are global relaxed atomics rather than per-core fields
//! so the non-profiling build carries literally nothing: with the
//! feature off, the gate compiles down to the bare predicate branch.
//! Consequently the numbers aggregate over *all* cores and runs since
//! the last [`reset`]; `gm-run` resets before each sweep experiment
//! and snapshots after it. Concurrent simulations would blend their
//! counts — acceptable for a diagnosis build, meaningless only if you
//! profile two experiments at once (`gm-run` runs them in turn).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The gated stages of [`crate::Core`]'s tick, in dispatch order.
/// `drain_cancellations` and the FU new-cycle rollover are ungated
/// (they are the channels that *create* pending work) and therefore
/// not profiled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Event-heap drain: results due this cycle wake dependents.
    Writeback,
    /// In-order retirement from the ROB head.
    Commit,
    /// Ready-instruction selection and FU dispatch.
    Issue,
    /// Load/store queue send pass (forwarding, STT gate, ports).
    Lsq,
    /// Decode/rename/allocate from the fetch queue.
    Rename,
    /// Instruction fetch into the fetch queue.
    Fetch,
}

/// All stages, in dispatch order (table rendering).
pub const STAGES: [Stage; 6] = [
    Stage::Writeback,
    Stage::Commit,
    Stage::Issue,
    Stage::Lsq,
    Stage::Rename,
    Stage::Fetch,
];

const N: usize = 6;
// `[const { ... }; N]` needs Rust 1.79; the promoted-const repeat works
// on the workspace MSRV (1.75).
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static RUNS: [AtomicU64; N] = [ZERO; N];
static SKIPS: [AtomicU64; N] = [ZERO; N];
static NANOS: [AtomicU64; N] = [ZERO; N];

impl Stage {
    /// Stable index into the counter arrays.
    fn index(self) -> usize {
        match self {
            Stage::Writeback => 0,
            Stage::Commit => 1,
            Stage::Issue => 2,
            Stage::Lsq => 3,
            Stage::Rename => 4,
            Stage::Fetch => 5,
        }
    }

    /// Human-readable stage name (table rendering).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Writeback => "writeback",
            Stage::Commit => "commit",
            Stage::Issue => "issue",
            Stage::Lsq => "lsq",
            Stage::Rename => "rename",
            Stage::Fetch => "fetch",
        }
    }
}

/// Records one dispatched stage body and its wall time.
#[inline]
pub fn record_run(stage: Stage, elapsed: Duration) {
    let i = stage.index();
    RUNS[i].fetch_add(1, Ordering::Relaxed);
    NANOS[i].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

/// Records one stage skipped by its gate.
#[inline]
pub fn record_skip(stage: Stage) {
    SKIPS[stage.index()].fetch_add(1, Ordering::Relaxed);
}

/// Zeroes all counters. The bench driver calls this before each
/// profiled experiment so per-experiment snapshots don't blend.
pub fn reset() {
    for c in RUNS.iter().chain(SKIPS.iter()).chain(NANOS.iter()) {
        c.store(0, Ordering::Relaxed);
    }
}

/// One stage's counters since the last [`reset`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageCounts {
    /// Which stage the row describes.
    pub stage: Stage,
    /// Times the gate passed and the body ran.
    pub runs: u64,
    /// Times the gate skipped the body.
    pub skips: u64,
    /// Total wall time spent inside dispatched bodies, in nanoseconds.
    pub nanos: u64,
}

/// Snapshot of all six stages, in dispatch order.
pub fn snapshot() -> [StageCounts; 6] {
    STAGES.map(|stage| {
        let i = stage.index();
        StageCounts {
            stage,
            runs: RUNS[i].load(Ordering::Relaxed),
            skips: SKIPS[i].load(Ordering::Relaxed),
            nanos: NANOS[i].load(Ordering::Relaxed),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-global, so this single test exercises
    // reset, record, and snapshot in one sequence (parallel test
    // threads would otherwise race on the shared state).
    #[test]
    fn record_reset_snapshot_roundtrip() {
        reset();
        record_run(Stage::Commit, Duration::from_nanos(120));
        record_run(Stage::Commit, Duration::from_nanos(80));
        record_skip(Stage::Fetch);
        let snap = snapshot();
        let commit = snap[Stage::Commit.index()];
        assert_eq!(commit.runs, 2);
        assert_eq!(commit.skips, 0);
        assert_eq!(commit.nanos, 200);
        let fetch = snap[Stage::Fetch.index()];
        assert_eq!(fetch.runs, 0);
        assert_eq!(fetch.skips, 1);
        assert_eq!(snap[Stage::Writeback.index()].runs, 0);
        reset();
        assert!(snapshot().iter().all(|c| c.runs + c.skips + c.nanos == 0));
    }

    #[test]
    fn stage_order_matches_indices() {
        for (i, s) in STAGES.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
