#![warn(missing_docs)]

//! Persistent, shardable experiment results for the GhostMinion
//! reproduction.
//!
//! Re-simulating the paper's figures means hundreds of
//! (workload × scheme) jobs at up to 2×10⁹ cycles each. This crate
//! gives each such job a stable identity and a durable home, which is
//! what result caching, warm re-runs, and cross-machine sharding all
//! hang off:
//!
//! * [`fingerprint`] — a job's content address: the SHA-256 of a
//!   canonical-JSON descriptor covering the workload's program content,
//!   the scheme, the scale, and the full
//!   [`ghostminion::SystemConfig`]. Equal fingerprint ⇒ equal
//!   simulation; any behavioural change ⇒ a clean cache miss.
//! * [`record`] — the flat JSON form of one finished job, carrying
//!   enough (cycles, per-core pipeline stats, all memory counters,
//!   wall-clock) to rebuild the [`ghostminion::MachineResult`] a report
//!   renderer consumes.
//! * [`store`] — append-only JSON-lines per experiment with per-record
//!   checksums, tolerant reads (corrupt lines quarantined, never
//!   silently dropped), and atomic compaction; the cache the `gm-bench`
//!   runner consults before simulating and appends to after.
//! * [`faults`] — deterministic I/O fault injection behind the store's
//!   [`store::StoreIo`] seam, for crash and corruption tests.
//! * [`hash`] — the dependency-free SHA-256 underneath it all.
//!
//! The `gm-bench` crate layers the user-visible behaviour on top:
//! `--store DIR` for cache-aware re-runs, `--shard K/N` for
//! deterministic job partitioning, and `gm-run merge` for combining
//! shard outputs into a report bit-identical to an unsharded run.

pub mod faults;
pub mod fingerprint;
pub mod hash;
pub mod record;
pub mod store;

pub use faults::{FaultControl, FaultyIo};
pub use fingerprint::{job_descriptor, job_fingerprint, program_sha, FORMAT_VERSION};
pub use hash::{sha256_hex, Sha256};
pub use record::{
    job_record, record_fingerprint, record_wall_us, result_from_record, validate_record,
};
pub use store::{
    parse_store_line, CompactStats, GcStats, LoadedShard, QuarantineStats, RealIo, ResultStore,
    StoreIo, StoreLine,
};
