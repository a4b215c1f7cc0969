//! Software SpecPMT: speculatively persistent memory transactions.
//!
//! This crate implements the paper's primary contribution in its
//! software-only form (Section 4): a persistent transaction runtime that
//! logs the **new** value of every durable update (*speculative logging*),
//! persists the whole transaction's log with a **single** flush+fence at
//! commit, and never flushes the data itself — the log doubles as a redo
//! log for committed transactions and an undo log for interrupted ones.
//!
//! The moving parts:
//!
//! * [`record`] — the on-PM log format: chained log blocks holding
//!   chronologically ordered records `[len | ts | checksum | entries…]`.
//!   The checksum ([`word_hash`]) doubles as the commit flag (a torn record
//!   fails validation and is treated as uncommitted), eliminating the
//!   dedicated commit-status write and fence.
//! * [`SpecSpmt`] — the runtime as one handle over one append-only log
//!   area: write-set indexing that dedups repeated updates inside a
//!   transaction, transactional allocation, and the `SpecSPMT-DP` variant
//!   ([`SpecConfig::data_persistence`]) that additionally persists data at
//!   commit, used by the paper to isolate where the speedup comes from.
//!   Its record protocol (reserve, stage, seal, one flush + one fence) is
//!   one private engine over [`record::LogStore`].
//! * [`SpecSpmtShared`] + [`concurrent::TxHandle`] — the paper's
//!   multi-threaded design: every thread owns a log area of one shared
//!   pool and instantiates the same engine. N chains are always N
//!   handles, whether real OS threads drive them or one thread steps them
//!   in a loop (which is how deterministic multi-chain histories are
//!   built).
//! * [`recovery`] — post-crash repair: discard uncommitted records
//!   (checksum mismatch), then replay every valid record across all
//!   threads in commit-timestamp order (undoing interrupted transactions
//!   and redoing committed ones).
//! * [`inspect`] — the crash-image reader: [`forensics`] reports an
//!   image's chains and its flight recorder without repairing it.
//! * [`reclaim`] — log reclamation and compaction: a byte-granular
//!   freshness index finds records fully covered by younger records and
//!   rewrites each thread's chain without them, splicing the new chain in
//!   with the paper's two-fence protocol. Runs in background mode
//!   (dedicated core — time excluded, traffic counted) or inline (for the
//!   ablation benchmark).
//! * [`hashlog`] — the paper's strawman alternative (one log slot per
//!   datum located by hashing, Section 4): space-efficient but with random
//!   PM write locality; reproduced for the "3.2× slower" micro-experiment.
//! * [`undo`] — the undo entry PMDK and the hardware models share: its
//!   encoder and its one rollback scanner.
//!
//! # Quick example
//!
//! ```
//! use specpmt_core::{SpecConfig, SpecSpmt};
//! use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool};
//! use specpmt_txn::{Recover, TxAccess, TxRuntime};
//!
//! let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
//! let mut rt = SpecSpmt::new(pool, SpecConfig::default());
//! let slot = rt.pool_mut().alloc_direct(8, 8)?;
//!
//! rt.begin();
//! rt.write_u64(slot, 7);
//! rt.commit();
//!
//! // Crash with *nothing* evicted from the cache: the datum itself never
//! // reached PM, but recovery replays it from the speculative log.
//! use specpmt_pmem::CrashControl;
//! let mut img = rt.pool().device().capture(specpmt_pmem::CrashPolicy::AllLost);
//! SpecSpmt::recover(&mut img);
//! assert_eq!(img.read_u64(slot), 7);
//! # Ok::<(), specpmt_pmem::PmemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
pub mod concurrent;
mod engine;
pub mod hashlog;
pub mod inspect;
pub mod layout;
pub mod locked;
pub mod reclaim;
pub mod record;
pub mod recovery;
mod runtime;
pub mod undo;
pub mod writeset;

pub use checksum::{fnv1a64, fnv1a64_reference, word_hash};
pub use concurrent::{
    ConcurrentConfig, ConcurrentConfigBuilder, PoolSource, ReclaimDaemon, SharedStats,
    SpecSpmtShared, TxHandle,
};
pub use engine::{Probe, TxLog};
pub use hashlog::{HashLogConfig, HashLogSpmt};
pub use inspect::{forensics, ChainSummary, ForensicInFlight, ForensicReport, ForensicViolation};
pub use layout::{PoolLayout, SingleChain, LAYOUT_SLOT};
pub use locked::LockedTxHandle;
pub use reclaim::{FreshnessIndex, ReclaimState, ReclaimStats};
pub use recovery::{recover_image_opts, RecoveryOptions, RecoveryReport};
pub use runtime::{ReclaimMode, SpecConfig, SpecSpmt};
/// The metrics bundle [`SpecSpmt::telemetry`] and [`Probe`] carry.
pub use specpmt_telemetry::Telemetry;
pub use writeset::{EntrySlot, WriteSet};
