//! The persistent-transaction abstraction layer.
//!
//! Every crash-consistency runtime in this workspace — software SpecPMT, the
//! PMDK / Kamino-Tx / SPHT baselines, and the hardware models — implements
//! [`TxRuntime`]: begin, durable writes, commit, plus transactional
//! allocation. Workloads (the STAMP minis in `specpmt-stamp`) are written
//! once against the trait and run unmodified on every runtime, which is what
//! makes the paper's apples-to-apples comparisons possible.
//!
//! Recovery is a static operation on a [`specpmt_pmem::CrashImage`]
//! (the machine rebooted; no runtime state survives), expressed by the
//! [`Recover`] trait.
//!
//! The correctness harness that checks every runtime against these traits
//! — the commit oracle, the crash-injection drivers and the crash-point
//! enumerator — is the separate `specpmt-check` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod group;
pub mod lock;
mod report;
mod runtime;

pub use access::{run_tx, CommitReceipt, TxAccess};
pub use group::{GroupBatch, GroupCommitter};
pub use lock::{LockGuard, LockTableStats, SharedLockTable};
pub use report::{geomean, RunReport, TxStats};
pub use runtime::{Recover, TxRuntime};
