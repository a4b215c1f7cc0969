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
//! The crate also provides the correctness harness: a [`oracle::CommitOracle`]
//! that shadows committed state, and a [`driver`] that generates random
//! transaction streams, crashes the device at arbitrary points under
//! arbitrary [`specpmt_pmem::CrashPolicy`]s, recovers, and verifies
//! atomicity — the property at the heart of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod crashenum;
pub mod driver;
pub mod group;
pub mod lock;
pub mod mt;
pub mod oracle;
mod report;
mod runtime;

pub use access::{run_tx, CommitReceipt, TxAccess};
pub use crashenum::{enumerate, run_fuel_sweep, CaseResult, EnumConfig, EnumReport, RunSummary};
pub use group::{GroupBatch, GroupCommitter, GroupReport};
pub use lock::{LockGuard, LockTableStats, SharedLockTable};
pub use mt::{check_mt_crash_atomicity, MtScenario};
pub use oracle::CommitOracle;
pub use report::{geomean, RunReport, TxStats};
pub use runtime::{Recover, TxRuntime};
