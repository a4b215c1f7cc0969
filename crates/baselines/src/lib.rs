//! Software baseline transaction runtimes the paper compares against
//! (Section 7.1.2).
//!
//! * [`PmdkUndo`] — the industry-standard undo-logging discipline: each
//!   durable write first persists an undo record (flush **+ fence**), then
//!   updates data in place; commit persists the data and truncates the log
//!   (two more fences). This is the paper's baseline (`PMDK`).
//! * [`KaminoTx`] — the paper's implementation of Kamino-Tx's **upper
//!   bound**: in-place updates with asynchronous data persistence via a
//!   backup copy whose maintenance is omitted; what remains on the critical
//!   path is logging every write intent's *address* with a persist fence
//!   before the data update, plus a commit record. Not recoverable in this
//!   form (exactly like the paper's implementation) — excluded from
//!   atomicity testing via [`specpmt_txn::TxRuntime::crash_consistent`].
//! * [`Spht`] — SPHT-style redo logging: transactions run against the
//!   volatile image, commit persists only the redo records (single fence),
//!   and a background replayer applies the log to PM data and truncates it.
//!   Shares the log-record format with `specpmt-core`, so recovery is the
//!   same timestamp-ordered replay.
//! * [`NoLog`] — no crash consistency at all: the "versions without
//!   persistent memory transactions" bound of Figure 1. (Figure 13's
//!   hardware no-log ideal is `specpmt_hwtx::HwNoLog`.)
//!
//! All four implement [`specpmt_txn::TxRuntime`], so every STAMP mini-workload runs on
//! them unmodified.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kamino;
mod nolog;
mod pmdk;
mod spht;

pub use kamino::KaminoTx;
pub use nolog::NoLog;
pub use pmdk::{PmdkConfig, PmdkUndo};
pub use spht::Spht;
