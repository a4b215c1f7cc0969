//! The correctness harness, kept out of the crates it judges.
//!
//! SpecPMT is correct only if a torn record is rejected and an acked
//! commit survives. Everything that checks that lives here, so no
//! production crate carries harness-only code:
//!
//! * [`oracle`] — [`CommitOracle`], the byte-level state a recovered
//!   image must show, including the all-or-nothing rule for the one
//!   transaction whose commit the crash cut;
//! * [`run`] — how a run under an armed [`specpmt_pmem::CrashPlan`] ends
//!   ([`RunSummary`], [`end_run`]) and where a commit stands relative to
//!   its image ([`bracket`]);
//! * [`driver`] — random transaction streams on any
//!   [`specpmt_txn::TxRuntime`], crashed, recovered and verified;
//! * [`mt`] — the same on real OS threads against one shared device;
//! * [`crashsmoke`] — the smoke workloads that together reach every
//!   labeled crash site;
//! * [`crashenum`] — the FIRST-style enumerator over those sites and its
//!   self-test, driven by the `crashenum` bin
//!   (`cargo run --release -p specpmt-check --bin crashenum`).
//!
//! Each rule is written once: the crash-epoch bracket in [`bracket`], the
//! image a run is judged on in [`end_run`], and the verdict on a
//! recovered image in [`CommitOracle::verify`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crashenum;
pub mod crashsmoke;
pub mod driver;
pub mod mt;
pub mod oracle;
pub mod run;

pub use crashenum::{enumerate, run_fuel_sweep, CaseResult, EnumConfig, EnumReport};
pub use mt::{check_mt_crash_atomicity, run_threads, MtScenario, ThreadRun};
pub use oracle::CommitOracle;
pub use run::{bracket, end_run, Bracket, RunSummary};
