//! Hardware persistent-transaction models (Sections 5 and 7.3).
//!
//! Four transaction designs run over the `specpmt-hwsim` core + the shared
//! simulated PM device, all implementing [`specpmt_txn::TxRuntime`] so the
//! STAMP miniatures drive them unmodified:
//!
//! * [`HwSpecPmt`] — **hardware SpecPMT**: hybrid logging (speculative
//!   logging for TLB-tracked hot pages, undo logging for cold data), the
//!   bulk-copy cold→hot page transition, commit-time L1 scans that create
//!   and persist per-line speculative records with a single fence, PBit
//!   natural-overflow data persistence, and epoch-based foreground log
//!   reclamation with `startepoch`/`clearepoch`. The `-DP` variant also
//!   persists data at commit.
//! * [`Ede`] — the baseline: hardware undo logging whose log/data persist
//!   *ordering* is enforced by ISA dependencies instead of fences; both log
//!   records and data persist by commit (one fence in the model, with
//!   coalesced line-granular records).
//! * [`Hoop`] — out-of-place updates: commits persist packed redo records
//!   (plus records for in-transaction cache misses — HOOP's indirection
//!   cost); a background GC applies coalesced updates to home locations in
//!   128 KB batches, contending for the WPQ.
//! * [`HwNoLog`] — persists data at commit, no logging, no crash
//!   consistency: Figure 13's ideal bound.
//!
//! ## Crash-model scope
//!
//! Recovery is validated at *transaction* granularity: a crash anywhere
//! between or inside transactions (before their commit fence completes)
//! recovers to a committed-prefix state. Persist-ordering *within* a single
//! commit sequence is assumed enforced by the modelled hardware (EDE-style
//! dependency tracking), which the timing model does not bit-model — see
//! DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod ede;
mod hoop;
mod nolog;
mod spec;

pub use common::{hw_pmem_config, hw_pool, LineSet, UndoLog};
pub use ede::{Ede, EdeConfig};
pub use hoop::Hoop;
pub use nolog::HwNoLog;
pub use spec::{HwSpecConfig, HwSpecPmt};
