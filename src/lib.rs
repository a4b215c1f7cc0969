//! SpecPMT — speculative logging for persistent memory transactions.
//!
//! Facade crate for the workspace reproducing "SpecPMT: Speculative Logging
//! for Resolving Crash Consistency Overhead of Persistent Memory"
//! (ASPLOS 2023). Re-exports every member crate under a stable path:
//!
//! * [`pmem`] — simulated persistent memory (device, crash images, pool).
//! * [`txn`] — the `TxRuntime` abstraction and the strict-2PL lock
//!   table. The crash harness is the dev-only `specpmt-check` crate.
//! * [`core`] — software SpecPMT: the paper's primary contribution.
//! * [`baselines`] — PMDK, Kamino-Tx, SPHT, and no-log comparators.
//! * [`hwsim`] / [`hwtx`] — the microarchitectural model and the hardware
//!   transaction designs (SpecHPMT, EDE, HOOP).
//! * [`stamp`] — the nine evaluated STAMP mini-workloads.
//! * [`kv`] — the sharded multi-tenant KV service scenario (zipfian load,
//!   per-tenant admission control, SLO backpressure).
//! * [`telemetry`] — zero-dependency counters, latency histograms, the
//!   flight recorder's event format, and the shared JSON export layer.
//!
//! See the repository README for a tour and `examples/` for runnable
//! entry points, starting with `examples/quickstart.rs`.

#![forbid(unsafe_code)]

pub use specpmt_baselines as baselines;
pub use specpmt_core as core;
pub use specpmt_hwsim as hwsim;
pub use specpmt_hwtx as hwtx;
pub use specpmt_kv as kv;
pub use specpmt_pmem as pmem;
pub use specpmt_stamp as stamp;
pub use specpmt_telemetry as telemetry;
pub use specpmt_txn as txn;
