//! Microarchitectural timing model for hardware SpecPMT (Section 5).
//!
//! The paper evaluates its hardware designs on Gem5 + Ruby with the Table 1
//! configuration; this crate is the event-level Rust substitute. It models
//! the components the hardware transaction designs actually exercise:
//!
//! * [`cache::SetAssocCache`] — L1D (32 KB / 8-way / 2 cycles) and a shared
//!   L2 (2 MB / 12-way / 20 cycles), LRU, with the two SpecPMT flag bits
//!   per L1 line: **PBit** (needs persistence on eviction) and **LogBit**
//!   (needs speculative logging at commit/eviction).
//! * [`tlb::TwoLevelTlb`] — L1 (64-entry / 8-way) and L2 (1536-entry /
//!   12-way) TLBs, each entry extended with the **EpochBit** and the 3-bit
//!   saturating hotness counter that doubles as the epoch ID
//!   (Fig. 9). The `startepoch`/`clearepoch` instructions operate here.
//! * [`core::HwCore`] — drives both, charges hit/miss/page-walk latencies
//!   (at picosecond resolution on a 4 GHz core) to the shared
//!   [`specpmt_pmem::PmemDevice`] clock, and reports eviction events so the
//!   transaction models in `specpmt-hwtx` can apply their policies
//!   (write-back-to-WPQ, speculative-log-before-eviction, …).
//!
//! Persistence timing (WPQ occupancy, media bandwidth, fences) stays in
//! `specpmt-pmem`; this crate decides *which* lines move *when*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assoc;
pub mod cache;
pub mod config;
pub mod core;
pub mod stats;
pub mod tlb;

pub use cache::{EvictedLine, SetAssocCache};
pub use config::HwConfig;
pub use core::{Access, HwCore};
pub use stats::HwStats;
pub use tlb::{TlbEntry, TlbLookup, TwoLevelTlb};
