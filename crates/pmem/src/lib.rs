//! Simulated byte-addressable persistent memory (PM) with ADR semantics.
//!
//! This crate is the hardware substrate for the SpecPMT reproduction. It
//! models the pieces of an Intel Optane-style persistent memory platform that
//! persistent-transaction runtimes actually interact with:
//!
//! * a byte-addressable device with a **volatile** (CPU-visible) image and a
//!   **persisted** (crash-surviving) image,
//! * the x86 persistence primitives — [`PmemDevice::clwb`],
//!   [`PmemDevice::sfence`], and non-temporal stores — with 8-byte
//!   persistence atomicity (torn cache lines are possible, just like on real
//!   hardware),
//! * a write-pending-queue (WPQ) **timing model**: flushes are charged PM
//!   media latency, fences stall until outstanding flushes drain, and
//!   sequential flushes within one 256 B XPLine are cheaper than random ones
//!   (the asymmetry Section 4 of the paper relies on),
//! * **crash-image generation** ([`CrashControl::capture`]): unflushed stores
//!   survive only nondeterministically, which is what makes recovery-protocol
//!   testing meaningful,
//! * a persistent [`pool`] with a bump + size-class allocator standing in
//!   for `libvmmalloc`,
//! * the one on-PM [`frame`](mod@frame) codec (the `word_hash` seal, its one
//!   `verify`, the bounded field reader and writer, and `frame!`, which
//!   declares each persisted format once), and the flight recorder's
//!   format and sink ([`blackbox`]).
//!
//! # Quick example
//!
//! ```
//! use specpmt_pmem::{CrashControl, CrashPolicy, PmemConfig, PmemDevice};
//!
//! let mut dev = PmemDevice::new(PmemConfig::default().with_size(4096));
//! dev.write(0, &42u64.to_le_bytes());
//! dev.clwb(0);
//! dev.sfence();
//! let img = dev.capture(CrashPolicy::Random(1));
//! assert_eq!(img.read_u64(0), 42); // flushed + fenced => survives any crash
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod crash;
mod device;
mod error;
mod geometry;
mod rng;
mod stats;
mod wpq;

pub mod alloc;
pub mod blackbox;
pub mod frame;
pub mod pool;
pub mod shared;
pub mod sites;

pub use alloc::Reservation;
pub use blackbox::BlackBoxSink;
pub use config::{PmemConfig, MAX_POOL_BYTES};
pub use crash::{CrashControl, CrashImage, CrashPlan, CrashPolicy, CrashTrigger};
pub use device::{FenceReport, PmemDevice, TimingMode};
pub use error::PmemError;
pub use geometry::{
    coalesce_lines, line_of, line_start, lines_touching, word_of, CACHE_LINE, PERSIST_WORD, XPLINE,
};
pub use pool::{
    root_off, PmemPool, PoolHeader, BUMP_OFF, POOL_HEADER_SIZE, POOL_MAGIC, ROOT_SLOTS,
};
pub use rng::SplitMix64;
pub use shared::{DeviceHandle, SharedPmemDevice, SharedPmemPool};
pub use sites::Site;
pub use stats::PmemStats;
