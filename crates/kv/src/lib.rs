//! specpmt-kv — a sharded, multi-tenant key-value front end over SpecPMT.
//!
//! The "millions of users" proof point for the reproduction: the paper
//! argues speculative logging makes persistent-memory transactions cheap
//! enough for a service hot path, and this crate puts that claim under a
//! service-shaped load. It layers:
//!
//! * **Sharding** ([`router`]) — N independent [`SpecSpmtShared`] pools,
//!   each with its own reclamation daemon, optional group commit, and
//!   strict-2PL lock table; a pure, reopen-stable hash routes
//!   `(tenant, key)` identities to shards.
//! * **A persistent table** ([`table`]) — fixed-capacity open addressing
//!   with tombstones, every mutation a transaction, so crash atomicity is
//!   inherited from the runtime rather than re-implemented.
//! * **A deterministic zipfian load generator** ([`zipf`]) — Gray et al.
//!   rank sampling, SplitMix64-seeded, configurable θ / key space /
//!   op mix; equal seeds replay bit-identical op streams.
//! * **Admission control and SLO backpressure** ([`admission`]) —
//!   per-tenant window quotas plus a governor that sheds load when the
//!   worst per-shard WPQ-drain or lock-wait p99 blows the latency SLO.
//! * **Telemetry** ([`service::KvStats`]) — per-op-class simulated and
//!   host latency histograms (p50/p99/p999) on top of the runtimes' own
//!   per-shard drain/lock histograms.
//!
//! ```
//! use specpmt_kv::{KvConfig, KvService};
//!
//! let svc = KvService::open(
//!     KvConfig::default().with_shards(2).with_workers(2).with_daemons(false),
//! );
//! let mut w = svc.worker(0);
//! w.put(0, 7, 42).unwrap();
//! assert_eq!(w.get(0, 7).unwrap(), Some(42));
//! svc.shutdown();
//! ```
//!
//! [`SpecSpmtShared`]: specpmt_core::SpecSpmtShared

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod router;
pub mod service;
pub mod table;
pub mod zipf;

pub use admission::{Admission, AdmissionConfig, AdmissionStats, KvError};
pub use router::ShardRouter;
pub use service::{KvConfig, KvService, KvShard, KvStats, KvWorker, OpResult};
pub use table::{CasOutcome, ShardTable, TableFull, SLOT_BYTES};
pub use zipf::{KvOp, LoadGen, OpClass, OpMix, WorkloadSpec, Zipfian, OP_CLASSES};
