//! The labeled crash-site inventory.
//!
//! Every ordering-sensitive point of the persistence protocols built on
//! this crate is labeled with a [`CrashControl::crash_point`] call naming
//! a [`Site`]. The inventory is declared once, below: each entry gives the
//! variant, its stable name, its subsystem and the invariant a crash there
//! stresses, and the enum, [`ALL`] and every accessor are generated from
//! that one list. A site is a value the compiler checks — a label that is
//! not in the inventory does not compile — which is what lets the
//! enumerator assert **zero unvisited sites**: a site that exists but is
//! never hit by the smoke workloads is a coverage bug, not a silent gap.
//!
//! A site's code (`site as u64`) is its position in [`ALL`]. The flight
//! recorder's `TxCommit` / `BatchSeal` events carry it in their `b`
//! operand, so existing entries keep their order. Adding a site is one
//! entry appended to the end of the list below, plus the
//! `crash_point(Site::…)` call that executes it.
//!
//! Naming convention: `<runtime>/<phase>/<step>` — `seq/*` is the
//! single-threaded `SpecSpmt` runtime, `mt/*` the shared `SpecSpmtShared`
//! runtime (`mt/group/*` its epoch/group-commit path), and `layout/*` the
//! persisted layout-descriptor head table both runtimes splice through.
//!
//! [`CrashControl::crash_point`]: crate::CrashControl::crash_point

use std::fmt;

macro_rules! inventory {
    ($($variant:ident = $name:literal, $subsystem:literal, $invariant:literal;)+) => {
        /// One labeled crash site. Each variant's doc is the ordering
        /// invariant a crash at that point must not break.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Site {
            $(#[doc = $invariant] $variant,)+
        }

        /// The complete inventory, in code order. The enumerator's
        /// coverage report asserts every entry reachable by its smoke
        /// workloads was visited.
        pub const ALL: &[Site] = &[$(Site::$variant),+];

        impl Site {
            /// Stable site name (`crashenum --target` takes `name:hit`).
            pub const fn name(self) -> &'static str {
                match self { $(Site::$variant => $name),+ }
            }

            /// Subsystem bucket for coverage reporting.
            pub const fn subsystem(self) -> &'static str {
                match self { $(Site::$variant => $subsystem),+ }
            }
        }
    };
}

inventory! {
    // --- sequential SpecSpmt commit path -------------------------------
    SeqCommitSeal = "seq/commit/seal", "seq-commit",
        "header sealed in volatile buffers only; the record must be invisible to recovery";
    SeqCommitAppend = "seq/commit/append", "seq-commit",
        "header + terminator stored, unflushed; the tx is old-or-new, never a torn visible commit";
    SeqCommitFlush = "seq/commit/flush", "seq-commit",
        "log flushes issued, commit fence pending; the record may vanish but never half-apply";
    SeqCommitFence = "seq/commit/fence", "seq-commit",
        "commit fence completed; recovery must replay the record exactly once";
    // --- sequential reclamation splice ---------------------------------
    SeqReclaimPreFence = "seq/reclaim/pre_fence", "seq-reclaim",
        "live-record rewrites staged, first fence pending; the old area is still authoritative";
    SeqReclaimFence = "seq/reclaim/fence", "seq-reclaim",
        "rewrites durable, head not yet swapped; both copies valid, the old head wins";
    SeqReclaimSplice = "seq/reclaim/splice", "seq-reclaim",
        "head swapped; the new area is authoritative and replays exactly once";
    // --- shared SpecSpmtShared per-commit path -------------------------
    MtCommitAppend = "mt/commit/append", "mt-commit",
        "record written under the area lock, unflushed; old-or-new per thread chain";
    MtCommitFlush = "mt/commit/flush", "mt-commit",
        "solo commit flushes issued, fence pending; the record may vanish but never half-apply";
    MtCommitFence = "mt/commit/fence", "mt-commit",
        "solo commit fence completed; the receipt is durable exactly once";
    // --- shared group-commit (epoch batching) path ---------------------
    MtGroupStage = "mt/group/stage", "mt-group",
        "batch staged with the combiner, not drained; no receipt for the batch may exist yet";
    MtGroupPreFence = "mt/group/pre_fence", "mt-group",
        "combiner about to drain the batch; every receipt in it must still be unpublished";
    MtGroupBatchFence = "mt/group/batch_fence", "mt-group",
        "batch drained by one flush+fence; every receipt in the batch is durable";
    // --- shared reclamation splice --------------------------------------
    MtReclaimPreFence = "mt/reclaim/pre_fence", "mt-reclaim",
        "compacted rewrites staged, first fence pending; the old area is still authoritative";
    MtReclaimFence = "mt/reclaim/fence", "mt-reclaim",
        "rewrites durable, head not yet swapped; both copies valid, the old head wins";
    MtReclaimSplice = "mt/reclaim/splice", "mt-reclaim",
        "head swapped under the area lock; the new area is authoritative exactly once";
    // --- layout-descriptor head-table writes ----------------------------
    LayoutHeadWrite = "layout/head_write", "layout",
        "head slot stored, persist pending; recovery may still see the old head value";
    LayoutHeadPersist = "layout/head_persist", "layout",
        "head slot persisted; the swap is durable and must not replay the retired area";
    // --- checkpoint write/persist/splice ---------------------------------
    CkptWrite = "ckpt/write", "ckpt",
        "checkpoint record staged, flush pending; the old checkpoint head is still authoritative";
    CkptPersist = "ckpt/persist", "ckpt",
        "checkpoint chain durable, head not yet swapped; recovery must keep using the old one";
    CkptSplice = "ckpt/splice", "ckpt",
        "checkpoint head swapped and persisted; replay below the watermark must match the record";
    // --- flight-recorder (black box) rings -------------------------------
    BboxWrite = "bbox/write", "bbox",
        "event slot stored, unflushed; a torn slot is skipped by checksum, never failing recovery";
    BboxPersist = "bbox/persist", "bbox",
        "a fence carrying black-box lines retired; the events it covered are durable";
}

/// Number of sites in the inventory.
pub const COUNT: usize = ALL.len();

impl Site {
    /// The site whose code is `code` — the decode of a flight-recorder
    /// operand. `None` for any value outside the inventory: the operand
    /// comes from a crash image and may be garbage.
    pub fn from_index(code: u64) -> Option<Site> {
        usize::try_from(code).ok().and_then(|i| ALL.get(i)).copied()
    }

    /// The site named `name`; [`crate::CrashPlan::parse_target`] is its
    /// one caller.
    pub fn from_name(name: &str) -> Option<Site> {
        ALL.iter().copied().find(|s| s.name() == name)
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashPlan, CrashTrigger};

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, s) in ALL.iter().enumerate() {
            assert!(
                s.name().split('/').count() >= 2 && !s.name().contains(':'),
                "malformed site name {s}"
            );
            assert!(!s.subsystem().is_empty());
            for other in &ALL[i + 1..] {
                assert_ne!(s.name(), other.name(), "duplicate site name");
            }
        }
    }

    #[test]
    fn every_site_round_trips_through_code_name_and_target() {
        for (i, &s) in ALL.iter().enumerate() {
            assert_eq!(s as usize, i, "{s}: code is not its position");
            assert_eq!(Site::from_index(i as u64), Some(s));
            assert_eq!(Site::from_name(s.name()), Some(s));
            let target = format!("{}:1", s.name());
            let plan = CrashPlan::parse_target(&target).unwrap();
            assert_eq!(plan.trigger(), CrashTrigger::AtSite { site: s, nth_hit: 1 });
            assert_eq!(plan.target(), Some(target));
        }
        assert_eq!(Site::from_name("no/such/site"), None);
    }

    #[test]
    fn an_out_of_range_recorder_operand_decodes_to_unknown() {
        let render = |code| Site::from_index(code).map_or("unknown", Site::name);
        assert_eq!(render(Site::BboxPersist as u64), "bbox/persist");
        for code in [COUNT as u64, 255, 1 << 32, u64::MAX] {
            assert_eq!(render(code), "unknown", "operand {code:#x}");
        }
    }
}
