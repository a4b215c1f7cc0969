//! The labeled crash-site inventory.
//!
//! Every ordering-sensitive point of the persistence protocols built on
//! this crate is labeled with a [`CrashControl::crash_point`] call naming
//! an entry of [`ALL`]. Keeping the inventory `const` and in one place is
//! what lets the enumerator assert **zero unvisited labels**: a site that
//! exists but is never hit by the smoke workloads is a coverage bug, not a
//! silent gap.
//!
//! Naming convention: `<runtime>/<phase>/<step>` — `seq/*` is the
//! single-threaded `SpecSpmt` runtime, `mt/*` the shared `SpecSpmtShared`
//! runtime (`mt/group/*` its epoch/group-commit path), and `layout/*` the
//! persisted layout-descriptor head table both runtimes splice through.
//!
//! [`CrashControl::crash_point`]: crate::CrashControl::crash_point

/// Name of the flight-recorder slot-store site (see [`ALL`]).
pub const BBOX_WRITE: &str = "bbox/write";

/// Name of the flight-recorder fence-carried-events site (see [`ALL`]).
pub const BBOX_PERSIST: &str = "bbox/persist";

/// One labeled crash site: its name, owning subsystem, and the ordering
/// invariant a crash at this point stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSite {
    /// Stable site name (`crashenum --target` takes `name:hit`).
    pub name: &'static str,
    /// Subsystem bucket for coverage reporting.
    pub subsystem: &'static str,
    /// The ordering invariant a crash here must not break.
    pub invariant: &'static str,
}

const fn site(name: &'static str, subsystem: &'static str, invariant: &'static str) -> CrashSite {
    CrashSite { name, subsystem, invariant }
}

/// The complete labeled-site inventory. The enumerator's coverage report
/// asserts every entry reachable by its smoke workloads was visited.
pub const ALL: &[CrashSite] = &[
    // --- sequential SpecSpmt commit path -------------------------------
    site(
        "seq/commit/seal",
        "seq-commit",
        "header sealed in volatile buffers only; the record must be invisible to recovery",
    ),
    site(
        "seq/commit/append",
        "seq-commit",
        "header + terminator stored, unflushed; the tx is old-or-new, never a torn visible commit",
    ),
    site(
        "seq/commit/flush",
        "seq-commit",
        "log flushes issued, commit fence pending; the record may vanish but never half-apply",
    ),
    site(
        "seq/commit/fence",
        "seq-commit",
        "commit fence completed; recovery must replay the record exactly once",
    ),
    // --- sequential reclamation splice ---------------------------------
    site(
        "seq/reclaim/pre_fence",
        "seq-reclaim",
        "live-record rewrites staged, first fence pending; the old area is still authoritative",
    ),
    site(
        "seq/reclaim/fence",
        "seq-reclaim",
        "rewrites durable, head not yet swapped; both copies valid, the old head wins",
    ),
    site(
        "seq/reclaim/splice",
        "seq-reclaim",
        "head swapped; the new area is authoritative and replays exactly once",
    ),
    // --- shared SpecSpmtShared per-commit path -------------------------
    site(
        "mt/commit/append",
        "mt-commit",
        "record written under the area lock, unflushed; old-or-new per thread chain",
    ),
    site(
        "mt/commit/flush",
        "mt-commit",
        "solo commit flushes issued, fence pending; the record may vanish but never half-apply",
    ),
    site(
        "mt/commit/fence",
        "mt-commit",
        "solo commit fence completed; the receipt is durable exactly once",
    ),
    // --- shared group-commit (epoch batching) path ---------------------
    site(
        "mt/group/stage",
        "mt-group",
        "batch staged with the combiner, not drained; no receipt for the batch may exist yet",
    ),
    site(
        "mt/group/pre_fence",
        "mt-group",
        "combiner about to drain the batch; every receipt in it must still be unpublished",
    ),
    site(
        "mt/group/batch_fence",
        "mt-group",
        "batch drained by the fused flush+fence; every receipt in the batch is durable",
    ),
    // --- shared reclamation splice --------------------------------------
    site(
        "mt/reclaim/pre_fence",
        "mt-reclaim",
        "compacted rewrites staged, first fence pending; the old area is still authoritative",
    ),
    site(
        "mt/reclaim/fence",
        "mt-reclaim",
        "rewrites durable, head not yet swapped; both copies valid, the old head wins",
    ),
    site(
        "mt/reclaim/splice",
        "mt-reclaim",
        "head swapped under the area lock; the new area is authoritative exactly once",
    ),
    // --- layout-descriptor head-table writes ----------------------------
    site(
        "layout/head_write",
        "layout",
        "head slot stored, persist pending; recovery may still see the old head value",
    ),
    site(
        "layout/head_persist",
        "layout",
        "head slot persisted; the swap is durable and must not replay the retired area",
    ),
    // --- checkpoint write/persist/splice ---------------------------------
    site(
        "ckpt/write",
        "ckpt",
        "checkpoint record staged, flush pending; the old checkpoint head is still authoritative",
    ),
    site(
        "ckpt/persist",
        "ckpt",
        "checkpoint chain durable, head not yet swapped; recovery must keep using the old one",
    ),
    site(
        "ckpt/splice",
        "ckpt",
        "checkpoint head swapped and persisted; replay below the watermark must match the record",
    ),
    // --- flight-recorder (black box) rings -------------------------------
    site(
        BBOX_WRITE,
        "bbox",
        "event slot stored, unflushed; a torn slot is skipped by checksum, never failing recovery",
    ),
    site(
        BBOX_PERSIST,
        "bbox",
        "a fence carrying black-box lines retired; the events it covered are durable",
    ),
];

/// Looks up a site by name, returning the canonical `const` entry (and
/// hence a `&'static str` name usable in a [`crate::CrashPlan`]).
pub fn lookup(name: &str) -> Option<&'static CrashSite> {
    ALL.iter().find(|s| s.name == name)
}

/// Position of a site in [`ALL`]. The stable index is what flight-recorder
/// `TxCommit`/`BatchSeal` events carry in their `b` operand to name the
/// fence site they completed behind; [`name_of`] is the reverse mapping.
pub fn index_of(name: &str) -> Option<usize> {
    ALL.iter().position(|s| s.name == name)
}

/// Name of the site at `index` in [`ALL`] (`None` when out of range).
/// Forensics uses this to render the site index a black-box event carries.
pub fn name_of(index: usize) -> Option<&'static str> {
    ALL.get(index).map(|s| s.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, s) in ALL.iter().enumerate() {
            assert!(
                s.name.split('/').count() >= 2 && !s.name.contains(':'),
                "malformed site name {}",
                s.name
            );
            assert!(!s.invariant.is_empty());
            for other in &ALL[i + 1..] {
                assert_ne!(s.name, other.name, "duplicate site name");
            }
        }
    }

    #[test]
    fn lookup_finds_every_site() {
        for s in ALL {
            assert_eq!(lookup(s.name).unwrap().name, s.name);
        }
        assert!(lookup("no/such/site").is_none());
    }

    #[test]
    fn index_and_name_round_trip() {
        for (i, s) in ALL.iter().enumerate() {
            assert_eq!(index_of(s.name), Some(i));
            assert_eq!(name_of(i), Some(s.name));
        }
        assert_eq!(index_of("no/such/site"), None);
        assert_eq!(name_of(ALL.len()), None);
        assert!(lookup(BBOX_WRITE).is_some() && lookup(BBOX_PERSIST).is_some());
    }
}
