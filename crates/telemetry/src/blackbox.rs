//! The flight recorder's event vocabulary: what an event records
//! ([`BbKind`], [`BbEvent`]) and its JSON form.
//!
//! The persisted format — the checksummed slot, the region header, the
//! ring decode and the `(ts, tid, seq)` merge — is `specpmt_pmem::blackbox`,
//! beside the sink that writes it (DESIGN.md §4.11); the reader is
//! `specpmt_core::forensics`.

use crate::json::JsonWriter;

/// What a flight-recorder event records. Operand meaning (`a`, `b`,
/// `aux`) is per-kind; `0` is reserved to mark a never-written slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BbKind {
    /// Transaction began. `a` = begin timestamp source (device-local ns).
    TxBegin = 1,
    /// Transaction commit *receipt*: staged only after the commit fence
    /// returned, so a persisted `TxCommit` implies the commit record was
    /// already durable (the forensic tail invariant). `a` = commit
    /// timestamp, `b` = crash-site index of the fence just completed
    /// (`specpmt_pmem::sites::ALL`), `aux` = 1 on the group path.
    TxCommit = 2,
    /// Transaction aborted. `a` = retry attempt number.
    TxAbort = 3,
    /// A fence/drain stalled beyond the configured threshold. `a` =
    /// stall ns, `b` = flushes the fence completed.
    FenceStall = 4,
    /// Group-commit batch sealed (recorded by the combiner after the
    /// batch fence). `a` = transactions in the batch, `b` = crash-site
    /// index of the batch fence.
    BatchSeal = 5,
    /// Reclamation spliced rebuilt chains in. `a` = records reclaimed,
    /// `b` = blocks freed.
    ReclaimSplice = 6,
    /// Checkpoint head spliced. `a` = checkpoint watermark timestamp,
    /// `b` = entries folded.
    CkptSplice = 7,
    /// KV governor shed a request. `a` = worst shard p99 ns, `b` =
    /// tenant id.
    GovShed = 8,
    /// KV governor quota decision (window exhausted). `a` = window ops,
    /// `b` = tenant id.
    GovQuota = 9,
    /// KV operation dispatched to a shard. `a` = key hash, `b` = shard,
    /// `aux` = op class ([`kv_op_name`]).
    KvOp = 10,
    /// KV operation completed. `a` = key hash, `b` = shard, `aux` = op
    /// class.
    KvOpDone = 11,
}

/// Number of [`BbKind`] variants (kinds are `1..=BB_KIND_COUNT`).
pub const BB_KIND_COUNT: usize = 11;

/// JSON/debug names for each [`BbKind`], index `kind - 1`.
pub const BB_KIND_NAMES: [&str; BB_KIND_COUNT] = [
    "tx_begin",
    "tx_commit",
    "tx_abort",
    "fence_stall",
    "batch_seal",
    "reclaim_splice",
    "ckpt_splice",
    "gov_shed",
    "gov_quota",
    "kv_op",
    "kv_op_done",
];

impl BbKind {
    /// Parses a raw kind byte (`None` for 0 or out-of-range values).
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Self::TxBegin),
            2 => Some(Self::TxCommit),
            3 => Some(Self::TxAbort),
            4 => Some(Self::FenceStall),
            5 => Some(Self::BatchSeal),
            6 => Some(Self::ReclaimSplice),
            7 => Some(Self::CkptSplice),
            8 => Some(Self::GovShed),
            9 => Some(Self::GovQuota),
            10 => Some(Self::KvOp),
            11 => Some(Self::KvOpDone),
            _ => None,
        }
    }

    /// Stable name for JSON and the human forensics table.
    pub fn name(self) -> &'static str {
        BB_KIND_NAMES[self as usize - 1]
    }
}

/// Names of the KV op-class codes carried in the `aux` byte of
/// [`BbKind::KvOp`] / [`BbKind::KvOpDone`] events, indexed by code (the
/// order of `specpmt-kv`'s `OpClass`).
const KV_OP_NAMES: [&str; 5] = ["get", "put", "delete", "cas", "scan"];

/// Names a KV op-class code from an event's `aux` byte.
pub fn kv_op_name(aux: u8) -> &'static str {
    KV_OP_NAMES.get(usize::from(aux)).copied().unwrap_or("unknown")
}

/// One flight-recorder event. `specpmt_pmem::blackbox` stores it as one
/// checksummed slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbEvent {
    /// Event timestamp (simulated device ns; commit ts for `TxCommit`).
    pub ts: u64,
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Per-ring monotone sequence number.
    pub seq: u32,
    /// Recording ring (thread id; the last ring is the daemon's).
    pub tid: u16,
    /// Event kind.
    pub kind: BbKind,
    /// Third (byte) operand.
    pub aux: u8,
}

impl BbEvent {
    /// Emits the event as an object field set into `w`'s open object.
    pub fn emit(&self, w: &mut JsonWriter) {
        w.field_u64("ts", self.ts);
        w.field_u64("tid", self.tid as u64);
        w.field_u64("seq", self.seq as u64);
        w.field_str("kind", self.kind.name());
        w.field_u64("a", self.a);
        w.field_u64("b", self.b);
        w.field_u64("aux", self.aux as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_align() {
        for k in 1..=BB_KIND_COUNT as u8 {
            let kind = BbKind::from_u8(k).expect("in range");
            assert_eq!(kind as u8, k);
            assert!(!kind.name().is_empty());
        }
        assert_eq!(BbKind::from_u8(0), None);
        assert_eq!(BbKind::from_u8(BB_KIND_COUNT as u8 + 1), None);
        assert_eq!(kv_op_name(3), "cas");
        assert_eq!(kv_op_name(200), "unknown");
    }
}
