//! The flight recorder's event vocabulary: what an event records
//! ([`BbKind`], [`BbEvent`]) and its JSON form.
//!
//! The persisted format — the checksummed slot, the region header, the
//! ring decode and the `(ts, tid, seq)` merge — is `specpmt_pmem::blackbox`,
//! beside the sink that writes it (DESIGN.md §4.11); the reader is
//! `specpmt_core::forensics`.

use crate::json::JsonWriter;

macro_rules! kinds {
    ($($(#[doc = $doc:literal])+ $variant:ident = $code:literal, $name:literal;)+) => {
        /// What a flight-recorder event records. Operand meaning (`a`, `b`,
        /// `aux`) is per-kind; `0` is reserved to mark a never-written slot.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum BbKind {
            $($(#[doc = $doc])+ $variant = $code,)+
        }

        impl BbKind {
            /// Parses a raw kind byte (`None` for 0 or out-of-range values).
            pub fn from_u8(v: u8) -> Option<Self> {
                match v {
                    $($code => Some(Self::$variant),)+
                    _ => None,
                }
            }

            /// Stable name for JSON and the human forensics table.
            pub fn name(self) -> &'static str {
                match self {
                    $(Self::$variant => $name,)+
                }
            }
        }
    };
}

kinds! {
    /// Transaction began. `a` = begin timestamp source (device-local ns).
    TxBegin = 1, "tx_begin";
    /// Transaction commit *receipt*: staged only after the commit fence
    /// returned, so a persisted `TxCommit` implies the commit record was
    /// already durable (the forensic tail invariant). `a` = commit
    /// timestamp, `b` = code of the crash site whose fence just completed
    /// (`specpmt_pmem::Site`), `aux` = 1 on the group path.
    TxCommit = 2, "tx_commit";
    /// Transaction aborted. `a` = retry attempt number.
    TxAbort = 3, "tx_abort";
    /// A fence/drain stalled beyond the configured threshold. `a` =
    /// stall ns, `b` = flushes the fence completed.
    FenceStall = 4, "fence_stall";
    /// Group-commit batch sealed (recorded by the combiner after the
    /// batch fence). `a` = transactions in the batch, `b` = code of the
    /// batch-fence crash site.
    BatchSeal = 5, "batch_seal";
    /// Reclamation spliced rebuilt chains in. `a` = records reclaimed,
    /// `b` = blocks freed.
    ReclaimSplice = 6, "reclaim_splice";
    /// Checkpoint head spliced. `a` = checkpoint watermark timestamp,
    /// `b` = entries folded.
    CkptSplice = 7, "ckpt_splice";
    /// KV governor shed a request. `a` = worst shard p99 ns, `b` =
    /// tenant id.
    GovShed = 8, "gov_shed";
    /// KV governor quota decision (window exhausted). `a` = window ops,
    /// `b` = tenant id.
    GovQuota = 9, "gov_quota";
    /// KV operation dispatched to a shard. `a` = key hash, `b` = shard,
    /// `aux` = op class ([`kv_op_name`]).
    KvOp = 10, "kv_op";
    /// KV operation completed. `a` = key hash, `b` = shard, `aux` = op
    /// class.
    KvOpDone = 11, "kv_op_done";
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
        // Every byte that parses, in code order: the one list's kinds.
        let kinds: Vec<(u8, BbKind)> =
            (0..=u8::MAX).filter_map(|v| Some((v, BbKind::from_u8(v)?))).collect();
        assert_eq!(kinds.len(), 11);
        for (i, &(code, kind)) in kinds.iter().enumerate() {
            assert_eq!(usize::from(code), i + 1, "codes are 1..=len, 0 never parses");
            assert_eq!(kind as u8, code);
            assert!(!kind.name().is_empty());
            for (_, other) in &kinds[i + 1..] {
                assert_ne!(kind.name(), other.name(), "duplicate kind name");
            }
        }
        assert_eq!(kv_op_name(3), "cas");
        assert_eq!(kv_op_name(200), "unknown");
    }
}
