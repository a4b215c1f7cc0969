//! `intruder`: network intrusion detection via packet reassembly.
//!
//! Mirrors STAMP `intruder`: fragmented packets arrive out of order; each
//! fragment insertion is a transaction updating the flow's fragment slot
//! and arrival bitmap (~20 B, Table 2). When a flow completes, the decoder
//! scans the reassembled payload for the attack signature (compute) and a
//! transaction records the verdict.
//!
//! The transaction bodies (`insert_fragment`, `record_verdict`) and
//! the one driver (`execute`) are written once against [`TxAccess`]: the
//! sequential [`run`] is that driver on one handle, the real-thread
//! [`crate::run_app_mt`] the same driver on a fleet. The per-stream bookkeeping
//! (`last_seq`, `bytes_rcvd`) is one pair per thread — the body takes the
//! pair's addresses as parameters — and the thread whose committed insert
//! completes a flow's bitmap performs the decode.

use specpmt_txn::{run_tx, TxAccess};

use crate::mt::{Committed, Fleet, Solo};
use crate::util::{setup_region, SplitMix64};
use crate::Scale;

/// Fragments per flow.
pub const FRAGS: usize = 4;
/// Payload bytes per fragment.
pub const FRAG_BYTES: usize = 8;

/// Configuration for the intruder workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntruderCfg {
    /// Number of flows; transactions ≈ flows × (FRAGS + 1).
    pub flows: usize,
    /// Fraction (0..=100) of flows carrying the attack signature.
    pub attack_percent: usize,
    /// RNG seed.
    pub seed: u64,
    /// CPU cost to scan one reassembled payload (ns).
    pub scan_compute_ns: u64,
}

impl IntruderCfg {
    /// Preset for a scale.
    pub fn scaled(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Self { flows: 20, attack_percent: 25, seed: 41, scan_compute_ns: 900 },
            Scale::Small => {
                Self { flows: 1600, attack_percent: 10, seed: 41, scan_compute_ns: 900 }
            }
        }
    }
}

const FLOW_BYTES: usize = FRAGS * FRAG_BYTES + 4 + 4; // frags | bitmap | verdict
const FULL_BITMAP: u32 = (1 << FRAGS) - 1;

struct Layout {
    flows: usize,
    attacks_found: usize, // u32 counter
    /// Per-thread stream metadata, `(last_seq, bytes_rcvd)` as two u32s
    /// per thread: thread 0's pair is the sequential run's, the others
    /// follow it, as one shared pair would serialize every insert.
    stream: usize,
}

fn layout(cfg: &IntruderCfg, base: usize) -> Layout {
    let attacks_found = base + cfg.flows * FLOW_BYTES;
    Layout { flows: base, attacks_found, stream: attacks_found + 4 }
}

const SIGNATURE: [u8; 4] = *b"EVIL";

/// One fragment event in the arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fragment {
    flow: u32,
    index: u32,
    data: [u8; FRAG_BYTES],
}

/// Generates flow payloads and the shuffled arrival stream.
fn gen_stream(cfg: &IntruderCfg) -> (Vec<[u8; FRAGS * FRAG_BYTES]>, Vec<Fragment>) {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut payloads = Vec::with_capacity(cfg.flows);
    for f in 0..cfg.flows {
        let mut p = [0u8; FRAGS * FRAG_BYTES];
        for b in p.iter_mut() {
            *b = (rng.next_u64() & 0x7F) as u8;
        }
        if f % 100 < cfg.attack_percent {
            let at = rng.below(p.len() - SIGNATURE.len());
            p[at..at + SIGNATURE.len()].copy_from_slice(&SIGNATURE);
        }
        payloads.push(p);
    }
    let mut stream = Vec::with_capacity(cfg.flows * FRAGS);
    for (f, p) in payloads.iter().enumerate() {
        for i in 0..FRAGS {
            let mut data = [0u8; FRAG_BYTES];
            data.copy_from_slice(&p[i * FRAG_BYTES..(i + 1) * FRAG_BYTES]);
            stream.push(Fragment { flow: f as u32, index: i as u32, data });
        }
    }
    rng.shuffle(&mut stream);
    (payloads, stream)
}

fn contains_signature(payload: &[u8]) -> bool {
    payload.windows(SIGNATURE.len()).any(|w| w == SIGNATURE)
}

/// Fragment-insertion transaction body: store the fragment, merge its bit
/// into the flow's arrival bitmap, and update the calling thread's stream
/// bookkeeping at `seq_addr`/`rcvd_addr`. Returns the post-merge bitmap —
/// the caller that observes it complete performs the decode.
///
/// Doom-safe: doomed reads return zeros and writes are dropped, and the
/// returned bitmap of a doomed attempt is discarded by [`run_tx`].
fn insert_fragment<A: TxAccess>(
    tx: &mut A,
    flow_base: usize,
    frag: &Fragment,
    seq_addr: usize,
    rcvd_addr: usize,
) -> u32 {
    let bitmap_a = flow_base + FRAGS * FRAG_BYTES;
    tx.write(flow_base + frag.index as usize * FRAG_BYTES, &frag.data);
    // Per-fragment bookkeeping: arrival bitmap, last-seen sequence, and
    // received-byte count (the queue/list metadata STAMP's version
    // maintains per packet).
    let bitmap = tx.read_u32(bitmap_a) | (1 << frag.index);
    tx.write_u32(bitmap_a, bitmap);
    tx.write_u32(seq_addr, frag.index);
    let rcvd = tx.read_u32(rcvd_addr);
    tx.write_u32(rcvd_addr, rcvd + FRAG_BYTES as u32);
    bitmap
}

/// Verdict transaction body: record the decode outcome for a completed
/// flow and bump the shared attack counter when the signature matched.
fn record_verdict<A: TxAccess>(tx: &mut A, flow_base: usize, attack: bool, attacks_found: usize) {
    tx.write_u32(flow_base + FRAGS * FRAG_BYTES + 4, if attack { 2 } else { 1 });
    if attack {
        let n = tx.read_u32(attacks_found);
        tx.write_u32(attacks_found, n + 1);
    }
}

/// Runs the workload sequentially on one handle; returns the verification
/// outcome.
pub fn run<A: TxAccess>(rt: &mut A, cfg: &IntruderCfg) -> Result<(), String> {
    execute(&mut Solo(rt), cfg).map(drop)
}

/// The one driver: fragments are partitioned round-robin; strict 2PL
/// serializes the bitmap read-modify-write per flow, so exactly one
/// committed insert observes the full bitmap and performs the decode.
///
/// Verification is order-independent: every flow's payload and verdict,
/// the attack count, the summed `bytes_rcvd` and each `last_seq`'s range.
pub(crate) fn execute<F: Fleet + ?Sized>(fleet: &mut F, cfg: &IntruderCfg) -> Committed {
    let threads = fleet.threads();
    let base = setup_region(fleet.first(), cfg.flows * FLOW_BYTES + 4 + threads * 8, 64);
    let lay = layout(cfg, base);
    let (payloads, stream) = gen_stream(cfg);

    let commits = fleet.each(|t, h| {
        let (seq_addr, rcvd_addr) = (lay.stream + t * 8, lay.stream + t * 8 + 4);
        let mut n = 0u64;
        for frag in stream.iter().skip(t).step_by(threads) {
            let flow_base = lay.flows + frag.flow as usize * FLOW_BYTES;
            // Flow-map lookup and list insertion (cache misses) happen
            // before the transactional update.
            h.compute(cfg.scan_compute_ns / 3);
            let bitmap = run_tx(h, |tx| insert_fragment(tx, flow_base, frag, seq_addr, rcvd_addr));
            n += 1;
            // Complete flow: read the reassembled payload (every fragment
            // is committed), scan it (compute), and record the verdict.
            if bitmap == FULL_BITMAP {
                h.compute(cfg.scan_compute_ns);
                let mut payload = [0u8; FRAGS * FRAG_BYTES];
                h.read(flow_base, &mut payload);
                let attack = contains_signature(&payload);
                run_tx(h, |tx| record_verdict(tx, flow_base, attack, lay.attacks_found));
                n += 1;
            }
        }
        Ok(n)
    })?;

    fleet.first().untimed(|rt| {
        let want_attacks = payloads.iter().filter(|p| contains_signature(&p[..])).count() as u32;
        let got = rt.read_u32(lay.attacks_found);
        if got != want_attacks {
            return Err(format!("attacks found {got} != {want_attacks}"));
        }
        for (f, p) in payloads.iter().enumerate() {
            let flow_base = lay.flows + f * FLOW_BYTES;
            let mut got_payload = [0u8; FRAGS * FRAG_BYTES];
            rt.read(flow_base, &mut got_payload);
            if &got_payload != p {
                return Err(format!("flow {f}: payload mismatch"));
            }
            let verdict = rt.read_u32(flow_base + FRAGS * FRAG_BYTES + 4);
            let want = if contains_signature(&p[..]) { 2 } else { 1 };
            if verdict != want {
                return Err(format!("flow {f}: verdict {verdict} != {want}"));
            }
        }
        let rcvd_sum: u32 = (0..threads).map(|t| rt.read_u32(lay.stream + t * 8 + 4)).sum();
        let want = (cfg.flows * FRAGS * FRAG_BYTES) as u32;
        if rcvd_sum != want {
            return Err(format!("summed bytes_rcvd {rcvd_sum} != {want}"));
        }
        for t in 0..threads {
            let seq = rt.read_u32(lay.stream + t * 8);
            if seq as usize >= FRAGS {
                return Err(format!("thread {t}: last_seq {seq} out of range"));
            }
        }
        Ok(commits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_covers_all_fragments_once() {
        let cfg = IntruderCfg::scaled(Scale::Tiny);
        let (_, stream) = gen_stream(&cfg);
        assert_eq!(stream.len(), cfg.flows * FRAGS);
        let mut seen = std::collections::HashSet::new();
        for f in &stream {
            assert!(seen.insert((f.flow, f.index)));
        }
    }

    #[test]
    fn attack_percentage_is_approximate() {
        let cfg = IntruderCfg { flows: 400, ..IntruderCfg::scaled(Scale::Tiny) };
        let (payloads, _) = gen_stream(&cfg);
        let attacks = payloads.iter().filter(|p| contains_signature(&p[..])).count();
        // Planted 25% plus possible random occurrences.
        assert!(attacks >= cfg.flows / 4, "attacks {attacks}");
    }

    #[test]
    fn signature_detection_works() {
        assert!(contains_signature(b"xxEVILxx"));
        assert!(!contains_signature(b"xxGOODxx"));
    }
}
