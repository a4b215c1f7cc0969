//! Standalone probes: one pure function or one device-level commit, on
//! the size the workload actually feeds it, timed the same way as the
//! workloads (fast decile of many equal batches).

use std::hint::black_box;
use std::time::Instant;

use specpmt_core::record::Cursor;
use specpmt_core::{fnv1a64, WriteSet};
use specpmt_pmem::{PmemConfig, PmemDevice, SharedPmemDevice, CACHE_LINE};

use crate::estimator::{quantile, FAST_Q};

const BATCHES: usize = 40;

/// Fast-decile nanoseconds of one `f()` call, measured over [`BATCHES`]
/// batches of `per_batch` calls.
fn fast_ns(per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<u64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    quantile(&ns, FAST_Q) / per_batch as f64
}

/// Host ns to checksum one KiB, hashing `bytes`-sized payloads.
pub fn checksum_ns_per_kib(bytes: usize) -> f64 {
    let payload: Vec<u8> = (0..bytes.max(8)).map(|i| i as u8).collect();
    let per_call = fast_ns(2_000, || {
        black_box(fnv1a64(black_box(&payload)));
    });
    per_call * 1024.0 / payload.len() as f64
}

/// Host ns to stage one write-set entry, in transactions of `entries`
/// eight-byte writes.
pub fn writeset_stage_ns_per_entry(entries: usize) -> f64 {
    let entries = entries.max(1);
    let mut ws = WriteSet::new();
    let per_tx = fast_ns(500, || {
        ws.begin();
        for i in 0..entries {
            let cursor = Cursor { block: 4096, pos: 64 + i * 32 };
            black_box(ws.stage(0x1_0000 + i * 64, &(i as u64).to_le_bytes(), cursor));
        }
        black_box(ws.checksum(7));
    });
    per_tx / entries as f64
}

/// One device-level commit: store `lines` cache lines of log, flush them
/// as one vectored plan, fence.
const PROBE_POOL: usize = 4 << 20;

fn log_window(lines: usize, i: &mut usize) -> (usize, usize) {
    let len = lines.max(1) * CACHE_LINE;
    let slots = PROBE_POOL / len;
    *i = (*i + 1) % slots;
    (*i * len, len)
}

/// Host ns of one commit's device work on the exclusive [`PmemDevice`].
pub fn commit_probe_ns(lines: usize) -> f64 {
    let mut dev = PmemDevice::new(PmemConfig::new(PROBE_POOL));
    let buf = vec![0xA5u8; lines.max(1) * CACHE_LINE];
    let mut i = 0;
    fast_ns(2_000, || {
        let (addr, len) = log_window(lines, &mut i);
        dev.write(addr, &buf);
        dev.clwb_ranges(&[(addr, len)]);
        black_box(dev.sfence());
    })
}

/// The same commit through a [`SharedPmemDevice`] handle.
pub fn shared_commit_probe_ns(lines: usize) -> f64 {
    let dev = SharedPmemDevice::new(PmemConfig::new(PROBE_POOL));
    let h = dev.handle();
    let buf = vec![0xA5u8; lines.max(1) * CACHE_LINE];
    let mut i = 0;
    fast_ns(2_000, || {
        let (addr, len) = log_window(lines, &mut i);
        h.write(addr, &buf);
        h.clwb_ranges(&[(addr, len)]);
        black_box(h.sfence());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_finite_costs() {
        for v in [
            checksum_ns_per_kib(100),
            writeset_stage_ns_per_entry(4),
            commit_probe_ns(2),
            shared_commit_probe_ns(2),
        ] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
    }

    #[test]
    fn log_window_stays_inside_the_probe_pool() {
        let mut i = 0;
        for _ in 0..100_000 {
            let (addr, len) = log_window(3, &mut i);
            assert!(addr + len <= PROBE_POOL);
        }
    }
}
