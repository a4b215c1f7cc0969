//! Exact simulated-cost goldens for the hardware transaction path.
//!
//! `tests/telemetry_accounting.rs` and `tests/recovery.rs` pin the software
//! runtimes' simulated cost to the nanosecond; this file does the same for
//! `specpmt-hwtx`. A fixed script runs on [`HwSpecPmt`] (default, `-DP`,
//! and a small-epoch configuration that rotates and reclaims epochs around
//! a hot transaction larger than the L1) and on [`Ede`], and everything the
//! device, the core model and the runtime counted is compared with
//! constants: the clock, the persist traffic, the log accounting, the
//! cache/TLB counters, and the FNV-1a of the recovered `AllLost` image
//! (taken with a transaction in flight, so the undo region's bytes count
//! too). No host clock is read anywhere, so the values are the same on
//! every host. A change to `hwtx` or `hwsim` that claims to be host-time
//! only must leave this file passing unedited; one that moves a simulated
//! cost edits the constant and says why. Each case re-runs on a dearer
//! device and must differ, so a golden cannot pass by observing nothing.

use specpmt::core::fnv1a64;
use specpmt::hwsim::HwStats;
use specpmt::hwtx::{hw_pmem_config, Ede, EdeConfig, HwSpecConfig, HwSpecPmt};
use specpmt::pmem::{CrashControl, CrashPolicy, PmemConfig, PmemDevice, PmemPool, TimingMode};
use specpmt::txn::{Recover, TxAccess, TxRuntime};

const POOL_BYTES: usize = 16 << 20;
const PAGE: usize = 4096;
const LINE: usize = 64;
/// Pages of transactional data the scripts work on.
const PAGES: usize = 48;

/// What one scripted run observed. Every field is simulated or counted.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    now_ns: u64,
    clwb_count: u64,
    sfence_count: u64,
    lines_persisted: u64,
    bytes_stored: u64,
    fence_stall_ns: u64,
    log_bytes: u64,
    log_peak_bytes: u64,
    records_reclaimed: u64,
    hw: HwStats,
    /// FNV-1a of the `AllLost` image after recovery.
    image_fnv: u64,
}

/// A page-aligned, already-durable data region (set up with timing off, so
/// the clock starts at the first transaction).
fn region<R: TxRuntime>(rt: &mut R) -> usize {
    let base = rt.pool_mut().alloc_direct(PAGES * PAGE, PAGE).unwrap();
    let dev = rt.pool_mut().device_mut();
    dev.set_timing(TimingMode::Off);
    dev.persist_range(base, PAGES * PAGE);
    dev.set_timing(TimingMode::On);
    base
}

fn observe<R: TxRuntime + Recover>(rt: &R, hw: &HwStats) -> Observed {
    let dev = rt.pool().device();
    let pm = dev.stats();
    let tx = rt.tx_stats();
    let mut image = dev.capture(CrashPolicy::AllLost);
    R::recover(&mut image);
    Observed {
        now_ns: dev.now_ns(),
        clwb_count: pm.clwb_count,
        sfence_count: pm.sfence_count,
        lines_persisted: pm.lines_persisted,
        bytes_stored: pm.bytes_stored,
        fence_stall_ns: pm.fence_stall_ns,
        log_bytes: tx.log_bytes,
        log_peak_bytes: tx.log_peak_bytes,
        records_reclaimed: tx.records_reclaimed,
        hw: hw.clone(),
        image_fnv: fnv1a64(image.as_bytes()),
    }
}

/// The script every case runs, in five movements: scattered cold
/// transactions (word stores, line-straddling stores, loads); four pages
/// hammered until the TLB counters promote them, then multi-line hot
/// transactions; transactions mixing a hot page, a cold page and a page
/// promoted by the transaction itself; one hot transaction of `big_pages`
/// whole pages (ten of them are 640 lines in a 512-line L1, so LogBit
/// lines are evicted and logged mid-transaction); and transactions that
/// promote again whatever pages an epoch reclaim re-cooled. It ends inside
/// an open transaction that has written two lines, which recovery must
/// revoke.
fn script<A: TxAccess>(a: &mut A, base: usize, big_pages: usize) {
    let at = |page: usize, line: usize| base + (page % PAGES) * PAGE + (line % 64) * LINE;
    let mut buf = [0u8; 24];

    for t in 0..40usize {
        a.begin();
        a.write_u64(at(t * 7, t * 3), t as u64);
        a.write_u64(at(t * 7, t * 3) + 8, !(t as u64));
        a.write(at(t * 5 + 1, t) + 40, &[t as u8; 100]);
        a.read(at(t * 11, t * 13) + 16, &mut buf);
        a.write_u64(at(t * 3 + 2, 63) + 56, u64::from_le_bytes(buf[..8].try_into().unwrap()) + 1);
        a.commit();
    }

    for page in 0..4usize {
        for v in 0..10u64 {
            a.begin();
            a.write_u64(at(page, v as usize), v);
            a.commit();
        }
    }
    for t in 0..24usize {
        a.begin();
        a.write(at(t % 4, t * 5) + 8, &[0xA0 | t as u8; 200]);
        a.write_u64(at((t + 1) % 4, t), t as u64);
        a.read(at(t % 4, t * 5), &mut buf);
        a.commit();
    }

    for t in 0..16usize {
        let fresh = 8 + t;
        a.begin();
        a.write_u64(at(t % 4, t + 9), 0xB000 + t as u64);
        a.write(at(30 + t, 7) + 60, &[t as u8; 8]);
        for v in 0..8u64 {
            a.write_u64(at(fresh, 2 * v as usize), v);
        }
        a.commit();
    }

    a.begin();
    for page in 8..8 + big_pages {
        for line in 0..64usize {
            a.write(at(page, line), &[(page + line) as u8; LINE]);
        }
    }
    a.commit();

    for t in 0..12usize {
        a.begin();
        for v in 0..3usize {
            a.write_u64(at(8 + t % 4, 3 * t + v), 0xC000 + t as u64);
        }
        a.write_u64(at(40 + t % 8, t), 0xD000 + t as u64);
        a.commit();
    }

    a.begin();
    a.write_u64(at(0, 0), 0xDEAD);
    a.write_u64(at(47, 1), 0xBEEF);
}

fn pool(pm: PmemConfig) -> PmemPool {
    PmemPool::create(PmemDevice::new(pm))
}

fn run_spec(pm: PmemConfig, cfg: HwSpecConfig, big_pages: usize) -> Observed {
    let mut rt = HwSpecPmt::new(pool(pm), cfg);
    let base = region(&mut rt);
    script(&mut rt, base, big_pages);
    observe(&rt, rt.hw_stats())
}

fn run_ede(pm: PmemConfig) -> Observed {
    let mut rt = Ede::new(pool(pm), EdeConfig::default());
    let base = region(&mut rt);
    script(&mut rt, base, 2);
    observe(&rt, rt.hw_stats())
}

/// Epochs small enough that the script's promotions rotate them, its big
/// transaction overflows one, and the live-epoch bound forces reclamation
/// (`clearepoch`, re-cooled pages, re-promotion).
fn small_epochs() -> HwSpecConfig {
    HwSpecConfig {
        epoch_max_bytes: 48 * 1024,
        epoch_max_pages: 12,
        max_live_epochs: 2,
        ..HwSpecConfig::default()
    }
}

/// The three SpecHPMT rows were last re-taken when the hardware pools
/// moved onto the layout descriptor: `now_ns`, `fence_stall_ns` and
/// `image_fnv` only (+382, +880 and +4,342 ns of fence stall; every
/// counter kept). Two causes, both placement: the 128-byte descriptor
/// behind the undo region shifts the heap, and each epoch-head
/// publication now flushes a descriptor line there instead of a root-slot
/// line in the pool header, so its fence waits on another channel's queue
/// — the small-epoch row publishes most heads and moves most. The EDE row
/// roots no chain and did not move.
#[test]
fn hw_sim_cost_matches_goldens() {
    type Routine<'a> = &'a dyn Fn(PmemConfig) -> Observed;
    let cases: [(&str, Routine, Observed); 4] = [
        (
            "SpecHPMT",
            &|pm| run_spec(pm, HwSpecConfig::default(), 2),
            Observed {
                now_ns: 645_143,
                clwb_count: 997,
                sfence_count: 138,
                lines_persisted: 3_057,
                bytes_stored: 166_644,
                fence_stall_ns: 488_963,
                log_bytes: 143_680,
                log_peak_bytes: 118_784,
                records_reclaimed: 0,
                hw: HwStats {
                    l1_hits: 149,
                    l2_hits: 61,
                    mem_accesses: 608,
                    l1_dirty_evictions: 96,
                    tlb_l1_hits: 538,
                    tlb_l2_hits: 0,
                    tlb_misses: 48,
                    pages_made_hot: 20,
                    bulk_copies: 20,
                    commit_scans: 133,
                    epochs_cleared: 0,
                },
                image_fnv: 16_463_317_002_843_108_738,
            },
        ),
        (
            "SpecHPMT-DP",
            &|pm| run_spec(pm, HwSpecConfig::default().dp(), 2),
            Observed {
                now_ns: 769_502,
                clwb_count: 1_419,
                sfence_count: 138,
                lines_persisted: 3_479,
                bytes_stored: 166_644,
                fence_stall_ns: 592_222,
                log_bytes: 143_680,
                log_peak_bytes: 118_784,
                records_reclaimed: 0,
                hw: HwStats {
                    l1_hits: 149,
                    l2_hits: 61,
                    mem_accesses: 608,
                    l1_dirty_evictions: 0,
                    tlb_l1_hits: 538,
                    tlb_l2_hits: 0,
                    tlb_misses: 48,
                    pages_made_hot: 20,
                    bulk_copies: 20,
                    commit_scans: 133,
                    epochs_cleared: 0,
                },
                image_fnv: 16_463_317_002_843_108_738,
            },
        ),
        (
            "SpecHPMT, small epochs, 40 KB hot transaction",
            &|pm| run_spec(pm, small_epochs(), 10),
            Observed {
                now_ns: 1_081_897,
                clwb_count: 2_897,
                sfence_count: 149,
                lines_persisted: 5_758,
                bytes_stored: 272_144,
                fence_stall_ns: 767_876,
                log_bytes: 215_256,
                log_peak_bytes: 135_168,
                records_reclaimed: 91,
                hw: HwStats {
                    l1_hits: 156,
                    l2_hits: 162,
                    mem_accesses: 1012,
                    l1_dirty_evictions: 268,
                    tlb_l1_hits: 1050,
                    tlb_l2_hits: 0,
                    tlb_misses: 48,
                    pages_made_hot: 25,
                    bulk_copies: 25,
                    commit_scans: 133,
                    epochs_cleared: 2,
                },
                image_fnv: 17_131_375_120_016_847_692,
            },
        ),
        (
            "EDE",
            &run_ede,
            Observed {
                now_ns: 504_866,
                clwb_count: 846,
                sfence_count: 134,
                lines_persisted: 2_462,
                bytes_stored: 86_372,
                fence_stall_ns: 365_572,
                log_bytes: 62_832,
                log_peak_bytes: 11_264,
                records_reclaimed: 0,
                hw: HwStats {
                    l1_hits: 149,
                    l2_hits: 61,
                    mem_accesses: 608,
                    l1_dirty_evictions: 0,
                    tlb_l1_hits: 538,
                    tlb_l2_hits: 0,
                    tlb_misses: 48,
                    pages_made_hot: 0,
                    bulk_copies: 0,
                    commit_scans: 0,
                    epochs_cleared: 0,
                },
                image_fnv: 13_176_755_342_714_813_753,
            },
        ),
    ];
    let pm = hw_pmem_config(POOL_BYTES);
    let dearer = PmemConfig { line_write_ns: pm.line_write_ns + 1, ..pm.clone() };
    for (name, run, golden) in cases {
        assert_eq!(run(pm.clone()), golden, "{name}");
        assert_ne!(run(dearer.clone()), golden, "{name}, dearer line write");
    }
}
