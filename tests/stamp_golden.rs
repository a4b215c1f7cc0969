//! Exact goldens for the nine STAMP applications at `Scale::Small`.
//!
//! Each application runs on a fresh default [`SpecSpmt`] and a fresh
//! default [`HwSpecPmt`], and what its timed phase did is compared with
//! constants: committed transactions, updates, foreground simulated ns,
//! PM media write bytes and the log's high-water mark. No host clock is
//! read, so the values are the same on every host. The drivers' volatile
//! work (labyrinth's routing, kmeans' distances) is priced only through
//! `compute()`, so a change that makes it cheaper on the host must leave
//! this file passing unedited. Each row re-runs on a dearer input (one
//! more cluster, flow, segment, …) and must differ, so a golden cannot
//! pass by observing nothing.

use specpmt::core::{SpecConfig, SpecSpmt};
use specpmt::hwtx::{hw_pool, HwSpecConfig, HwSpecPmt};
use specpmt::pmem::{PmemConfig, PmemDevice, PmemPool};
use specpmt::stamp::{genome, intruder, kmeans, labyrinth, ssca2, vacation, yada, Scale, StampApp};
use specpmt::txn::{TxAccess, TxRuntime};

const POOL_BYTES: usize = 16 << 20;

/// What one application's timed phase did. Every field is simulated or
/// counted.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    tx_committed: u64,
    updates: u64,
    sim_ns: u64,
    pm_write_bytes: u64,
    log_peak_bytes: u64,
}

/// Runs `app`'s `Scale::Small` input, grown by `more` units of one size
/// knob. Labyrinth grows by a layer: its 121st and later route requests
/// find no free path on the preset grid, so one more request changes
/// nothing.
fn input<A: TxAccess>(app: StampApp, rt: &mut A, more: usize) -> Result<(), String> {
    let s = Scale::Small;
    match app {
        StampApp::Genome => {
            let cfg = genome::GenomeCfg::scaled(s);
            genome::run(rt, &genome::GenomeCfg { segments: cfg.segments + more, ..cfg })
        }
        StampApp::Intruder => {
            let cfg = intruder::IntruderCfg::scaled(s);
            intruder::run(rt, &intruder::IntruderCfg { flows: cfg.flows + more, ..cfg })
        }
        StampApp::KmeansLow | StampApp::KmeansHigh => {
            let cfg = match app {
                StampApp::KmeansLow => kmeans::KmeansCfg::low(s),
                _ => kmeans::KmeansCfg::high(s),
            };
            kmeans::run(rt, &kmeans::KmeansCfg { clusters: cfg.clusters + more, ..cfg })
        }
        StampApp::Labyrinth => {
            let cfg = labyrinth::LabyrinthCfg::scaled(s);
            labyrinth::run(rt, &labyrinth::LabyrinthCfg { layers: cfg.layers + more, ..cfg })
        }
        StampApp::Ssca2 => {
            let cfg = ssca2::Ssca2Cfg::scaled(s);
            ssca2::run(rt, &ssca2::Ssca2Cfg { edges: cfg.edges + more, ..cfg })
        }
        StampApp::VacationLow | StampApp::VacationHigh => {
            let cfg = match app {
                StampApp::VacationLow => vacation::VacationCfg::low(s),
                _ => vacation::VacationCfg::high(s),
            };
            vacation::run(rt, &vacation::VacationCfg { sessions: cfg.sessions + more, ..cfg })
        }
        StampApp::Yada => {
            let cfg = yada::YadaCfg::scaled(s);
            yada::run(rt, &yada::YadaCfg { initial: cfg.initial + more, ..cfg })
        }
    }
}

/// Measures one run of `app` on a fresh runtime the way
/// [`specpmt::stamp::run_app`] does: foreground simulated time, with the
/// modelled background core's share excluded.
fn measure<R: TxRuntime>(mut rt: R, app: StampApp, more: usize) -> Row {
    let clock0 = rt.pool().device().now_ns();
    let pmem0 = rt.pool().device().stats().clone();
    let tx0 = rt.tx_stats();
    let verified = input(app, &mut rt, more);
    assert_eq!(verified, Ok(()), "{} on {}", app.name(), rt.name());
    let tx1 = rt.tx_stats();
    let clock1 = rt.pool().device().now_ns();
    Row {
        tx_committed: tx1.tx_committed - tx0.tx_committed,
        updates: tx1.updates - tx0.updates,
        sim_ns: (clock1 - clock0) - (tx1.background_ns - tx0.background_ns),
        pm_write_bytes: rt.pool().device().stats().delta_since(&pmem0).pm_write_bytes(),
        log_peak_bytes: tx1.log_peak_bytes,
    }
}

fn spec(app: StampApp, more: usize) -> Row {
    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)));
    measure(SpecSpmt::new(pool, SpecConfig::default()), app, more)
}

fn hw(app: StampApp, more: usize) -> Row {
    measure(HwSpecPmt::new(hw_pool(POOL_BYTES), HwSpecConfig::default()), app, more)
}

/// `(tx_committed, updates, sim_ns, pm_write_bytes, log_peak_bytes)` per
/// application, in [`StampApp::all`] order.
type Goldens = [(u64, u64, u64, u64, u64); 9];

fn check(runtime: &str, run: fn(StampApp, usize) -> Row, goldens: &Goldens) {
    for (app, &(tx_committed, updates, sim_ns, pm_write_bytes, log_peak_bytes)) in
        StampApp::all().into_iter().zip(goldens)
    {
        let golden = Row { tx_committed, updates, sim_ns, pm_write_bytes, log_peak_bytes };
        assert_eq!(run(app, 0), golden, "{} on {runtime}", app.name());
        assert_ne!(run(app, 1), golden, "{} on {runtime}, dearer input", app.name());
    }
}

#[test]
fn spec_spmt_stamp_matches_goldens() {
    check(
        "SpecSPMT",
        spec,
        &[
            (4_641, 6_423, 2_768_390, 448_704, 172_032),
            (8_000, 27_360, 4_591_644, 970_304, 454_656),
            (8_080, 210_000, 24_885_990, 1_756_032, 1_052_672),
            (3_430, 89_150, 4_443_606, 736_896, 512_000),
            (52, 10_207, 4_143_031, 132_480, 131_072),
            (8_000, 32_000, 6_054_777, 1_058_624, 548_864),
            (3_000, 24_000, 10_155_775, 461_056, 266_240),
            (3_000, 36_000, 9_585_468, 516_224, 319_488),
            (1_481, 33_868, 2_995_013, 304_832, 208_896),
        ],
    );
}

#[test]
fn hw_spec_pmt_stamp_matches_goldens() {
    check(
        "SpecHPMT",
        hw,
        &[
            (4_641, 6_423, 5_318_553, 966_848, 643_072),
            (8_000, 27_360, 8_904_895, 1_973_248, 1_421_312),
            (8_080, 210_000, 29_423_533, 3_077_312, 2_519_040),
            (3_430, 89_150, 6_392_553, 1_310_720, 1_073_152),
            (52, 10_207, 7_239_616, 1_135_488, 884_736),
            (8_000, 32_000, 12_835_441, 3_545_088, 2_834_432),
            (3_000, 24_000, 12_920_010, 1_389_888, 1_126_400),
            (3_000, 36_000, 12_569_212, 1_552_000, 1_290_240),
            (1_481, 33_868, 4_451_554, 638_016, 524_288),
        ],
    );
}
