//! `PmemDevice` and a one-handle `SharedPmemDevice` are the same device.
//!
//! The device-level twin of `tests/engine_equivalence.rs`. One seeded
//! script — stores, loads, vectored and single-line flushes, fences,
//! background writes, clock advances, a timing-off setup window, explicit
//! captures under `AllLost` / `AllSurvive` / `Random(seed)`, a site-armed
//! plan and fuel plans — runs on the single-threaded device and on the
//! shared device through a single `DeviceHandle`. Everything a harness can
//! observe must come out equal: every crash image byte for byte, the
//! `PmemStats`, the simulated clock, `fired_at`, `site_hits` and the
//! capture epoch.
//!
//! Left out, because the two flavours define them differently on purpose:
//!
//! * `flush_everything` — the single-threaded device issues a charged
//!   `clwb` per dirty line plus a fence; the shared device copies the
//!   images for free.
//! * fuel plans armed across a *multi-line* flush — the shared handle
//!   burns a batch's fuel up front (no lock held), the single-threaded
//!   device one unit per line as it goes. Both fire the same number of
//!   operations in; what differs is which of the batch's lines are already
//!   pending in the image. Here fuel plans run over single-line ops only.
//! * `DeviceHandle::drain_lines` and the WPQ-drain histogram, which the
//!   single-threaded device does not have.

use specpmt::pmem::{
    CrashControl, CrashImage, CrashPlan, CrashPolicy, DeviceHandle, PmemConfig, PmemDevice,
    PmemStats, SharedPmemDevice, SplitMix64, TimingMode, CACHE_LINE,
};

const SIZE: usize = 64 * 1024;
const SITE_A: &str = "seq/commit/flush";
const SITE_B: &str = "seq/commit/fence";

#[derive(Debug, Clone)]
enum Op {
    Store(usize, Vec<u8>),
    Load(usize, usize),
    FlushRanges(Vec<(usize, usize)>),
    FlushLine(usize),
    Fence,
    Background(usize, usize),
    Advance(u64),
    Timing(TimingMode),
    Site(&'static str),
    Capture(CrashPolicy),
    Arm(CrashPlan),
    /// The armed plan must have fired by now: take its image.
    TakeFired,
    /// Read the hit table of a plan that does not fire.
    Hits,
}

/// The operations both flavours offer, under one name each.
trait Dev {
    fn store(&mut self, addr: usize, data: &[u8]);
    fn load(&mut self, addr: usize, buf: &mut [u8]);
    fn flush_ranges(&mut self, ranges: &[(usize, usize)]);
    fn flush_line(&mut self, addr: usize);
    fn fence(&mut self);
    fn background(&mut self, addr: usize, len: usize);
    fn advance(&mut self, ns: u64);
    fn set_timing(&mut self, mode: TimingMode);
    fn ctl(&self) -> &dyn CrashControl;
    fn stats(&self) -> PmemStats;
    fn now_ns(&self) -> u64;
}

impl Dev for PmemDevice {
    fn store(&mut self, addr: usize, data: &[u8]) {
        self.write(addr, data);
    }
    fn load(&mut self, addr: usize, buf: &mut [u8]) {
        self.read(addr, buf);
    }
    fn flush_ranges(&mut self, ranges: &[(usize, usize)]) {
        self.clwb_ranges(ranges);
    }
    fn flush_line(&mut self, addr: usize) {
        self.clwb(addr);
    }
    fn fence(&mut self) {
        self.sfence();
    }
    fn background(&mut self, addr: usize, len: usize) {
        self.background_range_write(addr, len);
    }
    fn advance(&mut self, ns: u64) {
        PmemDevice::advance(self, ns);
    }
    fn set_timing(&mut self, mode: TimingMode) {
        PmemDevice::set_timing(self, mode);
    }
    fn ctl(&self) -> &dyn CrashControl {
        self
    }
    fn stats(&self) -> PmemStats {
        PmemDevice::stats(self).clone()
    }
    fn now_ns(&self) -> u64 {
        PmemDevice::now_ns(self)
    }
}

/// The shared device driven through its only handle.
struct OneHandle {
    dev: SharedPmemDevice,
    h: DeviceHandle,
}

impl Dev for OneHandle {
    fn store(&mut self, addr: usize, data: &[u8]) {
        self.h.write(addr, data);
    }
    fn load(&mut self, addr: usize, buf: &mut [u8]) {
        self.h.read(addr, buf);
    }
    fn flush_ranges(&mut self, ranges: &[(usize, usize)]) {
        self.h.clwb_ranges(ranges);
    }
    fn flush_line(&mut self, addr: usize) {
        self.h.clwb(addr);
    }
    fn fence(&mut self) {
        self.h.sfence();
    }
    fn background(&mut self, addr: usize, len: usize) {
        self.h.background_range_write(addr, len);
    }
    fn advance(&mut self, ns: u64) {
        self.h.advance(ns);
    }
    fn set_timing(&mut self, mode: TimingMode) {
        self.dev.set_timing(mode);
    }
    fn ctl(&self) -> &dyn CrashControl {
        &self.dev
    }
    fn stats(&self) -> PmemStats {
        self.dev.stats()
    }
    fn now_ns(&self) -> u64 {
        self.dev.now_ns()
    }
}

/// What a harness saw at one point of the script.
#[derive(Debug, PartialEq, Eq)]
enum Seen {
    Loaded(Vec<u8>),
    Image(CrashImage),
    Hits(Vec<(&'static str, u64)>),
    Fired {
        image: CrashImage,
        at: Option<(&'static str, u64)>,
        hits: Vec<(&'static str, u64)>,
        epoch: (u64, bool),
    },
    End {
        stats: PmemStats,
        now_ns: u64,
        epoch: (u64, bool),
    },
}

fn any_policy(rng: &mut SplitMix64) -> CrashPolicy {
    match rng.below(3) {
        0 => CrashPolicy::AllLost,
        1 => CrashPolicy::AllSurvive,
        _ => CrashPolicy::Random(rng.next_u64()),
    }
}

/// `n` mixed operations; `sites` also sprinkles labeled crash sites.
fn mixed(rng: &mut SplitMix64, n: usize, sites: bool, out: &mut Vec<Op>) {
    for _ in 0..n {
        let addr = rng.range_usize(0, SIZE - 256);
        let len = rng.range_usize(1, 200);
        out.push(match rng.below(if sites { 12 } else { 10 }) {
            0..=2 => Op::Store(addr, (0..len).map(|_| rng.next_u8()).collect()),
            3 => Op::Load(addr, len),
            4 | 5 => Op::FlushRanges(
                (0..rng.range_usize(1, 4))
                    .map(|_| (rng.range_usize(0, SIZE - 256), rng.range_usize(0, 200)))
                    .collect(),
            ),
            6 => Op::Fence,
            7 => Op::Background(addr, len),
            8 => Op::Advance(rng.below(400)),
            9 => Op::Capture(any_policy(rng)),
            10 => Op::Site(SITE_A),
            _ => Op::Site(SITE_B),
        });
    }
}

fn script(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let mut ops = Vec::new();
    mixed(&mut rng, 400, false, &mut ops);

    // A labeled plan: fires at the third execution of SITE_A, mid-traffic.
    ops.push(Op::Arm(CrashPlan::at_site(SITE_A, 3).with_policy(CrashPolicy::Random(9))));
    mixed(&mut rng, 120, true, &mut ops);
    ops.extend([Op::Site(SITE_A), Op::Site(SITE_B), Op::Site(SITE_A), Op::Site(SITE_A)]);
    ops.push(Op::TakeFired);

    // A count-only plan never fires but counts.
    ops.push(Op::Arm(CrashPlan::observe()));
    mixed(&mut rng, 40, true, &mut ops);
    ops.push(Op::Hits);

    // Fuel plans, firing between single-line operations.
    for fuel in [0, 1, 2, 5, 9] {
        ops.push(Op::Arm(CrashPlan::after_ops(fuel).with_policy(any_policy(&mut rng))));
        for _ in 0..4 {
            let addr = rng.range_usize(0, SIZE / CACHE_LINE - 1) * CACHE_LINE;
            ops.push(Op::Store(addr + 8, rng.next_u64().to_le_bytes().to_vec()));
            ops.push(Op::FlushLine(addr));
            ops.push(Op::Fence);
        }
        ops.push(Op::TakeFired);
    }

    // A setup window: timing off, nothing pending across the switch.
    ops.extend([Op::Fence, Op::Timing(TimingMode::Off)]);
    ops.push(Op::Arm(CrashPlan::after_ops(0)));
    ops.push(Op::Store(4096, vec![7; 100]));
    ops.push(Op::FlushRanges(vec![(4096, 100)]));
    ops.extend([Op::Fence, Op::Site(SITE_A), Op::Timing(TimingMode::On)]);
    ops.push(Op::Capture(CrashPolicy::AllLost));
    ops.push(Op::Store(0, vec![1]));
    ops.push(Op::TakeFired);

    mixed(&mut rng, 100, false, &mut ops);
    ops.extend([
        Op::Capture(CrashPolicy::AllLost),
        Op::Capture(CrashPolicy::AllSurvive),
        Op::Capture(CrashPolicy::Random(seed)),
    ]);
    ops
}

fn run(dev: &mut impl Dev, ops: &[Op]) -> Vec<Seen> {
    let mut seen = Vec::new();
    for op in ops {
        match op {
            Op::Store(addr, data) => dev.store(*addr, data),
            Op::Load(addr, len) => {
                let mut buf = vec![0; *len];
                dev.load(*addr, &mut buf);
                seen.push(Seen::Loaded(buf));
            }
            Op::FlushRanges(ranges) => dev.flush_ranges(ranges),
            Op::FlushLine(addr) => dev.flush_line(*addr),
            Op::Fence => dev.fence(),
            Op::Background(addr, len) => dev.background(*addr, *len),
            Op::Advance(ns) => dev.advance(*ns),
            Op::Timing(mode) => dev.set_timing(*mode),
            Op::Site(site) => dev.ctl().crash_point(site),
            Op::Capture(policy) => seen.push(Seen::Image(dev.ctl().capture(*policy))),
            Op::Arm(plan) => dev.ctl().arm(*plan),
            Op::Hits => seen.push(Seen::Hits(dev.ctl().site_hits())),
            Op::TakeFired => {
                let ctl = dev.ctl();
                assert!(ctl.fired(), "the script's plan must have fired by here");
                seen.push(Seen::Fired {
                    at: ctl.fired_at(),
                    hits: ctl.site_hits(),
                    epoch: ctl.observe(),
                    image: ctl.take_image().expect("fired"),
                });
            }
        }
    }
    let epoch = dev.ctl().observe();
    seen.push(Seen::End { stats: dev.stats(), now_ns: dev.now_ns(), epoch });
    seen
}

#[test]
fn one_handle_shared_device_is_the_single_threaded_device() {
    for seed in [1, 2, 0xD1CE] {
        let ops = script(seed);
        let cfg = PmemConfig::new(SIZE);
        let single = run(&mut PmemDevice::new(cfg.clone()), &ops);
        let dev = SharedPmemDevice::new(cfg);
        let shared = run(&mut OneHandle { h: dev.handle(), dev }, &ops);

        assert_eq!(single.len(), shared.len(), "seed {seed}");
        for (i, (a, b)) in single.iter().zip(&shared).enumerate() {
            // Not `assert_eq!`: a mismatch would print two 64 KiB images.
            assert!(a == b, "seed {seed}: observation {i} differs ({})", kind(a));
        }
        let images = single.iter().filter(|s| matches!(s, Seen::Image(_))).count();
        let fired = single.iter().filter(|s| matches!(s, Seen::Fired { .. })).count();
        assert!(images >= 20 && fired == 7, "seed {seed}: {images} captures, {fired} fired plans");
        let Some(Seen::End { stats, now_ns, epoch }) = single.last() else { unreachable!() };
        assert!(stats.sfence_count > 0 && stats.fence_stall_ns > 0 && stats.seq_line_hits > 0);
        assert!(*now_ns > 0);
        assert_eq!(*epoch, (14, false), "two epoch steps per fired plan, images all taken");
    }
}

fn kind(s: &Seen) -> &'static str {
    match s {
        Seen::Loaded(_) => "load",
        Seen::Image(_) => "capture",
        Seen::Hits(_) => "site hits",
        Seen::Fired { .. } => "fired plan",
        Seen::End { .. } => "final stats/clock/epoch",
    }
}
