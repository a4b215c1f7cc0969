//! The simulated persistent-memory device.

use crate::crash::{materialize, CrashControl, CrashGate, CrashImage, CrashPolicy};
use crate::geometry::{line_of, line_start, lines_touching, CACHE_LINE, PERSIST_WORD};
use crate::wpq::{PendingFlush, WpqModel};
use crate::{PmemConfig, PmemError, PmemStats};

/// Whether device operations advance the simulated clock and counters.
///
/// Workload *setup* (building initial data structures) should run with
/// [`TimingMode::Off`] so measurements cover only the transactional phase.
/// With timing off, flushes and fences still take effect logically — they
/// apply to the persisted image immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Operations are charged to the simulated clock and counted.
    #[default]
    On,
    /// Operations are free and persist immediately.
    Off,
}

/// What one store fence observed, returned by [`PmemDevice::sfence`] and
/// [`crate::DeviceHandle::sfence`] for instrumentation. Plain statement
/// callers can ignore it; telemetry-aware callers feed `stall_ns` into
/// the WPQ-drain histogram and trace stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FenceReport {
    /// Nanoseconds the fence stalled waiting for the WPQ to accept this
    /// thread's outstanding flushes (0 when nothing was pending or the
    /// queue had already drained).
    pub stall_ns: u64,
    /// Outstanding line flushes the fence completed.
    pub flushes: u64,
}

/// Simulated byte-addressable persistent memory device.
///
/// The device keeps two images: the **volatile** image every load/store sees,
/// and the **persisted** image that survives a crash
/// ([`CrashControl::capture`]). Data moves from volatile to persisted
/// through cache-line flushes ([`clwb`](Self::clwb)) completed by fences
/// ([`sfence`](Self::sfence)), or nondeterministically at crash time
/// (modelling cache evictions).
///
/// Timing follows an ADR platform: a `clwb` issues an asynchronous line
/// write-back that must be *accepted by the write pending queue* to be
/// persistent; `sfence` stalls until every outstanding flush of this device
/// is accepted. The WPQ drains to PM media serially; flushing faster than
/// media bandwidth backs up the queue and stalls later fences. A flush
/// landing in the XPLine that the media currently has open is serviced at
/// the cheaper sequential rate.
#[derive(Debug, Clone)]
pub struct PmemDevice {
    cfg: PmemConfig,
    volatile: Vec<u8>,
    persisted: Vec<u8>,
    pending: Vec<PendingFlush>,
    wpq: WpqModel,
    clock_ns: u64,
    timing: TimingMode,
    stats: PmemStats,
    /// Fault injection (plan, fired image, site-hit counts, capture
    /// epoch): one flag read per persistence op or labeled site while
    /// nothing is armed.
    gate: CrashGate,
    /// Reusable line-plan scratch for [`Self::clwb_ranges`] and
    /// [`Self::background_ranges`]: cleared, not freed, between plans so
    /// steady-state planning is allocation-free.
    line_scratch: Vec<usize>,
}

impl PmemDevice {
    /// Creates a zero-filled device with the given configuration.
    pub fn new(cfg: PmemConfig) -> Self {
        // A struct-literal config skips `with_size`'s rounding; a partial
        // last line would put `clwb` past the end of the images.
        let cfg = cfg.clone().with_size(cfg.size);
        let size = cfg.size;
        let wpq = WpqModel::new(&cfg);
        Self {
            cfg,
            volatile: vec![0; size],
            persisted: vec![0; size],
            pending: Vec::new(),
            wpq,
            clock_ns: 0,
            timing: TimingMode::On,
            stats: PmemStats::default(),
            gate: CrashGate::default(),
            line_scratch: Vec::new(),
        }
    }

    /// Reconstructs a device from a crash image: both images equal the
    /// post-crash contents, the clock is reset.
    pub fn from_image(cfg: PmemConfig, image: &CrashImage) -> Self {
        let mut dev = Self::new(cfg.with_size(image.as_bytes().len()));
        dev.volatile.copy_from_slice(image.as_bytes());
        dev.persisted.copy_from_slice(image.as_bytes());
        dev
    }

    /// Device capacity in bytes.
    pub fn size(&self) -> usize {
        self.volatile.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &PmemConfig {
        &self.cfg
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Accumulated event counters.
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    /// Switches timing on or off (see [`TimingMode`]).
    pub fn set_timing(&mut self, mode: TimingMode) {
        self.timing = mode;
    }

    /// Current timing mode.
    pub fn timing(&self) -> TimingMode {
        self.timing
    }

    /// Advances the simulated clock by `ns` of CPU work (no memory traffic).
    pub fn advance(&mut self, ns: u64) {
        if self.timing == TimingMode::On {
            self.clock_ns += ns;
        }
    }

    /// One persistence-affecting operation is about to happen.
    fn tick_fuel(&self) {
        self.gate.tick_fuel(self.timing == TimingMode::On, |policy| self.capture(policy));
    }

    fn check(&self, addr: usize, len: usize) -> Result<(), PmemError> {
        if addr.checked_add(len).is_none_or(|end| end > self.volatile.len()) {
            return Err(PmemError::OutOfBounds { addr, len, size: self.volatile.len() });
        }
        Ok(())
    }

    /// Stores `data` at `addr` in the volatile image.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (callers are expected to stay
    /// within the pool they allocated; see [`Self::try_write`] for the
    /// checked variant).
    pub fn write(&mut self, addr: usize, data: &[u8]) {
        self.try_write(addr, data).expect("pmem write out of bounds");
    }

    /// Checked variant of [`Self::write`].
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds capacity.
    pub fn try_write(&mut self, addr: usize, data: &[u8]) -> Result<(), PmemError> {
        self.check(addr, data.len())?;
        self.tick_fuel();
        self.volatile[addr..addr + data.len()].copy_from_slice(data);
        if self.timing == TimingMode::On {
            let words = data.len().div_ceil(PERSIST_WORD) as u64;
            self.clock_ns += words * self.cfg.store_word_ns;
            self.stats.bytes_stored += data.len() as u64;
        }
        Ok(())
    }

    /// Loads `buf.len()` bytes from `addr` in the volatile image.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.try_read(addr, buf).expect("pmem read out of bounds");
    }

    /// Checked variant of [`Self::read`].
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds capacity.
    pub fn try_read(&mut self, addr: usize, buf: &mut [u8]) -> Result<(), PmemError> {
        self.check(addr, buf.len())?;
        buf.copy_from_slice(&self.volatile[addr..addr + buf.len()]);
        if self.timing == TimingMode::On {
            let words = buf.len().div_ceil(PERSIST_WORD) as u64;
            self.clock_ns += words * self.cfg.load_word_ns;
            self.stats.bytes_loaded += buf.len() as u64;
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&mut self, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: usize, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Borrows a slice of the volatile image without charging any cost.
    /// Intended for verification and debugging, not for modelled execution.
    pub fn peek(&self, addr: usize, len: usize) -> &[u8] {
        &self.volatile[addr..addr + len]
    }

    /// Reads a `u64` from the volatile image without charging any cost.
    pub fn peek_u64(&self, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.volatile[addr..addr + 8]);
        u64::from_le_bytes(b)
    }

    /// Issues a `clwb` for the cache line containing `addr`: snapshots the
    /// line and schedules its write-back. The line is persistent only once
    /// accepted by the WPQ; [`Self::sfence`] waits for that.
    pub fn clwb(&mut self, addr: usize) {
        let line = line_of(addr);
        assert!(line_start(line) < self.volatile.len(), "clwb out of bounds");
        self.tick_fuel();
        let mut snapshot = [0u8; CACHE_LINE];
        snapshot.copy_from_slice(&self.volatile[line_start(line)..line_start(line) + CACHE_LINE]);
        if self.timing == TimingMode::Off {
            self.persisted[line_start(line)..line_start(line) + CACHE_LINE]
                .copy_from_slice(&snapshot);
            return;
        }
        self.clock_ns += self.cfg.clwb_issue_ns;
        self.stats.clwb_count += 1;
        let accepted_at = self.wpq_accept(line);
        self.pending.push(PendingFlush { line, accepted_at, snapshot });
    }

    /// WPQ + media accounting for one line write-back issued now; returns
    /// the time the line is accepted into the persistence domain.
    fn wpq_accept(&mut self, line: usize) -> u64 {
        let (accepted_at, sequential) = self.wpq.accept(&self.cfg, line, self.clock_ns);
        self.stats.lines_persisted += 1;
        if sequential {
            self.stats.seq_line_hits += 1;
        }
        accepted_at
    }

    /// Persists the line containing `addr` from a **background core**
    /// (log replayer / reclamator threads): the write consumes a WPQ slot
    /// and media bandwidth — so it contends with foreground flushes — but
    /// does not advance this thread's clock or leave a fence obligation.
    /// The line content persists logically at once (the background thread
    /// is assumed to fence before publishing any dependent state).
    pub fn background_line_write(&mut self, addr: usize) {
        let line = line_of(addr);
        assert!(line_start(line) < self.volatile.len(), "background write out of bounds");
        let start = line_start(line);
        if self.timing == TimingMode::On {
            let _ = self.wpq_accept(line);
        }
        self.persisted[start..start + CACHE_LINE]
            .copy_from_slice(&self.volatile[start..start + CACHE_LINE]);
    }

    /// The background twin of [`Self::clwb_ranges`]: plans the lines of
    /// `ranges` with [`crate::geometry::coalesce_lines`] and makes one
    /// [`Self::background_line_write`] per distinct line, ascending — the
    /// line set `clwb_ranges` would flush, each line written once however
    /// many ranges share it. Returns the number of lines written.
    pub fn background_ranges(&mut self, ranges: &[(usize, usize)]) -> usize {
        let mut lines = std::mem::take(&mut self.line_scratch);
        crate::geometry::coalesce_lines(ranges, &mut lines);
        for &line in &lines {
            self.background_line_write(line_start(line));
        }
        let written = lines.len();
        self.line_scratch = lines;
        written
    }

    /// Issues `clwb` for every cache line touched by `[addr, addr + len)`.
    pub fn clwb_range(&mut self, addr: usize, len: usize) {
        for line in lines_touching(addr, len) {
            self.clwb(line_start(line));
        }
    }

    /// Vectored `clwb`: one write-back per cache-line *index* in `lines`
    /// (each element is `addr / CACHE_LINE`; sorted ascending and
    /// deduplicated). The single-threaded device has no locks to batch,
    /// so this is exactly per-line [`Self::clwb`] — it exists so commit
    /// planners drive one flush API regardless of device flavour (the
    /// [`crate::DeviceHandle`] version batches its shard/WPQ/pending lock
    /// acquisitions).
    ///
    /// # Panics
    ///
    /// Panics if a line is out of bounds or the slice is not sorted and
    /// deduplicated.
    pub fn clwb_lines(&mut self, lines: &[usize]) {
        assert!(
            lines.windows(2).all(|w| w[0] < w[1]),
            "clwb_lines requires a sorted, deduplicated batch"
        );
        for &line in lines {
            self.clwb(line_start(line));
        }
    }

    /// Vectored flush of a commit's dirty byte ranges: plans the sorted,
    /// deduplicated line set with [`crate::geometry::coalesce_lines`] into
    /// a reusable scratch buffer and issues it through
    /// [`Self::clwb_lines`]. Flushes the exact line set a range-at-a-time
    /// `clwb` loop would, with zero steady-state allocation.
    pub fn clwb_ranges(&mut self, ranges: &[(usize, usize)]) {
        let mut lines = std::mem::take(&mut self.line_scratch);
        crate::geometry::coalesce_lines(ranges, &mut lines);
        self.clwb_lines(&lines);
        self.line_scratch = lines;
    }

    /// Store fence: stalls until all outstanding flushes are accepted into
    /// the persistence domain, then applies them to the persisted image.
    /// Returns what the fence observed (WPQ-drain stall, flushes applied)
    /// so instrumented callers can attribute fence cost; uninstrumented
    /// callers simply ignore the report.
    pub fn sfence(&mut self) -> FenceReport {
        // Timing can go off between a `clwb` and its fence (setup helpers
        // flip it). The fence must still complete those flushes — free of
        // charge and uncounted, like every timing-off operation — or a
        // crash image taken afterwards drops a line the caller was told is
        // durable.
        let mut report = FenceReport::default();
        if self.timing == TimingMode::On {
            self.tick_fuel();
            self.stats.sfence_count += 1;
            let target = self.pending.iter().map(|p| p.accepted_at).max().unwrap_or(0);
            report = FenceReport {
                stall_ns: target.saturating_sub(self.clock_ns),
                flushes: self.pending.len() as u64,
            };
            if target > self.clock_ns {
                self.stats.fence_stall_ns += target - self.clock_ns;
                self.clock_ns = target;
            }
            self.clock_ns += self.cfg.sfence_base_ns;
        }
        for p in self.pending.drain(..) {
            let start = line_start(p.line);
            self.persisted[start..start + CACHE_LINE].copy_from_slice(&p.snapshot);
        }
        report
    }

    /// Convenience: `clwb_range` followed by `sfence`.
    pub fn persist_range(&mut self, addr: usize, len: usize) {
        self.clwb_range(addr, len);
        self.sfence();
    }

    /// Drains every outstanding flush and persists **all** dirty data, as an
    /// orderly shutdown (or `wbnoinvd`) would. The persisted image becomes
    /// identical to the volatile image.
    pub fn flush_everything(&mut self) {
        let dirty: Vec<usize> = (0..self.volatile.len() / CACHE_LINE)
            .filter(|&l| {
                let s = line_start(l);
                self.volatile[s..s + CACHE_LINE] != self.persisted[s..s + CACHE_LINE]
            })
            .collect();
        for l in dirty {
            self.clwb(line_start(l));
        }
        self.sfence();
    }
}

impl CrashControl for PmemDevice {
    fn gate(&self) -> &CrashGate {
        &self.gate
    }

    fn timing_on(&self) -> bool {
        self.timing == TimingMode::On
    }

    /// The memory image a crash at the current instant could leave (see
    /// [`CrashPolicy`] for what survives).
    fn capture(&self, policy: CrashPolicy) -> CrashImage {
        materialize(self.persisted.clone(), &self.volatile, &self.pending, self.clock_ns, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashPlan, Site};

    fn dev() -> PmemDevice {
        PmemDevice::new(PmemConfig::new(4096))
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut d = dev();
        d.write_u64(128, 0xdead_beef);
        assert_eq!(d.read_u64(128), 0xdead_beef);
    }

    /// A struct-literal size skips `with_size`'s rounding; the device
    /// still owns whole cache lines, so flushing the last one is in range.
    #[test]
    fn struct_literal_size_is_rounded_up_to_a_line() {
        let mut d = PmemDevice::new(PmemConfig { size: 100, ..PmemConfig::default() });
        assert_eq!((d.size(), d.config().size), (128, 128));
        d.write_u64(64, 7);
        d.clwb(64);
        d.sfence();
        assert_eq!(d.capture(CrashPolicy::AllLost).read_u64(64), 7);
    }

    #[test]
    fn unflushed_store_lost_in_pessimistic_crash() {
        let mut d = dev();
        d.write_u64(0, 7);
        let img = d.capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(0), 0);
    }

    #[test]
    fn unflushed_store_survives_optimistic_crash() {
        let mut d = dev();
        d.write_u64(0, 7);
        let img = d.capture(CrashPolicy::AllSurvive);
        assert_eq!(img.read_u64(0), 7);
    }

    #[test]
    fn flushed_and_fenced_store_always_survives() {
        let mut d = dev();
        d.write_u64(0, 7);
        d.clwb(0);
        d.sfence();
        for seed in 0..16 {
            assert_eq!(d.capture(CrashPolicy::Random(seed)).read_u64(0), 7);
        }
    }

    #[test]
    fn clwb_snapshots_at_flush_time() {
        let mut d = dev();
        d.write_u64(0, 1);
        d.clwb(0);
        d.write_u64(0, 2); // after the flush snapshot
        d.sfence();
        let img = d.capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(0), 1);
        assert_eq!(d.read_u64(0), 2);
    }

    #[test]
    fn accepted_flush_survives_even_without_fence() {
        // Give the flush time to be accepted by advancing the clock.
        let mut d = dev();
        d.write_u64(0, 9);
        d.clwb(0);
        d.advance(10_000);
        let img = d.capture(CrashPolicy::AllLost);
        // accepted_at <= clock because the WPQ had free slots at issue time.
        assert_eq!(img.read_u64(0), 9);
    }

    #[test]
    fn fence_costs_time_and_counts() {
        let mut d = dev();
        d.write_u64(0, 1);
        let before = d.now_ns();
        d.clwb(0);
        d.sfence();
        assert!(d.now_ns() > before);
        assert_eq!(d.stats().clwb_count, 1);
        assert_eq!(d.stats().sfence_count, 1);
        assert_eq!(d.stats().lines_persisted, 1);
    }

    #[test]
    fn background_ranges_writes_the_flush_plan_once_per_line() {
        // Out of order, overlapping, adjacent, zero-length (over a dirty
        // line) and line-straddling ranges: lines 0, 1, 4, 11, 12, 13.
        let ranges = [(300, 8), (0, 65), (60, 8), (128, 0), (65, 63), (704, 130)];
        let [mut bg, mut fl] = [dev(), dev()];
        for d in [&mut bg, &mut fl] {
            for (i, &(at, len)) in ranges.iter().enumerate() {
                d.write(at, &vec![i as u8 + 1; len]);
            }
            d.write(128, &[0xEE; 64]); // line 2: only a zero-length range names it
        }
        let t0 = bg.now_ns();
        let written = bg.background_ranges(&ranges);
        fl.clwb_ranges(&ranges);
        fl.sfence();
        assert_eq!(written, 6);
        assert_eq!(bg.stats().lines_persisted, 6, "one write per distinct line");
        assert_eq!((bg.stats().clwb_count, bg.stats().sfence_count, bg.now_ns()), (0, 0, t0));
        assert_eq!(fl.stats().lines_persisted, 6);
        let img = bg.capture(CrashPolicy::AllLost);
        assert!(img == fl.capture(CrashPolicy::AllLost), "the lines clwb_ranges flushes");
        for line in 0..bg.size() / CACHE_LINE {
            let at = line_start(line);
            let want = if [0, 1, 4, 11, 12, 13].contains(&line) {
                bg.peek(at, CACHE_LINE)
            } else {
                &[0; CACHE_LINE]
            };
            assert_eq!(&img.as_bytes()[at..at + CACHE_LINE], want, "line {line}");
        }
    }

    #[test]
    fn sequential_flushes_cheaper_than_random() {
        let cfg = PmemConfig::new(1 << 20);
        // Sequential: 64 adjacent lines.
        let mut seq = PmemDevice::new(cfg.clone());
        for i in 0..64 {
            seq.write_u64(i * 64, 1);
            seq.clwb(i * 64);
        }
        seq.sfence();
        // Random: 64 lines spread across distinct XPLines.
        let mut rnd = PmemDevice::new(cfg);
        for i in 0..64 {
            rnd.write_u64(i * 4096, 1);
            rnd.clwb(i * 4096);
        }
        rnd.sfence();
        assert!(
            seq.now_ns() < rnd.now_ns(),
            "sequential {} >= random {}",
            seq.now_ns(),
            rnd.now_ns()
        );
        assert!(seq.stats().seq_line_hits > 0);
        assert_eq!(rnd.stats().seq_line_hits, 0);
    }

    #[test]
    fn wpq_backpressure_stalls_sustained_flushing() {
        let cfg = PmemConfig::new(1 << 20);
        let mut d = PmemDevice::new(cfg);
        // Flush far more lines than the WPQ holds; later fences pay the
        // media drain backlog.
        let mut last_fence_cost = 0;
        for burst in 0..4 {
            let t0 = d.now_ns();
            for i in 0..32 {
                let a = (burst * 32 + i) * 4096; // distinct XPLines
                d.write_u64(a, 1);
                d.clwb(a);
            }
            d.sfence();
            last_fence_cost = d.now_ns() - t0;
        }
        assert!(last_fence_cost > 0);
        assert!(d.stats().fence_stall_ns > 0);
    }

    #[test]
    fn timing_off_persists_immediately_and_counts_nothing() {
        let mut d = dev();
        d.set_timing(TimingMode::Off);
        d.write_u64(0, 5);
        d.clwb(0);
        d.sfence();
        assert_eq!(d.now_ns(), 0);
        assert_eq!(d.stats().clwb_count, 0);
        let img = d.capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(0), 5);
    }

    #[test]
    fn timing_off_fence_still_drains_pending_flushes() {
        let mut d = dev();
        d.write_u64(0, 5);
        d.clwb(0); // timed: the line is pending until a fence
        d.set_timing(TimingMode::Off);
        let before = (d.now_ns(), d.stats().sfence_count);
        assert_eq!(d.sfence(), FenceReport::default());
        assert_eq!((d.now_ns(), d.stats().sfence_count), before, "uncharged and uncounted");
        d.write_u64(0, 6); // not flushed: must not reach the image
        let img = d.capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(0), 5, "the fenced flush is durable");
    }

    #[test]
    fn torn_line_possible_word_granular() {
        // Two words in one line, never flushed: a crash may persist one but
        // not the other.
        let mut d = dev();
        d.write_u64(0, 0x1111);
        d.write_u64(8, 0x2222);
        let mut seen_torn = false;
        for seed in 0..64 {
            let img = d.capture(CrashPolicy::Random(seed));
            let a = img.read_u64(0);
            let b = img.read_u64(8);
            if (a == 0x1111) != (b == 0x2222) {
                seen_torn = true;
            }
        }
        assert!(seen_torn, "expected at least one torn-line crash image");
    }

    #[test]
    fn from_image_roundtrip() {
        let mut d = dev();
        d.write_u64(64, 42);
        d.persist_range(64, 8);
        let img = d.capture(CrashPolicy::AllLost);
        let mut d2 = PmemDevice::from_image(PmemConfig::new(4096), &img);
        assert_eq!(d2.read_u64(64), 42);
    }

    #[test]
    fn flush_everything_syncs_images() {
        let mut d = dev();
        d.write_u64(0, 1);
        d.write_u64(512, 2);
        d.flush_everything();
        let img = d.capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(0), 1);
        assert_eq!(img.read_u64(512), 2);
    }

    #[test]
    fn try_write_out_of_bounds_errors() {
        let mut d = dev();
        let err = d.try_write(4090, &[0; 16]).unwrap_err();
        assert!(matches!(err, PmemError::OutOfBounds { .. }));
    }

    #[test]
    fn armed_crash_fires_before_nth_op() {
        let mut d = dev();
        d.write_u64(0, 1); // op 0 (not counted: arm below)
        d.arm(CrashPlan::after_ops(1));
        d.write_u64(8, 2); // op executes (fuel 1 -> 0)
        d.write_u64(16, 3); // crash fires before this op
        assert!(d.fired());
        let img = d.take_image().unwrap();
        // Nothing was flushed, AllLost: all writes gone.
        assert_eq!(img.read_u64(0), 0);
        assert_eq!(img.read_u64(8), 0);
        assert_eq!(img.read_u64(16), 0);
        // Volatile image still has everything (execution continued).
        assert_eq!(d.read_u64(16), 3);
    }

    #[test]
    fn armed_crash_between_clwb_and_fence_loses_inflight_flush() {
        let mut d = dev();
        d.write_u64(0, 7);
        d.arm(CrashPlan::after_ops(1));
        d.clwb(0); // executes; crash fires before the fence
        d.sfence();
        let img = d.take_image().unwrap();
        // In-flight (not yet accepted) flush is lost under AllLost.
        assert_eq!(img.read_u64(0), 0);
    }

    #[test]
    fn armed_crash_does_not_fire_during_timing_off() {
        let mut d = dev();
        d.arm(CrashPlan::after_ops(0));
        d.set_timing(TimingMode::Off);
        d.write_u64(0, 1);
        assert!(!d.fired());
        d.set_timing(TimingMode::On);
        d.write_u64(8, 2);
        assert!(d.fired());
    }

    const SITE_A: Site = Site::SeqCommitFlush;
    const SITE_B: Site = Site::SeqCommitFence;

    #[test]
    fn crash_point_fires_at_targeted_hit() {
        let mut d = dev();
        d.arm(CrashPlan::at_site(SITE_A, 2));
        d.write_u64(0, 7);
        d.crash_point(SITE_A); // hit 1
        assert!(!d.fired());
        d.crash_point(SITE_B); // other site, counted but no fire
        d.crash_point(SITE_A); // hit 2: fires here
        assert!(d.fired());
        assert_eq!(d.fired_at(), Some((SITE_A, 2)));
        // AllLost + nothing flushed: the store is gone in the image.
        assert_eq!(d.take_image().unwrap().read_u64(0), 0);
        // Execution continued; later hits are not counted (plan consumed).
        let hits = d.site_hits();
        assert_eq!(hits, vec![(SITE_A, 2), (SITE_B, 1)]);
    }

    #[test]
    fn observe_counts_sites_without_firing() {
        let mut d = dev();
        d.arm(CrashPlan::observe());
        for _ in 0..3 {
            d.crash_point(SITE_A);
        }
        d.write_u64(0, 1); // fuel path untouched by observe plans
        assert!(!d.fired());
        assert_eq!(d.site_hits(), vec![(SITE_A, 3)]);
        assert_eq!(d.observe(), (0, false), "observe plans never bump the epoch");
    }

    #[test]
    fn crash_point_is_inert_when_disarmed_or_fuel_armed() {
        let mut d = dev();
        d.crash_point(SITE_A);
        assert!(d.site_hits().is_empty());
        d.arm(CrashPlan::after_ops(100));
        d.crash_point(SITE_A);
        assert!(d.site_hits().is_empty(), "fuel plans do not count sites");
        d.disarm();
        d.write_u64(0, 1);
        assert!(!d.fired());
    }

    #[test]
    fn crash_point_respects_timing_off() {
        let mut d = dev();
        d.arm(CrashPlan::at_site(SITE_A, 1));
        d.set_timing(TimingMode::Off);
        d.crash_point(SITE_A);
        assert!(!d.fired());
        d.set_timing(TimingMode::On);
        d.crash_point(SITE_A);
        assert!(d.fired());
    }

    #[test]
    fn site_capture_bumps_epoch_twice() {
        let d = dev();
        assert_eq!(d.observe(), (0, false));
        d.arm(CrashPlan::at_site(SITE_A, 1));
        d.crash_point(SITE_A);
        assert_eq!(d.observe(), (2, true), "two epoch increments per capture");
    }
}
