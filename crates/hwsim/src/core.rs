//! The simulated core: cache + TLB timing over a [`PmemDevice`].

use specpmt_pmem::PmemDevice;

use crate::cache::{EvictedLine, SetAssocCache, LINE};
use crate::config::HwConfig;
use crate::stats::HwStats;
use crate::tlb::{TlbEntry, TlbLookup, TwoLevelTlb};

/// Outcome of one memory access, reported to the policy layer
/// (`specpmt-hwtx`). Eviction handling is the policy's job: an evicted
/// dirty PM line must be written back (and, under SpecPMT, speculatively
/// logged first if its LogBit was set).
#[derive(Debug, Clone, Default)]
pub struct Access {
    /// Whether the access hit in L1.
    pub l1_hit: bool,
    /// Dirty line evicted from L1 by this access, if any (clean evictions
    /// are dropped silently; dirty ones spill to L2 and, from L2, to the
    /// WPQ, which the core handles internally unless flags require policy
    /// action).
    pub evicted: Option<EvictedLine>,
    /// TLB metadata for the accessed page (stores only).
    pub tlb: Option<TlbEntry>,
}

/// Simulated single core: L1D + shared L2 + two-level TLB, charging
/// latencies to the device clock at picosecond resolution.
#[derive(Debug)]
pub struct HwCore {
    cfg: HwConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    tlb: TwoLevelTlb,
    stats: HwStats,
    /// Sub-nanosecond remainder awaiting transfer to the device clock.
    frac_ps: u64,
}

impl HwCore {
    /// Creates a core with the given configuration.
    pub fn new(cfg: HwConfig) -> Self {
        let l1 = SetAssocCache::new(cfg.l1_sets, cfg.l1_ways);
        let l2 = SetAssocCache::new(cfg.l2_sets, cfg.l2_ways);
        let tlb = TwoLevelTlb::new(
            cfg.tlb_l1_entries,
            cfg.tlb_l1_ways,
            cfg.tlb_l2_entries,
            cfg.tlb_l2_ways,
        );
        Self { cfg, l1, l2, tlb, stats: HwStats::default(), frac_ps: 0 }
    }

    /// The configuration.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &HwStats {
        &self.stats
    }

    /// Direct access to the L1 cache (commit scans, flag maintenance).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// Mutable access to the L1 cache.
    pub fn l1_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l1
    }

    /// Direct access to the TLB pair.
    pub fn tlb(&self) -> &TwoLevelTlb {
        &self.tlb
    }

    /// Mutable access to the TLB pair.
    pub fn tlb_mut(&mut self) -> &mut TwoLevelTlb {
        &mut self.tlb
    }

    /// Charges `ps` picoseconds to the device clock.
    pub fn charge_ps(&mut self, dev: &mut PmemDevice, ps: u64) {
        self.frac_ps += ps;
        let ns = self.frac_ps / 1000;
        if ns > 0 {
            dev.advance(ns);
            self.frac_ps %= 1000;
        }
    }

    fn cache_access(
        &mut self,
        dev: &mut PmemDevice,
        line_addr: usize,
        write: bool,
    ) -> (bool, Option<EvictedLine>) {
        let (l1_hit, l1_evicted) = self.l1.access(line_addr, write);
        let mut cost = self.cfg.l1_hit_ps;
        if !l1_hit {
            let (l2_hit, l2_evicted) = self.l2.access(line_addr, false);
            cost += if l2_hit {
                self.stats.l2_hits += 1;
                self.cfg.l2_hit_ps
            } else {
                self.stats.mem_accesses += 1;
                self.cfg.pm_read_ps
            };
            // A dirty line falling out of L2 drains to the WPQ in the
            // background (ADR path) — its content is already what the
            // device's volatile image holds.
            if let Some(ev) = l2_evicted {
                if ev.dirty {
                    dev.background_line_write(ev.addr);
                }
            }
        } else {
            self.stats.l1_hits += 1;
        }
        self.charge_ps(dev, cost);
        // An L1 victim spills into L2 (dirty or not, to keep inclusion
        // simple); flagged lines are reported to the policy layer.
        if let Some(ev) = l1_evicted {
            if ev.dirty {
                self.stats.l1_dirty_evictions += 1;
                let (_, l2_evicted) = self.l2.access(ev.addr, true);
                if let Some(ev2) = l2_evicted {
                    if ev2.dirty {
                        dev.background_line_write(ev2.addr);
                    }
                }
            }
        }
        (l1_hit, l1_evicted)
    }

    /// A load of `len` bytes at `addr`: charges cache latency per touched
    /// line. Returns whether every line hit L1.
    pub fn load(&mut self, dev: &mut PmemDevice, addr: usize, len: usize) -> bool {
        let mut all_hit = true;
        let first = addr / LINE;
        let last = if len == 0 { first } else { (addr + len - 1) / LINE };
        for l in first..=last {
            let (hit, _) = self.cache_access(dev, l * LINE, false);
            all_hit &= hit;
        }
        all_hit
    }

    /// A transactional store: TLB lookup (with latency), then cache access
    /// per touched line. Returns the access outcome for the *first* line
    /// (policy decisions are per-page, and stores rarely straddle lines).
    pub fn store(&mut self, dev: &mut PmemDevice, addr: usize, len: usize) -> Access {
        // TLB side.
        let page = addr / self.cfg.page_bytes;
        let (lookup, entry) = self.tlb.lookup(page);
        let tlb_cost = match lookup {
            TlbLookup::HitL1 => {
                self.stats.tlb_l1_hits += 1;
                0
            }
            TlbLookup::HitL2 => {
                self.stats.tlb_l2_hits += 1;
                self.cfg.tlb_l2_hit_ps
            }
            TlbLookup::Miss => {
                self.stats.tlb_misses += 1;
                self.cfg.tlb_miss_ps
            }
        };
        self.charge_ps(dev, tlb_cost);
        // Cache side.
        let mut out = Access { tlb: Some(entry), ..Access::default() };
        let first = addr / LINE;
        let last = if len == 0 { first } else { (addr + len - 1) / LINE };
        for (i, l) in (first..=last).enumerate() {
            let (hit, evicted) = self.cache_access(dev, l * LINE, true);
            if i == 0 {
                out.l1_hit = hit;
                out.evicted = evicted;
            } else if out.evicted.is_none() {
                out.evicted = evicted;
            }
        }
        out
    }

    /// Charges the commit-time L1 scan.
    pub fn charge_commit_scan(&mut self, dev: &mut PmemDevice) {
        self.stats.commit_scans += 1;
        self.charge_ps(dev, self.cfg.commit_scan_ps);
    }

    /// Performs a bulk page copy (the ARMv9-style copy engine): charges
    /// engine latency and counts it. The actual byte movement is done by
    /// the caller, which knows the destination log layout.
    pub fn charge_bulk_copy(&mut self, dev: &mut PmemDevice) {
        self.stats.bulk_copies += 1;
        self.charge_ps(dev, self.cfg.bulk_copy_page_ps);
    }

    /// Marks a page hot in the TLB (after its bulk copy completed).
    pub fn make_page_hot(&mut self, page: usize, eid: u8) {
        self.stats.pages_made_hot += 1;
        self.tlb.set_hot(page, eid);
    }

    /// Executes `clearepoch eid`: flash-clears matching TLB entries.
    /// Returns how many pages' tracking was cleared.
    pub fn clear_epoch(&mut self, dev: &mut PmemDevice, eid: u8) -> usize {
        self.stats.epochs_cleared += 1;
        self.charge_ps(dev, self.cfg.epoch_insn_ps);
        self.tlb.clear_epoch(eid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::{PmemConfig, PmemDevice};

    fn setup() -> (HwCore, PmemDevice) {
        (HwCore::new(HwConfig::default()), PmemDevice::new(PmemConfig::new(1 << 20)))
    }

    #[test]
    fn l1_hit_is_cheap_miss_is_expensive() {
        let (mut core, mut dev) = setup();
        core.load(&mut dev, 0, 8); // cold miss -> PM read
        let t1 = dev.now_ns();
        assert!(t1 >= 150, "cold miss must cost a PM read, got {t1}");
        core.load(&mut dev, 0, 8); // hit
        let t2 = dev.now_ns() - t1;
        assert!(t2 <= 1, "L1 hit must cost ~0.5ns, got {t2}");
    }

    #[test]
    fn store_reports_tlb_metadata() {
        let (mut core, mut dev) = setup();
        let a = core.store(&mut dev, 4096, 8);
        let tlb = a.tlb.unwrap();
        assert_eq!(tlb.page, 1);
        assert!(!tlb.epoch_bit);
        assert_eq!(core.stats().tlb_misses, 1);
        let a = core.store(&mut dev, 4100, 8);
        assert!(a.tlb.is_some());
        assert_eq!(core.stats().tlb_l1_hits, 1);
    }

    #[test]
    fn fractional_costs_accumulate() {
        let (mut core, mut dev) = setup();
        core.load(&mut dev, 0, 8); // warm the line
        let t0 = dev.now_ns();
        for _ in 0..10 {
            core.load(&mut dev, 0, 8); // 10 x 500ps = 5ns
        }
        assert_eq!(dev.now_ns() - t0, 5);
    }

    #[test]
    fn capacity_evictions_write_back_dirty_data() {
        let mut core = HwCore::new(HwConfig::default());
        let mut dev = PmemDevice::new(PmemConfig::new(8 << 20));
        // Touch a 4 MB working set — twice the L2 — so dirty lines must
        // eventually fall out of L2 into the WPQ.
        let persisted_before = dev.stats().lines_persisted;
        for i in 0..65_536 {
            let a = (i * 64) % (4 << 20);
            dev.write_u64(a, 7);
            core.store(&mut dev, a, 8);
        }
        // Some dirty lines must eventually fall out of L2 into the WPQ.
        assert!(dev.stats().lines_persisted > persisted_before);
    }

    #[test]
    fn commit_scan_and_epoch_costs_count() {
        let (mut core, mut dev) = setup();
        core.charge_commit_scan(&mut dev);
        core.store(&mut dev, 0, 8);
        core.make_page_hot(0, 3);
        assert_eq!(core.clear_epoch(&mut dev, 3), 1);
        assert_eq!(core.stats().commit_scans, 1);
        assert_eq!(core.stats().epochs_cleared, 1);
        assert_eq!(core.stats().pages_made_hot, 1);
    }
}
