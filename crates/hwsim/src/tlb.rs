//! Two-level TLB with SpecPMT's EpochBit + hotness counter (Fig. 9).

/// One TLB entry's SpecPMT metadata.
///
/// When `epoch_bit` is clear, `cnt_or_eid` is the 3-bit saturating counter
/// of transactional stores to the page; when set, it is the epoch ID the
/// page was speculatively logged in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Page number (address / page size).
    pub page: usize,
    /// EpochBit: the page is hot (speculatively logged).
    pub epoch_bit: bool,
    /// Saturating store counter (cold) or epoch ID (hot).
    pub cnt_or_eid: u8,
    lru: u64,
}

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// Hit in the L1 TLB.
    HitL1,
    /// Hit in the L2 TLB (entry promoted to L1).
    HitL2,
    /// Full miss (page walk; fresh cold entry inserted).
    Miss,
}

#[derive(Debug, Clone)]
struct TlbLevel {
    sets: usize,
    ways: usize,
    entries: Vec<Option<TlbEntry>>,
}

impl TlbLevel {
    fn new(entries: usize, ways: usize) -> Self {
        assert!(entries.is_multiple_of(ways), "entries must divide into ways");
        let sets = entries / ways;
        Self { sets, ways, entries: vec![None; entries] }
    }

    fn range(&self, page: usize) -> std::ops::Range<usize> {
        let set = page % self.sets;
        set * self.ways..(set + 1) * self.ways
    }

    fn find(&mut self, page: usize) -> Option<&mut TlbEntry> {
        let range = self.range(page);
        self.entries[range].iter_mut().flatten().find(|e| e.page == page)
    }

    fn take(&mut self, page: usize) -> Option<TlbEntry> {
        let range = self.range(page);
        for i in range {
            if self.entries[i].is_some_and(|e| e.page == page) {
                return self.entries[i].take();
            }
        }
        None
    }

    /// Inserts, evicting LRU; returns the victim.
    fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let range = self.range(entry.page);
        let mut victim: Option<usize> = None;
        for i in range {
            match &self.entries[i] {
                None => {
                    self.entries[i] = Some(entry);
                    return None;
                }
                Some(e) => {
                    if victim.is_none_or(|v| self.entries[v].expect("victim occupied").lru > e.lru)
                    {
                        victim = Some(i);
                    }
                }
            }
        }
        let v = victim.expect("set non-empty");
        self.entries[v].replace(entry)
    }
}

/// L1 + L2 TLB pair with epoch metadata.
#[derive(Debug, Clone)]
pub struct TwoLevelTlb {
    l1: TlbLevel,
    l2: TlbLevel,
    tick: u64,
}

impl TwoLevelTlb {
    /// Creates the TLB pair.
    pub fn new(l1_entries: usize, l1_ways: usize, l2_entries: usize, l2_ways: usize) -> Self {
        Self {
            l1: TlbLevel::new(l1_entries, l1_ways),
            l2: TlbLevel::new(l2_entries, l2_ways),
            tick: 0,
        }
    }

    /// Looks up `page`, inserting a fresh cold entry on a miss. An entry
    /// evicted from the L2 TLB loses its metadata — the page silently
    /// becomes cold, exactly the paper's bounded-tracking property.
    pub fn lookup(&mut self, page: usize) -> (TlbLookup, TlbEntry) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.l1.find(page) {
            e.lru = tick;
            return (TlbLookup::HitL1, *e);
        }
        if let Some(mut e) = self.l2.take(page) {
            e.lru = tick;
            let demoted = self.l1.insert(e);
            if let Some(d) = demoted {
                self.l2.insert(d);
            }
            return (TlbLookup::HitL2, e);
        }
        let fresh = TlbEntry { page, epoch_bit: false, cnt_or_eid: 0, lru: tick };
        if let Some(demoted) = self.l1.insert(fresh) {
            // Demotion to L2 may drop an entry entirely (tracking lost).
            self.l2.insert(demoted);
        }
        (TlbLookup::Miss, fresh)
    }

    /// Increments the hotness counter of a resident cold page (saturating
    /// at 7) and returns the new value. No-op (returning the EID) for hot
    /// pages.
    pub fn bump_counter(&mut self, page: usize) -> u8 {
        if let Some(e) = self.l1.find(page).or_else(|| self.l2.find(page)) {
            if !e.epoch_bit {
                e.cnt_or_eid = (e.cnt_or_eid + 1).min(7);
            }
            e.cnt_or_eid
        } else {
            0
        }
    }

    /// Marks a resident page hot with the given epoch ID.
    pub fn set_hot(&mut self, page: usize, eid: u8) {
        if let Some(e) = self.l1.find(page).or_else(|| self.l2.find(page)) {
            e.epoch_bit = true;
            e.cnt_or_eid = eid;
        }
    }

    /// Metadata for a resident page.
    pub fn entry(&mut self, page: usize) -> Option<TlbEntry> {
        self.l1.find(page).or_else(|| self.l2.find(page)).map(|e| *e)
    }

    /// The `clearepoch EID` instruction: flash-clears the EpochBit and
    /// counter of every entry (both levels) whose epoch matches `eid`.
    /// Returns how many pages were cleared.
    pub fn clear_epoch(&mut self, eid: u8) -> usize {
        let mut cleared = 0;
        for level in [&mut self.l1, &mut self.l2] {
            for e in level.entries.iter_mut().flatten() {
                if e.epoch_bit && e.cnt_or_eid == eid {
                    e.epoch_bit = false;
                    e.cnt_or_eid = 0;
                    cleared += 1;
                }
            }
        }
        cleared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> TwoLevelTlb {
        TwoLevelTlb::new(8, 4, 32, 4)
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tlb();
        let (r, e) = t.lookup(5);
        assert_eq!(r, TlbLookup::Miss);
        assert!(!e.epoch_bit);
        let (r, _) = t.lookup(5);
        assert_eq!(r, TlbLookup::HitL1);
    }

    #[test]
    fn counter_saturates_at_seven() {
        let mut t = tlb();
        t.lookup(3);
        for _ in 0..20 {
            t.bump_counter(3);
        }
        assert_eq!(t.entry(3).unwrap().cnt_or_eid, 7);
    }

    #[test]
    fn hot_page_keeps_eid() {
        let mut t = tlb();
        t.lookup(3);
        t.set_hot(3, 5);
        assert_eq!(t.bump_counter(3), 5, "hot pages keep their EID");
        let e = t.entry(3).unwrap();
        assert!(e.epoch_bit);
        assert_eq!(e.cnt_or_eid, 5);
    }

    #[test]
    fn clear_epoch_resets_matching_pages_only() {
        let mut t = tlb();
        t.lookup(1);
        t.lookup(2);
        t.set_hot(1, 3);
        t.set_hot(2, 4);
        assert_eq!(t.clear_epoch(3), 1);
        assert!(!t.entry(1).unwrap().epoch_bit);
        assert!(t.entry(2).unwrap().epoch_bit);
    }

    #[test]
    fn capacity_eviction_loses_tracking() {
        // 8-entry L1 + 32-entry L2, pages all mapping across sets: insert
        // many more pages than capacity; early pages lose their metadata.
        let mut t = tlb();
        t.lookup(0);
        t.set_hot(0, 1);
        for p in 1..200 {
            t.lookup(p);
        }
        // Page 0 may have been evicted — looking it up again yields a cold
        // fresh entry.
        let (_, e) = t.lookup(0);
        assert!(!e.epoch_bit, "evicted page must come back cold");
    }

    #[test]
    fn l2_hit_promotes() {
        let mut t = TwoLevelTlb::new(4, 4, 64, 4);
        // Fill L1's single... use distinct pages in same set to force
        // demotion of page 0 to L2.
        t.lookup(0);
        t.lookup(4);
        t.lookup(8);
        t.lookup(12);
        t.lookup(16); // evicts LRU (0) to L2
        let (r, _) = t.lookup(0);
        assert_eq!(r, TlbLookup::HitL2);
    }
}
