//! Two-level TLB with SpecPMT's EpochBit + hotness counter (Fig. 9).

use crate::assoc::{SetAssoc, Way};

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
}

/// What a TLB way holds beside its page number and LRU stamp.
#[derive(Debug, Clone, Copy)]
struct Meta {
    epoch_bit: bool,
    cnt_or_eid: u8,
}

fn entry_of(w: &Way<Meta>) -> TlbEntry {
    TlbEntry { page: w.key, epoch_bit: w.val.epoch_bit, cnt_or_eid: w.val.cnt_or_eid }
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

/// L1 + L2 TLB pair with epoch metadata.
#[derive(Debug, Clone)]
pub struct TwoLevelTlb {
    l1: SetAssoc<Meta>,
    l2: SetAssoc<Meta>,
    tick: u64,
}

impl TwoLevelTlb {
    /// Creates the TLB pair.
    ///
    /// # Panics
    ///
    /// Panics if a level's entries do not divide into its ways.
    pub fn new(l1_entries: usize, l1_ways: usize, l2_entries: usize, l2_ways: usize) -> Self {
        let level = |entries: usize, ways: usize| {
            assert!(entries.is_multiple_of(ways), "entries must divide into ways");
            SetAssoc::new(entries / ways, ways)
        };
        Self { l1: level(l1_entries, l1_ways), l2: level(l2_entries, l2_ways), tick: 0 }
    }

    /// Looks up `page`, inserting a fresh cold entry on a miss. An entry
    /// evicted from the L2 TLB loses its metadata — the page silently
    /// becomes cold, exactly the paper's bounded-tracking property.
    pub fn lookup(&mut self, page: usize) -> (TlbLookup, TlbEntry) {
        self.tick += 1;
        let lru = self.tick;
        if let Some(w) = self.l1.get_mut(page) {
            w.lru = lru;
            return (TlbLookup::HitL1, entry_of(w));
        }
        let (kind, val) = match self.l2.take(page) {
            Some(w) => (TlbLookup::HitL2, w.val),
            None => (TlbLookup::Miss, Meta { epoch_bit: false, cnt_or_eid: 0 }),
        };
        let way = Way { key: page, lru, val };
        if let Some(demoted) = self.l1.insert(way) {
            // Demotion keeps the L1 stamp, and may drop an L2 entry
            // entirely (tracking lost).
            self.l2.insert(demoted);
        }
        (kind, entry_of(&way))
    }

    fn resident(&mut self, page: usize) -> Option<&mut Way<Meta>> {
        self.l1.get_mut(page).or_else(|| self.l2.get_mut(page))
    }

    /// Increments the hotness counter of a resident cold page (saturating
    /// at 7) and returns the new value. No-op (returning the EID) for hot
    /// pages.
    pub fn bump_counter(&mut self, page: usize) -> u8 {
        let Some(Way { val: e, .. }) = self.resident(page) else { return 0 };
        if !e.epoch_bit {
            e.cnt_or_eid = (e.cnt_or_eid + 1).min(7);
        }
        e.cnt_or_eid
    }

    /// Marks a resident page hot with the given epoch ID.
    pub fn set_hot(&mut self, page: usize, eid: u8) {
        if let Some(w) = self.resident(page) {
            w.val = Meta { epoch_bit: true, cnt_or_eid: eid };
        }
    }

    /// Metadata for a resident page.
    pub fn entry(&mut self, page: usize) -> Option<TlbEntry> {
        self.resident(page).map(|w| entry_of(w))
    }

    /// The `clearepoch EID` instruction: flash-clears the EpochBit and
    /// counter of every entry (both levels) whose epoch matches `eid`.
    /// Returns how many pages were cleared.
    pub fn clear_epoch(&mut self, eid: u8) -> usize {
        let mut cleared = 0;
        for w in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            if w.val.epoch_bit && w.val.cnt_or_eid == eid {
                w.val = Meta { epoch_bit: false, cnt_or_eid: 0 };
                cleared += 1;
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

    #[test]
    fn the_stamp_survives_demotion() {
        // Two one-way L1 sets feed one two-way L2 set, so L2 can receive
        // an older stamp after a younger one: page 1 is demoted last but
        // was stamped first, and it is the one L2 gives up.
        let mut t = TwoLevelTlb::new(2, 1, 2, 2);
        t.lookup(1);
        t.lookup(2);
        t.lookup(4); // demotes 2 (stamp 2)
        t.lookup(3); // demotes 1 (stamp 1)
        assert_eq!(t.l2.get(2).map(|w| w.lru), Some(2), "demotion must not restamp");
        assert_eq!(t.l2.get(1).map(|w| w.lru), Some(1));
        t.lookup(6); // demotes 4 (stamp 3) into the full L2 set
        assert_eq!(t.lookup(2).0, TlbLookup::HitL2);
        assert_eq!(t.lookup(1).0, TlbLookup::Miss, "the oldest stamp, not the oldest arrival");
    }
}
