//! Set-associative cache with SpecPMT's per-line flag bits.

use crate::assoc::{SetAssoc, Way};

/// Cache line size in bytes.
pub const LINE: usize = 64;

/// A resident line's state beside its address and LRU stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineState {
    dirty: bool,
    /// PBit: must persist on eviction (inside or outside transactions).
    pbit: bool,
    /// LogBit: needs speculative logging at commit or eviction.
    logbit: bool,
}

/// A line evicted to make room, reported to the policy layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned byte address.
    pub addr: usize,
    /// Whether the line was dirty.
    pub dirty: bool,
    /// PBit at eviction.
    pub pbit: bool,
    /// LogBit at eviction.
    pub logbit: bool,
}

/// LRU set-associative cache.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Keyed by line number (`addr / LINE`).
    lines: SetAssoc<LineState>,
    tick: u64,
    /// Slots whose LogBit [`Self::set_flags`] set since the last
    /// [`Self::clear_logbits`] — what a commit has to clear.
    logged_slots: Vec<usize>,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self { lines: SetAssoc::new(sets, ways), tick: 0, logged_slots: Vec::new() }
    }

    /// Looks up `line_addr` without touching LRU state.
    pub fn contains(&self, line_addr: usize) -> bool {
        self.lines.find(line_addr / LINE).is_some()
    }

    /// Accesses a line (filling it on miss). Returns `(hit, evicted)`.
    pub fn access(&mut self, line_addr: usize, write: bool) -> (bool, Option<EvictedLine>) {
        debug_assert_eq!(line_addr % LINE, 0, "line address must be aligned");
        self.tick += 1;
        let key = line_addr / LINE;
        if let Some(l) = self.lines.get_mut(key) {
            l.lru = self.tick;
            l.val.dirty |= write;
            return (true, None);
        }
        // Miss: fill, evicting LRU if the set is full.
        let val = LineState { dirty: write, pbit: false, logbit: false };
        let evicted = self.lines.insert(Way { key, lru: self.tick, val }).map(|l| EvictedLine {
            addr: l.key * LINE,
            dirty: l.val.dirty,
            pbit: l.val.pbit,
            logbit: l.val.logbit,
        });
        (false, evicted)
    }

    /// Sets the SpecPMT flag bits on a resident line (no-op if absent).
    pub fn set_flags(&mut self, line_addr: usize, pbit: bool, logbit: bool) {
        let Some(slot) = self.lines.find(line_addr / LINE) else { return };
        let l = &mut self.lines.slot_mut(slot).expect("find named an occupied slot").val;
        l.pbit |= pbit;
        if logbit && !l.logbit {
            l.logbit = true;
            self.logged_slots.push(slot);
        }
    }

    /// Returns the flags of a resident line: `(dirty, pbit, logbit)`.
    pub fn flags(&self, line_addr: usize) -> Option<(bool, bool, bool)> {
        self.lines.get(line_addr / LINE).map(|l| (l.val.dirty, l.val.pbit, l.val.logbit))
    }

    /// Clears the LogBit of every resident line (transaction commit); PBits
    /// are retained, as Section 5.1 specifies. Walks only the slots
    /// [`Self::set_flags`] set the bit in: a line filled into one of them
    /// since (its predecessor was evicted) arrived with the bit clear.
    pub fn clear_logbits(&mut self) {
        for slot in self.logged_slots.drain(..) {
            if let Some(l) = self.lines.slot_mut(slot) {
                l.val.logbit = false;
            }
        }
    }

    /// Marks a resident line clean (it was written back by policy code).
    pub fn mark_clean(&mut self, line_addr: usize) {
        if let Some(l) = self.lines.get_mut(line_addr / LINE) {
            l.val.dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(4, 2);
        let (hit, ev) = c.access(0, false);
        assert!(!hit && ev.is_none());
        let (hit, _) = c.access(0, true);
        assert!(hit);
        assert_eq!(c.flags(0), Some((true, false, false)));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = SetAssocCache::new(1, 2);
        c.access(0, true);
        c.access(64, false);
        c.access(0, false); // touch 0 so 64 is LRU
        let (_, ev) = c.access(128, false);
        let ev = ev.expect("eviction");
        assert_eq!(ev.addr, 64);
        assert!(!ev.dirty);
    }

    #[test]
    fn eviction_reports_flags() {
        let mut c = SetAssocCache::new(1, 1);
        c.access(0, true);
        c.set_flags(0, true, true);
        let (_, ev) = c.access(64, false);
        let ev = ev.unwrap();
        assert!(ev.dirty && ev.pbit && ev.logbit);
    }

    #[test]
    fn clear_logbits_keeps_pbits() {
        let mut c = SetAssocCache::new(2, 2);
        c.access(0, true);
        c.set_flags(0, true, true);
        c.clear_logbits();
        assert_eq!(c.flags(0), Some((true, true, false)));
    }

    #[test]
    fn clear_logbits_reaches_every_set_bit_and_spares_successors() {
        let mut c = SetAssocCache::new(2, 1);
        c.access(0, true);
        c.set_flags(0, false, true);
        c.set_flags(0, false, true); // already set: remembered once
        c.access(64, true);
        c.set_flags(64, true, true);
        // 128 evicts 0 from set 0 and arrives with the bit clear.
        c.access(128, true);
        assert_eq!(c.flags(128), Some((true, false, false)));
        c.clear_logbits();
        assert_eq!(c.flags(128), Some((true, false, false)));
        assert_eq!(c.flags(64), Some((true, true, false)));
        // Nothing is remembered across commits.
        c.set_flags(128, false, true);
        c.clear_logbits();
        assert_eq!(c.flags(128), Some((true, false, false)));
    }
}
