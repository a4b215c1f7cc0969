//! Set-associative cache with SpecPMT's per-line flag bits.

/// Cache line size in bytes.
pub const LINE: usize = 64;

/// One resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineState {
    /// Line-aligned byte address.
    addr: usize,
    dirty: bool,
    /// PBit: must persist on eviction (inside or outside transactions).
    pbit: bool,
    /// LogBit: needs speculative logging at commit or eviction.
    logbit: bool,
    /// LRU stamp (higher = more recent).
    lru: u64,
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
    sets: usize,
    ways: usize,
    lines: Vec<Option<LineState>>,
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
        assert!(sets > 0 && ways > 0, "degenerate cache geometry");
        Self { sets, ways, lines: vec![None; sets * ways], tick: 0, logged_slots: Vec::new() }
    }

    fn set_of(&self, line_addr: usize) -> usize {
        (line_addr / LINE) % self.sets
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up `line_addr` without touching LRU state.
    pub fn contains(&self, line_addr: usize) -> bool {
        let set = self.set_of(line_addr);
        self.lines[self.slot_range(set)].iter().any(|l| l.is_some_and(|l| l.addr == line_addr))
    }

    /// Accesses a line (filling it on miss). Returns `(hit, evicted)`.
    pub fn access(&mut self, line_addr: usize, write: bool) -> (bool, Option<EvictedLine>) {
        debug_assert_eq!(line_addr % LINE, 0, "line address must be aligned");
        self.tick += 1;
        let set = self.set_of(line_addr);
        let range = self.slot_range(set);
        // Hit?
        for i in range.clone() {
            if let Some(l) = self.lines[i].as_mut() {
                if l.addr == line_addr {
                    l.lru = self.tick;
                    l.dirty |= write;
                    return (true, None);
                }
            }
        }
        // Miss: fill, evicting LRU if the set is full.
        let mut victim = None;
        for i in range.clone() {
            match &self.lines[i] {
                None => {
                    victim = Some((i, None));
                    break;
                }
                Some(l) => match victim {
                    Some((_, Some(LineState { lru, .. }))) if l.lru >= lru => {}
                    Some((_, None)) => {}
                    _ => victim = Some((i, Some(*l))),
                },
            }
        }
        let (slot, old) = victim.expect("set has at least one way");
        let evicted = old.map(|l| EvictedLine {
            addr: l.addr,
            dirty: l.dirty,
            pbit: l.pbit,
            logbit: l.logbit,
        });
        self.lines[slot] = Some(LineState {
            addr: line_addr,
            dirty: write,
            pbit: false,
            logbit: false,
            lru: self.tick,
        });
        (false, evicted)
    }

    /// Sets the SpecPMT flag bits on a resident line (no-op if absent).
    pub fn set_flags(&mut self, line_addr: usize, pbit: bool, logbit: bool) {
        let set = self.set_of(line_addr);
        for i in self.slot_range(set) {
            if let Some(l) = self.lines[i].as_mut() {
                if l.addr == line_addr {
                    l.pbit |= pbit;
                    if logbit && !l.logbit {
                        l.logbit = true;
                        self.logged_slots.push(i);
                    }
                    return;
                }
            }
        }
    }

    /// Returns the flags of a resident line: `(dirty, pbit, logbit)`.
    pub fn flags(&self, line_addr: usize) -> Option<(bool, bool, bool)> {
        let set = self.set_of(line_addr);
        for i in self.slot_range(set) {
            if let Some(l) = &self.lines[i] {
                if l.addr == line_addr {
                    return Some((l.dirty, l.pbit, l.logbit));
                }
            }
        }
        None
    }

    /// Clears the LogBit of every resident line (transaction commit); PBits
    /// are retained, as Section 5.1 specifies. Walks only the slots
    /// [`Self::set_flags`] set the bit in: a line filled into one of them
    /// since (its predecessor was evicted) arrived with the bit clear.
    pub fn clear_logbits(&mut self) {
        for i in self.logged_slots.drain(..) {
            if let Some(l) = self.lines[i].as_mut() {
                l.logbit = false;
            }
        }
    }

    /// Marks a resident line clean (it was written back by policy code).
    pub fn mark_clean(&mut self, line_addr: usize) {
        let set = self.set_of(line_addr);
        for i in self.slot_range(set) {
            if let Some(l) = self.lines[i].as_mut() {
                if l.addr == line_addr {
                    l.dirty = false;
                    return;
                }
            }
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
