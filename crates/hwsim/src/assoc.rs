//! One set-associative LRU array, under both caches and both TLB levels.

/// One occupied way. The owner writes `lru` (higher = more recent); the
/// array only reads it to pick a victim, so an entry moved between two
/// arrays keeps its stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Way<T> {
    pub key: usize,
    pub lru: u64,
    pub val: T,
}

/// `sets × ways` slots; `key` lives in set `key % sets`.
#[derive(Debug, Clone)]
pub(crate) struct SetAssoc<T> {
    sets: usize,
    ways: usize,
    slots: Vec<Option<Way<T>>>,
}

impl<T: Copy> SetAssoc<T> {
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "degenerate set-associative geometry");
        Self { sets, ways, slots: vec![None; sets * ways] }
    }

    fn range(&self, key: usize) -> std::ops::Range<usize> {
        let set = key % self.sets;
        set * self.ways..(set + 1) * self.ways
    }

    /// The slot holding `key`.
    pub fn find(&self, key: usize) -> Option<usize> {
        let range = self.range(key);
        let way = self.slots[range.clone()].iter().position(|s| s.is_some_and(|w| w.key == key))?;
        Some(range.start + way)
    }

    pub fn get(&self, key: usize) -> Option<&Way<T>> {
        self.slots[self.find(key)?].as_ref()
    }

    pub fn get_mut(&mut self, key: usize) -> Option<&mut Way<T>> {
        let slot = self.find(key)?;
        self.slots[slot].as_mut()
    }

    /// The way in `slot` (as [`Self::find`] named it), whatever key holds
    /// it now.
    pub fn slot_mut(&mut self, slot: usize) -> Option<&mut Way<T>> {
        self.slots[slot].as_mut()
    }

    pub fn take(&mut self, key: usize) -> Option<Way<T>> {
        let slot = self.find(key)?;
        self.slots[slot].take()
    }

    /// Fills the first empty way of `way.key`'s set, else replaces the
    /// least recently stamped one (the first such), which is returned.
    pub fn insert(&mut self, way: Way<T>) -> Option<Way<T>> {
        // (slot, stamp) of the oldest way so far.
        let mut victim: Option<(usize, u64)> = None;
        for i in self.range(way.key) {
            let Some(w) = &self.slots[i] else {
                victim = Some((i, 0));
                break;
            };
            if victim.is_none_or(|(_, lru)| w.lru < lru) {
                victim = Some((i, w.lru));
            }
        }
        let (slot, _) = victim.expect("a set has at least one way");
        self.slots[slot].replace(way)
    }

    /// Every occupied way, in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Way<T>> {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::SplitMix64;

    /// The array against one unordered `Vec` per set: same hits, same
    /// victims, same contents, over a seeded mix of every operation.
    #[test]
    fn matches_a_naive_vec_per_set_model() {
        const SETS: usize = 4;
        const WAYS: usize = 3;
        let mut rng = SplitMix64::new(0x5e7a_550c);
        let mut arr: SetAssoc<u64> = SetAssoc::new(SETS, WAYS);
        let mut model: Vec<Vec<Way<u64>>> = vec![Vec::new(); SETS];
        let mut evictions = 0;
        for tick in 1..=20_000u64 {
            // 40 keys over 12 ways: sets stay full and keep evicting.
            let key = rng.below(40) as usize;
            let set = &mut model[key % SETS];
            let at = set.iter().position(|w| w.key == key);
            match rng.below(4) {
                0 => assert_eq!(arr.take(key), at.map(|i| set.swap_remove(i))),
                1 => {
                    // A touch, as the owners do it: restamp and mutate.
                    let hit = arr.get_mut(key).map(|w| {
                        (w.lru, w.val) = (tick, w.val + 1);
                        *w
                    });
                    let expect = at.map(|i| {
                        (set[i].lru, set[i].val) = (tick, set[i].val + 1);
                        set[i]
                    });
                    assert_eq!(hit, expect);
                }
                _ if at.is_some() => assert_eq!(arr.get(key), at.map(|i| &set[i])),
                _ => {
                    let way = Way { key, lru: tick, val: rng.next_u64() };
                    let oldest = (0..set.len()).min_by_key(|&i| set[i].lru);
                    let expect = oldest.filter(|_| set.len() == WAYS).map(|i| set.swap_remove(i));
                    set.push(way);
                    assert_eq!(arr.insert(way), expect, "victim at tick {tick}");
                    evictions += usize::from(expect.is_some());
                    let slot = arr.find(key).expect("just inserted");
                    assert_eq!(arr.slot_mut(slot).map(|w| *w), Some(way));
                }
            }
        }
        assert!(evictions > 1_000, "the mix must keep evicting, saw {evictions}");
        let mut left: Vec<Way<u64>> = arr.iter_mut().map(|w| *w).collect();
        let mut right: Vec<Way<u64>> = model.concat();
        left.sort_by_key(|w| w.key);
        right.sort_by_key(|w| w.key);
        assert_eq!(left, right);
    }
}
