//! The per-shard persistent hash table, generic over [`TxAccess`].
//!
//! A fixed-capacity open-addressing table of `(tenant, key) → value`
//! entries, 24 bytes per slot:
//!
//! ```text
//! word 0: state (2 bits: 0 empty / 1 live / 2 tombstone) | tenant << 2
//! word 1: key
//! word 2: value
//! ```
//!
//! Every mutation happens through transactional writes, so a slot is
//! always either fully the old entry or fully the new one after recovery —
//! the table inherits crash atomicity from the runtime instead of
//! implementing its own. Probing starts at the same identity hash the
//! shard router uses ([`ShardRouter::identity_hash`]), stops at the first
//! empty slot, and steps linearly; deletes leave tombstones that later
//! inserts reuse, so the "first empty" rule stays correct without
//! rehashing.

use specpmt_pmem::CrashImage;
use specpmt_txn::TxAccess;

use crate::router::ShardRouter;

/// Bytes per slot (three u64 words).
pub const SLOT_BYTES: usize = 24;

const STATE_EMPTY: u64 = 0;
const STATE_LIVE: u64 = 1;
const STATE_TOMB: u64 = 2;
const STATE_MASK: u64 = 0b11;

/// Outcome of a compare-and-swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The expectation held and the new value was written.
    Applied,
    /// The expectation failed; carries the value actually present
    /// (`None` = key absent).
    Mismatch(Option<u64>),
}

/// The table is out of free slots for a new key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

/// A fixed-capacity persistent hash table rooted at `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTable {
    base: usize,
    capacity: usize,
}

impl ShardTable {
    /// Allocates and persists the zeroed table region through `tx`'s
    /// untimed setup path ([`TxAccess::setup_alloc`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or the pool heap cannot
    /// hold the region.
    pub fn create<A: TxAccess>(tx: &mut A, capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "capacity must be a power of two");
        let base = tx.setup_alloc(capacity * SLOT_BYTES, 64);
        Self { base, capacity }
    }

    /// Base address of slot 0.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn slot_addr(&self, idx: usize) -> usize {
        self.base + idx * SLOT_BYTES
    }

    fn start_index(&self, tenant: u32, key: u64) -> usize {
        (ShardRouter::identity_hash(tenant, key) as usize) & (self.capacity - 1)
    }

    /// Finds the live slot of `(tenant, key)`, or `None` if absent.
    fn find_live<A: TxAccess>(&self, tx: &mut A, tenant: u32, key: u64) -> Option<usize> {
        let mut idx = self.start_index(tenant, key);
        for _ in 0..self.capacity {
            let addr = self.slot_addr(idx);
            let meta = tx.read_u64(addr);
            match meta & STATE_MASK {
                STATE_EMPTY => return None,
                STATE_LIVE if meta >> 2 == tenant as u64 && tx.read_u64(addr + 8) == key => {
                    return Some(idx);
                }
                _ => {}
            }
            idx = (idx + 1) & (self.capacity - 1);
        }
        None
    }

    /// Finds the slot to write `(tenant, key)` into: the existing live
    /// slot if present (`.1 == true`), else the first reusable slot.
    fn find_insert<A: TxAccess>(
        &self,
        tx: &mut A,
        tenant: u32,
        key: u64,
    ) -> Result<(usize, bool), TableFull> {
        let mut idx = self.start_index(tenant, key);
        let mut reusable: Option<usize> = None;
        for _ in 0..self.capacity {
            let addr = self.slot_addr(idx);
            let meta = tx.read_u64(addr);
            match meta & STATE_MASK {
                STATE_EMPTY => return Ok((reusable.unwrap_or(idx), false)),
                STATE_TOMB if reusable.is_none() => reusable = Some(idx),
                STATE_TOMB => {}
                _ if meta >> 2 == tenant as u64 && tx.read_u64(addr + 8) == key => {
                    return Ok((idx, true));
                }
                _ => {}
            }
            idx = (idx + 1) & (self.capacity - 1);
        }
        reusable.map(|idx| (idx, false)).ok_or(TableFull)
    }

    /// Point lookup. Call inside an open transaction.
    pub fn get<A: TxAccess>(&self, tx: &mut A, tenant: u32, key: u64) -> Option<u64> {
        self.find_live(tx, tenant, key).map(|idx| tx.read_u64(self.slot_addr(idx) + 16))
    }

    /// Insert-or-update. Call inside an open transaction.
    ///
    /// # Errors
    ///
    /// [`TableFull`] when no empty or reusable slot remains.
    pub fn put<A: TxAccess>(
        &self,
        tx: &mut A,
        tenant: u32,
        key: u64,
        value: u64,
    ) -> Result<(), TableFull> {
        let (idx, existing) = self.find_insert(tx, tenant, key)?;
        let addr = self.slot_addr(idx);
        if !existing {
            tx.write_u64(addr, STATE_LIVE | (tenant as u64) << 2);
            tx.write_u64(addr + 8, key);
        }
        tx.write_u64(addr + 16, value);
        Ok(())
    }

    /// Tombstones `(tenant, key)`; returns whether it was present.
    pub fn delete<A: TxAccess>(&self, tx: &mut A, tenant: u32, key: u64) -> bool {
        match self.find_live(tx, tenant, key) {
            Some(idx) => {
                tx.write_u64(self.slot_addr(idx), STATE_TOMB | (tenant as u64) << 2);
                true
            }
            None => false,
        }
    }

    /// Compare-and-swap: writes `new` iff the current value matches
    /// `expected` (`None` = expect absent, which inserts).
    ///
    /// # Errors
    ///
    /// [`TableFull`] when an expect-absent CAS finds no free slot.
    pub fn cas<A: TxAccess>(
        &self,
        tx: &mut A,
        tenant: u32,
        key: u64,
        expected: Option<u64>,
        new: u64,
    ) -> Result<CasOutcome, TableFull> {
        let current = self.get(tx, tenant, key);
        if current != expected {
            return Ok(CasOutcome::Mismatch(current));
        }
        self.put(tx, tenant, key, new)?;
        Ok(CasOutcome::Applied)
    }

    /// Collects up to `limit` live `(key, value)` entries of `tenant`,
    /// probing forward from `start_key`'s slot. A bounded, transactional
    /// "neighborhood scan" — the multi-read op class of the service.
    pub fn scan<A: TxAccess>(
        &self,
        tx: &mut A,
        tenant: u32,
        start_key: u64,
        limit: usize,
    ) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(limit);
        let mut idx = self.start_index(tenant, start_key);
        for _ in 0..self.capacity {
            if out.len() >= limit {
                break;
            }
            let addr = self.slot_addr(idx);
            let meta = tx.read_u64(addr);
            if meta & STATE_MASK == STATE_LIVE && meta >> 2 == tenant as u64 {
                out.push((tx.read_u64(addr + 8), tx.read_u64(addr + 16)));
            }
            idx = (idx + 1) & (self.capacity - 1);
        }
        out
    }

    /// Reads `(tenant, key)` straight from a recovered [`CrashImage`] —
    /// the verification-side twin of [`ShardTable::get`].
    pub fn get_in_image(&self, img: &CrashImage, tenant: u32, key: u64) -> Option<u64> {
        let mut idx = self.start_index(tenant, key);
        for _ in 0..self.capacity {
            let addr = self.slot_addr(idx);
            let meta = img.read_u64(addr);
            match meta & STATE_MASK {
                STATE_EMPTY => return None,
                STATE_LIVE if meta >> 2 == tenant as u64 && img.read_u64(addr + 8) == key => {
                    return Some(img.read_u64(addr + 16));
                }
                _ => {}
            }
            idx = (idx + 1) & (self.capacity - 1);
        }
        None
    }
}
