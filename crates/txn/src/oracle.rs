//! Shadow oracle for crash-atomicity verification.

use std::collections::HashMap;

use specpmt_pmem::CrashImage;

/// Tracks the byte-level state that a crash-consistent runtime must expose
/// after recovery: the value last written by a **committed** transaction (or
/// the pre-existing value if no committed transaction ever wrote the byte).
///
/// Drivers mirror every transactional write into the oracle; on
/// [`commit`](Self::commit) the pending writes become expected state, on
/// [`abort`](Self::abort) (or a crash mid-transaction) they are discarded.
#[derive(Debug, Clone, Default)]
pub struct CommitOracle {
    committed: HashMap<usize, u8>,
    pending: HashMap<usize, u8>,
    /// `true` between [`begin`](Self::begin) and
    /// [`commit`](Self::commit) / [`abort`](Self::abort).
    tx_open: bool,
}

impl CommitOracle {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the start of a transaction.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin(&mut self) {
        assert!(!self.tx_open, "oracle: nested transaction");
        self.tx_open = true;
        self.pending.clear();
    }

    /// Records a transactional write of `data` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.tx_open, "oracle: write outside transaction");
        for (i, &b) in data.iter().enumerate() {
            self.pending.insert(addr + i, b);
        }
    }

    /// Commits the open transaction: pending writes become expected state.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit(&mut self) {
        assert!(self.tx_open, "oracle: commit outside transaction");
        self.tx_open = false;
        for (a, b) in self.pending.drain() {
            self.committed.insert(a, b);
        }
    }

    /// Discards the open transaction's writes (abort or crash).
    pub fn abort(&mut self) {
        self.tx_open = false;
        self.pending.clear();
    }

    /// The value a committed-state read of `addr` must observe, if any
    /// committed transaction wrote it.
    pub fn expected(&self, addr: usize) -> Option<u8> {
        self.committed.get(&addr).copied()
    }

    /// Expected committed `u64` at `addr`, if all 8 bytes were committed.
    pub fn expected_u64(&self, addr: usize) -> Option<u64> {
        let mut b = [0u8; 8];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = self.expected(addr + i)?;
        }
        Some(u64::from_le_bytes(b))
    }

    /// Iterates over `(addr, expected_value)` for every byte written by a
    /// committed transaction, in no particular order.
    pub fn committed_bytes(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.committed.iter().map(|(&a, &b)| (a, b))
    }

    /// Checks a recovered image against the committed state.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching byte.
    pub fn verify(&self, image: &CrashImage) -> Result<(), String> {
        let bytes = image.as_bytes();
        for (&addr, &want) in &self.committed {
            let got = bytes[addr];
            if got != want {
                return Err(format!(
                    "addr {addr:#x}: recovered {got:#04x}, committed state requires {want:#04x}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_writes_become_expected() {
        let mut o = CommitOracle::new();
        o.begin();
        o.write(10, &[1, 2]);
        o.commit();
        assert_eq!(o.expected(10), Some(1));
        assert_eq!(o.expected(11), Some(2));
        assert_eq!(o.expected(12), None);
    }

    #[test]
    fn aborted_writes_are_discarded() {
        let mut o = CommitOracle::new();
        o.begin();
        o.write(10, &[1]);
        o.abort();
        assert_eq!(o.expected(10), None);
    }

    #[test]
    fn later_commit_wins() {
        let mut o = CommitOracle::new();
        o.begin();
        o.write(0, &[1]);
        o.commit();
        o.begin();
        o.write(0, &[2]);
        o.commit();
        assert_eq!(o.expected(0), Some(2));
    }

    #[test]
    fn expected_u64_roundtrip() {
        let mut o = CommitOracle::new();
        o.begin();
        o.write(8, &0xABCDu64.to_le_bytes());
        o.commit();
        assert_eq!(o.expected_u64(8), Some(0xABCD));
        assert_eq!(o.expected_u64(9), None);
    }

    #[test]
    fn verify_detects_mismatch() {
        let mut o = CommitOracle::new();
        o.begin();
        o.write(0, &[7]);
        o.commit();
        let img = CrashImage::new(vec![7, 0, 0, 0]);
        assert!(o.verify(&img).is_ok());
        let bad = CrashImage::new(vec![6, 0, 0, 0]);
        let err = o.verify(&bad).unwrap_err();
        assert!(err.contains("0x0"));
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nested_begin_panics() {
        let mut o = CommitOracle::new();
        o.begin();
        o.begin();
    }
}
