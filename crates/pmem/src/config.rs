//! Device configuration: size and timing parameters.

/// The largest device capacity: 2^48 bytes, so every pool offset fits the
/// 48 bits a log entry header stores it in.
pub const MAX_POOL_BYTES: usize = 1 << 48;

/// Configuration for a [`crate::PmemDevice`].
///
/// The defaults follow the paper's Table 1 PM parameters (150 ns read,
/// 500 ns write, 512 B WPQ) plus Optane behaviour reported by the empirical
/// studies the paper cites: on-DIMM 256 B write combining makes sequential
/// flushes substantially cheaper than random ones.
#[derive(Debug, Clone, PartialEq)]
pub struct PmemConfig {
    /// Device capacity in bytes. Rounded up to a cache-line multiple; at
    /// most [`MAX_POOL_BYTES`].
    pub size: usize,
    /// Latency charged to a thread for issuing a `clwb` (the instruction
    /// itself is cheap; the persist happens asynchronously).
    pub clwb_issue_ns: u64,
    /// Base cost of an `sfence` even when nothing is pending.
    pub sfence_base_ns: u64,
    /// PM media *occupancy* for a 64 B line write that opens a new XPLine
    /// (inverse random-write bandwidth: ~130 ns/line ≈ 0.5 GB/s, the
    /// Optane behaviour PerMA-bench reports). End-to-end persist *latency*
    /// is `wpq_accept_ns` plus queueing; Table 1's 500 ns write latency is
    /// the hardware model's concern (`specpmt-hwsim`).
    pub line_write_ns: u64,
    /// PM media occupancy for a 64 B line write that hits the currently
    /// open XPLine (sequential write-combining: ~32 ns/line ≈ 2 GB/s).
    pub line_write_seq_ns: u64,
    /// PM read latency for a line (used by the hardware model and charged on
    /// reads that miss the "cached" assumption).
    pub line_read_ns: u64,
    /// Time from `clwb` issue to WPQ acceptance (the instant a flush enters
    /// the persistence domain under ADR), given a free WPQ slot. Until
    /// acceptance an in-flight flush may be lost by a crash. Under ADR the
    /// persistence domain is the memory controller's WPQ, so acceptance is
    /// a cache-to-iMC round trip (~100 ns), not a media write; concurrent
    /// flushes overlap, so a fence over N lines costs far less than N
    /// round trips — but sustained flushing backs the WPQ up against media
    /// occupancy and stalls later fences.
    pub wpq_accept_ns: u64,
    /// Number of line persists the WPQ can have in flight concurrently.
    /// Fences wait only for completion, so independent flushes overlap up to
    /// this parallelism.
    pub wpq_entries: usize,
    /// Cost of a regular cached store, charged per 8-byte word.
    pub store_word_ns: u64,
    /// Cost of a cached load, charged per 8-byte word.
    pub load_word_ns: u64,
    /// Number of interleaved media channels (DIMMs). Consecutive 4 KiB
    /// chunks of the address space stripe round-robin across channels
    /// (iMC interleaving), each with independent occupancy and its own
    /// write-pending queue, so aggregate media bandwidth scales with the
    /// channel count. The default of 1 models a single DIMM (the
    /// conservative single-channel model); the paper's evaluation platform
    /// interleaves 6 per socket.
    pub media_channels: usize,
}

impl PmemConfig {
    /// The default [`Self::line_read_ns`]: Table 1's 150 ns PM read.
    pub const DEFAULT_LINE_READ_NS: u64 = 150;

    /// Creates a configuration with default timing and the given capacity.
    pub fn new(size: usize) -> Self {
        Self::default().with_size(size)
    }

    /// Returns `self` with the capacity replaced. Every device is built
    /// through here, so this is where a pool too large for a log entry to
    /// address is refused.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds [`MAX_POOL_BYTES`].
    #[must_use]
    pub fn with_size(mut self, size: usize) -> Self {
        assert!(size <= MAX_POOL_BYTES, "a {size}-byte pool exceeds the 2^48-byte offset space");
        self.size = size.next_multiple_of(crate::CACHE_LINE);
        self
    }

    /// Returns `self` with the media channel (DIMM) count replaced.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    #[must_use]
    pub fn with_media_channels(mut self, channels: usize) -> Self {
        assert!(channels > 0, "at least one media channel");
        self.media_channels = channels;
        self
    }

    /// Returns `self` with all timing costs zeroed — useful for pure
    /// correctness tests where simulated time is irrelevant.
    #[must_use]
    pub fn untimed(mut self) -> Self {
        self.clwb_issue_ns = 0;
        self.sfence_base_ns = 0;
        self.line_write_ns = 0;
        self.line_write_seq_ns = 0;
        self.line_read_ns = 0;
        self.wpq_accept_ns = 0;
        self.store_word_ns = 0;
        self.load_word_ns = 0;
        self
    }
}

impl Default for PmemConfig {
    fn default() -> Self {
        Self {
            size: 1 << 20,
            clwb_issue_ns: 10,
            sfence_base_ns: 20,
            line_write_ns: 280,
            line_write_seq_ns: 32,
            line_read_ns: Self::DEFAULT_LINE_READ_NS,
            wpq_accept_ns: 100,
            wpq_entries: 8,
            store_word_ns: 1,
            load_word_ns: 1,
            media_channels: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_rounds_to_line() {
        let c = PmemConfig::new(100);
        assert_eq!(c.size, 128);
    }

    /// The largest pool is configured as asked (nothing is allocated
    /// here); one line more is refused.
    #[test]
    fn a_pool_past_the_entry_offset_space_is_refused() {
        assert_eq!(PmemConfig::new(MAX_POOL_BYTES).size, MAX_POOL_BYTES);
        let refused = std::panic::catch_unwind(|| PmemConfig::new(MAX_POOL_BYTES + 1));
        assert!(refused.is_err());
    }

    #[test]
    fn untimed_zeroes_costs() {
        let c = PmemConfig::new(4096).untimed();
        assert_eq!(c.line_write_ns, 0);
        assert_eq!(c.sfence_base_ns, 0);
    }

    #[test]
    fn default_matches_table1() {
        let c = PmemConfig::default();
        assert_eq!(c.line_read_ns, 150);
        // Random media occupancy exceeds the sequential one by ~4x (the
        // XPLine write-combining asymmetry).
        assert!(c.line_write_ns >= 4 * c.line_write_seq_ns);
    }
}
