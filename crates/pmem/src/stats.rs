//! Counters exposed by the device.

use specpmt_telemetry::{JsonWriter, OwnedCounter, StatExport};

/// Event counters accumulated by a [`crate::PmemDevice`].
///
/// Timing-off phases (see [`crate::TimingMode`]) still update the volatile
/// and persisted images but do **not** contribute to these counters, so
/// setup work can be excluded from measurements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PmemStats {
    /// `clwb`/`clflushopt` instructions issued.
    pub clwb_count: u64,
    /// `sfence` instructions executed.
    pub sfence_count: u64,
    /// Nanoseconds spent stalled in fences waiting for the WPQ to drain.
    pub fence_stall_ns: u64,
    /// Cache lines written to PM media (each counts [`crate::CACHE_LINE`] bytes).
    pub lines_persisted: u64,
    /// Of [`Self::lines_persisted`], how many hit the open XPLine
    /// (sequential-write discount).
    pub seq_line_hits: u64,
    /// Bytes stored by the CPU (volatile image updates).
    pub bytes_stored: u64,
    /// Bytes loaded by the CPU.
    pub bytes_loaded: u64,
}

impl PmemStats {
    /// Total bytes of PM media write traffic.
    pub fn pm_write_bytes(&self) -> u64 {
        self.lines_persisted * crate::CACHE_LINE as u64
    }

    /// Difference `self - earlier`, for measuring a phase.
    ///
    /// Each field saturates at zero: snapshots taken across a
    /// [`crate::TimingMode`] toggle (or otherwise crossed) must not wrap
    /// to astronomically large "deltas" — a clamped 0 is the honest
    /// answer for a counter that did not advance.
    #[must_use]
    pub fn delta_since(&self, earlier: &PmemStats) -> PmemStats {
        PmemStats {
            clwb_count: self.clwb_count.saturating_sub(earlier.clwb_count),
            sfence_count: self.sfence_count.saturating_sub(earlier.sfence_count),
            fence_stall_ns: self.fence_stall_ns.saturating_sub(earlier.fence_stall_ns),
            lines_persisted: self.lines_persisted.saturating_sub(earlier.lines_persisted),
            seq_line_hits: self.seq_line_hits.saturating_sub(earlier.seq_line_hits),
            bytes_stored: self.bytes_stored.saturating_sub(earlier.bytes_stored),
            bytes_loaded: self.bytes_loaded.saturating_sub(earlier.bytes_loaded),
        }
    }
}

/// One [`crate::DeviceHandle`]'s share of [`PmemStats`]: the same
/// counters, written by that handle alone and summed over handles by
/// whoever reads the device's totals.
#[derive(Debug, Default)]
pub(crate) struct OwnedStats {
    pub(crate) clwb_count: OwnedCounter,
    pub(crate) sfence_count: OwnedCounter,
    pub(crate) fence_stall_ns: OwnedCounter,
    pub(crate) lines_persisted: OwnedCounter,
    pub(crate) seq_line_hits: OwnedCounter,
    pub(crate) bytes_stored: OwnedCounter,
    pub(crate) bytes_loaded: OwnedCounter,
}

impl OwnedStats {
    /// Adds a retiring handle's counters to this cell's.
    pub(crate) fn absorb(&self, other: &OwnedStats) {
        self.clwb_count.add(other.clwb_count.get());
        self.sfence_count.add(other.sfence_count.get());
        self.fence_stall_ns.add(other.fence_stall_ns.get());
        self.lines_persisted.add(other.lines_persisted.get());
        self.seq_line_hits.add(other.seq_line_hits.get());
        self.bytes_stored.add(other.bytes_stored.get());
        self.bytes_loaded.add(other.bytes_loaded.get());
    }

    pub(crate) fn add_into(&self, total: &mut PmemStats) {
        total.clwb_count += self.clwb_count.get();
        total.sfence_count += self.sfence_count.get();
        total.fence_stall_ns += self.fence_stall_ns.get();
        total.lines_persisted += self.lines_persisted.get();
        total.seq_line_hits += self.seq_line_hits.get();
        total.bytes_stored += self.bytes_stored.get();
        total.bytes_loaded += self.bytes_loaded.get();
    }
}

impl StatExport for PmemStats {
    fn export_name(&self) -> &'static str {
        "pmem"
    }

    fn emit(&self, w: &mut JsonWriter) {
        w.field_u64("clwb_count", self.clwb_count);
        w.field_u64("sfence_count", self.sfence_count);
        w.field_u64("fence_stall_ns", self.fence_stall_ns);
        w.field_u64("lines_persisted", self.lines_persisted);
        w.field_u64("seq_line_hits", self.seq_line_hits);
        w.field_u64("bytes_stored", self.bytes_stored);
        w.field_u64("bytes_loaded", self.bytes_loaded);
        w.field_u64("pm_write_bytes", self.pm_write_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_write_bytes_scales_by_line() {
        let s = PmemStats { lines_persisted: 3, ..PmemStats::default() };
        assert_eq!(s.pm_write_bytes(), 192);
    }

    #[test]
    fn delta_subtracts() {
        let a = PmemStats { clwb_count: 10, sfence_count: 4, ..PmemStats::default() };
        let b = PmemStats { clwb_count: 3, sfence_count: 1, ..PmemStats::default() };
        let d = a.delta_since(&b);
        assert_eq!(d.clwb_count, 7);
        assert_eq!(d.sfence_count, 3);
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        // Crossed snapshots (e.g. operands swapped around a TimingMode
        // toggle where some counters froze) must clamp at 0, not wrap.
        let frozen = PmemStats { clwb_count: 5, bytes_stored: 100, ..PmemStats::default() };
        let advanced = PmemStats { clwb_count: 9, bytes_stored: 40, ..PmemStats::default() };
        let d = frozen.delta_since(&advanced);
        assert_eq!(d.clwb_count, 0, "regressed counter clamps to zero");
        assert_eq!(d.bytes_stored, 60);
    }

    #[test]
    fn delta_across_timing_toggle_never_wraps() {
        // Regression: a bench phase that snapshots around a TimingMode
        // toggle can end up with crossed operands (the "before" snapshot
        // taken after counters froze). The delta must clamp, not wrap to
        // ~u64::MAX.
        use crate::{PmemConfig, PmemDevice, TimingMode};
        let mut dev = PmemDevice::new(PmemConfig::new(1 << 16));
        dev.write(0, &[1u8; 64]);
        dev.clwb(0);
        dev.sfence();
        let live = dev.stats().clone();
        dev.set_timing(TimingMode::Off);
        dev.write(64, &[2u8; 64]);
        dev.clwb(64);
        dev.sfence();
        let frozen = dev.stats().clone();
        // Timing-off work contributes nothing: forward delta is all-zero.
        let fwd = frozen.delta_since(&live);
        assert_eq!(fwd, PmemStats::default());
        // Crossed operands (the underflow bug): every field clamps to 0.
        let crossed = live.delta_since(&frozen);
        assert!(crossed.clwb_count < 1 << 32, "must not wrap");
        assert_eq!(crossed, PmemStats::default());
    }

    #[test]
    fn emit_produces_full_schema() {
        let s = PmemStats { clwb_count: 2, sfence_count: 1, ..PmemStats::default() };
        let j = s.to_json();
        for key in [
            "clwb_count",
            "sfence_count",
            "fence_stall_ns",
            "lines_persisted",
            "seq_line_hits",
            "bytes_stored",
            "bytes_loaded",
            "pm_write_bytes",
        ] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
        assert!(j.contains("\"sfence_count\":1"));
    }
}
