//! Address geometry helpers: cache lines, persistence words, XPLines.

/// Cache line size in bytes (x86).
pub const CACHE_LINE: usize = 64;

/// Persistence atomicity granule in bytes. x86 guarantees that aligned
/// 8-byte stores reach the persistence domain atomically; anything larger
/// can tear across a crash.
pub const PERSIST_WORD: usize = 8;

/// Optane media write granule ("XPLine"). Flushes of lines that fall in the
/// same XPLine as the previous flush hit the on-DIMM write-combining buffer
/// and are serviced faster, which is why sequential log writes beat random
/// data writes on real hardware.
pub const XPLINE: usize = 256;

/// Index of the cache line containing byte address `addr`.
#[inline]
pub fn line_of(addr: usize) -> usize {
    addr / CACHE_LINE
}

/// First byte address of cache line `line`.
#[inline]
pub fn line_start(line: usize) -> usize {
    line * CACHE_LINE
}

/// Index of the 8-byte persistence word containing byte address `addr`.
#[inline]
pub fn word_of(addr: usize) -> usize {
    addr / PERSIST_WORD
}

/// Index of the XPLine containing cache line `line`.
#[inline]
pub fn xpline_of_line(line: usize) -> usize {
    line * CACHE_LINE / XPLINE
}

/// iMC interleave granularity: consecutive 4 KiB chunks of the physical
/// address space map to successive media channels (DIMMs), as on the
/// paper's interleaved Optane platform. Coarser than an XPLine, so a
/// sequential stream stays on one DIMM long enough to keep hitting its
/// write-combining buffer before rotating to the next.
pub const INTERLEAVE_BYTES: usize = 4096;

/// Media channel that serves XPLine `xp` on a device with `channels`
/// channels (`channels` must be non-zero).
#[inline]
pub fn channel_of_xpline(xp: usize, channels: usize) -> usize {
    (xp * XPLINE / INTERLEAVE_BYTES) % channels
}

/// The cache-line indices touched by `[addr, addr + len)`, ascending (the
/// line of `addr` when `len == 0`).
#[inline]
pub fn lines_touching(addr: usize, len: usize) -> std::ops::RangeInclusive<usize> {
    let first = line_of(addr);
    let last = if len == 0 { first } else { line_of(addr + len - 1) };
    first..=last
}

/// Flush planning: collapses a commit's dirty byte ranges into the sorted,
/// deduplicated list of cache-line indices they touch, written into `out`
/// (cleared first; its capacity is reused, so steady-state planning is
/// allocation-free).
///
/// Zero-length ranges are skipped. The result is exactly the line set a
/// range-at-a-time `clwb` loop would have flushed, in ascending order —
/// the shape the vectored `clwb_lines` APIs require — so coalescing
/// changes *which locks are taken how often*, never *which lines persist*.
pub fn coalesce_lines(ranges: &[(usize, usize)], out: &mut Vec<usize>) {
    out.clear();
    for &(addr, len) in ranges {
        if len == 0 {
            continue;
        }
        for l in lines_touching(addr, len) {
            // Adjacent dedup catches the common case (log appends produce
            // runs of contiguous ranges) and keeps the sort input short.
            if out.last() != Some(&l) {
                out.push(l);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_start(2), 128);
    }

    #[test]
    fn word_math() {
        assert_eq!(word_of(7), 0);
        assert_eq!(word_of(8), 1);
    }

    #[test]
    fn xpline_groups_four_lines() {
        assert_eq!(xpline_of_line(0), 0);
        assert_eq!(xpline_of_line(3), 0);
        assert_eq!(xpline_of_line(4), 1);
    }

    #[test]
    fn coalesce_lines_sorts_dedups_and_skips_empty() {
        let mut out = Vec::new();
        // Out-of-order, overlapping, straddling, and empty ranges.
        coalesce_lines(&[(300, 8), (0, 65), (60, 8), (128, 0), (64, 4)], &mut out);
        assert_eq!(out, vec![0, 1, 4]);
        // Reuse keeps correctness (and capacity).
        let cap = out.capacity();
        coalesce_lines(&[(640, 1)], &mut out);
        assert_eq!(out, vec![10]);
        assert_eq!(out.capacity(), cap);
        coalesce_lines(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn touching_lines_spans() {
        let v: Vec<_> = lines_touching(60, 8).collect();
        assert_eq!(v, vec![0, 1]);
        let v: Vec<_> = lines_touching(0, 64).collect();
        assert_eq!(v, vec![0]);
        let v: Vec<_> = lines_touching(10, 0).collect();
        assert_eq!(v, vec![0]);
    }
}
