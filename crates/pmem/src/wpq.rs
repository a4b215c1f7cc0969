//! What both devices share: the pending-flush record and the
//! write-pending-queue + media timing model.

use std::collections::VecDeque;

use crate::geometry::{channel_of_xpline, xpline_of_line, CACHE_LINE};
use crate::PmemConfig;

/// A line flush that has been issued but not yet fenced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingFlush {
    pub(crate) line: usize,
    /// Simulated time at which the line is accepted into the WPQ — the
    /// instant it enters the persistence domain under ADR.
    pub(crate) accepted_at: u64,
    /// Contents of the line at `clwb` time. A later store to the line does
    /// not change what this flush persists. Inline array (not `Vec`): the
    /// commit path issues one of these per dirty line, and heap traffic
    /// here would dominate the software cost being measured.
    pub(crate) snapshot: [u8; CACHE_LINE],
}

/// Per-channel WPQ slots, media occupancy and open XPLine.
///
/// [`crate::PmemDevice`] holds one by value; [`crate::SharedPmemDevice`]
/// holds one behind its WPQ mutex. Either way every line write-back — a
/// foreground `clwb` or a background-core write — goes through
/// [`WpqModel::accept`], so the two devices cannot drift apart on timing.
#[derive(Debug, Clone)]
pub(crate) struct WpqModel {
    /// Per-channel drain-completion times of in-flight WPQ entries (each
    /// memory controller has its own WPQ of `wpq_entries` slots; each
    /// queue is monotonic non-decreasing).
    drains: Vec<VecDeque<u64>>,
    /// Per-channel media occupancy; 4 KiB chunks of the address space
    /// stripe round-robin across channels (see
    /// [`crate::geometry::channel_of_xpline`]).
    media_busy_until: Vec<u64>,
    last_media_xpline: Vec<Option<usize>>,
}

impl WpqModel {
    pub(crate) fn new(cfg: &PmemConfig) -> Self {
        let channels = cfg.media_channels.max(1);
        Self {
            drains: vec![VecDeque::new(); channels],
            media_busy_until: vec![0; channels],
            last_media_xpline: vec![None; channels],
        }
    }

    /// Accounts one line write-back issued at simulated time `now`.
    /// Returns the time the line is accepted into the persistence domain
    /// and whether the media serviced it at the sequential (open-XPLine)
    /// rate.
    pub(crate) fn accept(&mut self, cfg: &PmemConfig, line: usize, now: u64) -> (u64, bool) {
        let xp = xpline_of_line(line);
        let ch = channel_of_xpline(xp, self.media_busy_until.len());
        // WPQ slot availability: drop entries already drained to media.
        while self.drains[ch].front().is_some_and(|&t| t <= now) {
            self.drains[ch].pop_front();
        }
        let slot_free_at = if self.drains[ch].len() >= cfg.wpq_entries {
            // Queue full: must wait for the oldest entry to drain.
            self.drains[ch].pop_front().unwrap_or(now)
        } else {
            now
        };
        let accepted_at = slot_free_at.max(now) + cfg.wpq_accept_ns;

        // Media service: sequential XPLine hits are cheaper.
        let sequential = self.last_media_xpline[ch] == Some(xp);
        let service = if sequential { cfg.line_write_seq_ns } else { cfg.line_write_ns };
        let drain_at = self.media_busy_until[ch].max(accepted_at) + service;
        self.media_busy_until[ch] = drain_at;
        self.last_media_xpline[ch] = Some(xp);
        self.drains[ch].push_back(drain_at);
        (accepted_at, sequential)
    }
}
