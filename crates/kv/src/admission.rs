//! Per-tenant quota admission control and SLO-driven load shedding.
//!
//! Two independent gates sit in front of every operation:
//!
//! 1. **Quota** — each tenant gets `quota_per_window` admitted ops per
//!    window of `window_ops` *global* operations. The window is indexed by
//!    the global op sequence number, so a single-threaded deterministic
//!    run rejects exactly the same ops on every host. Over-quota requests
//!    fail with [`KvError::QuotaExceeded`].
//! 2. **SLO backpressure** — a governor periodically samples the worst
//!    per-shard WPQ-drain and 2PL lock-wait p99 and moves an atomic
//!    `shed_permille` level up (tail above the SLO) or down (below).
//!    Requests are then shed pseudo-randomly — a fixed hash of the op
//!    sequence number against the current level, so shedding is fair
//!    across tenants and deterministic for a given interleaving — failing
//!    with [`KvError::Overloaded`].
//!
//! Rejections are counted per cause (and per tenant for quota), which is
//! what the bench and the verify smoke assert on: an undersized quota
//! *must* produce `rejected_quota > 0` while accepted traffic stays
//! exactly-once.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Why the service refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The tenant exhausted its admission quota for the current window.
    QuotaExceeded,
    /// SLO backpressure shed this request (service-wide overload).
    Overloaded,
    /// The target shard's table has no free slot.
    TableFull,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::QuotaExceeded => write!(f, "tenant quota exceeded"),
            KvError::Overloaded => write!(f, "shed by SLO backpressure"),
            KvError::TableFull => write!(f, "shard table full"),
        }
    }
}

impl std::error::Error for KvError {}

/// Tuning for [`Admission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Global ops per quota window.
    pub window_ops: u64,
    /// Admitted ops each tenant may spend per window.
    pub quota_per_window: u64,
    /// p99 budget (ns) for the worst shard drain / lock-wait tail before
    /// the governor raises shedding.
    pub slo_ns: u64,
    /// Governor step, in permille of offered load, per observation.
    pub shed_step_permille: u32,
    /// Ceiling on the shed level (always admit at least a trickle so the
    /// governor keeps seeing fresh tail samples).
    pub max_shed_permille: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            window_ops: 1024,
            quota_per_window: u64::MAX, // quota off unless configured
            slo_ns: 200_000,
            shed_step_permille: 100,
            max_shed_permille: 900,
        }
    }
}

/// Counter snapshot of admission decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Operations admitted.
    pub accepted: u64,
    /// Operations rejected by per-tenant quota.
    pub rejected_quota: u64,
    /// Operations shed by SLO backpressure.
    pub rejected_slo: u64,
    /// Current shed level in permille.
    pub shed_permille: u32,
}

/// The admission gate. One instance per service; thread-safe.
///
/// An admitted op pays for one shared counter, the sequence number — it
/// *is* the deterministic op order every decision hashes or windows on.
/// Everything else is touched only when it applies: the quota window when
/// a quota is configured, a rejection counter when an op is refused; the
/// accepted count is what is left of the sequence.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    /// Global op sequence (also the quota-window clock): ops offered so
    /// far.
    seq: AtomicU64,
    /// Per-tenant ops admitted in the current window.
    in_window: Vec<AtomicU64>,
    /// Window index the per-tenant counters belong to.
    window_id: AtomicU64,
    shed_permille: AtomicU32,
    rejected_quota: AtomicU64,
    rejected_slo: AtomicU64,
    rejected_quota_by_tenant: Vec<AtomicU64>,
}

impl Admission {
    /// A gate for `tenants` tenants under `cfg`.
    pub fn new(tenants: u32, cfg: AdmissionConfig) -> Self {
        assert!(cfg.window_ops > 0, "window must be non-empty");
        assert!(cfg.max_shed_permille < 1000, "must always admit a trickle");
        Self {
            cfg,
            seq: AtomicU64::new(0),
            in_window: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
            window_id: AtomicU64::new(0),
            shed_permille: AtomicU32::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_slo: AtomicU64::new(0),
            rejected_quota_by_tenant: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Admits or rejects one op for `tenant`, advancing the global
    /// sequence. On `Ok` the caller must execute the op (the quota was
    /// spent).
    ///
    /// # Errors
    ///
    /// [`KvError::Overloaded`] under active shedding,
    /// [`KvError::QuotaExceeded`] when the tenant's window quota is spent.
    pub fn try_admit(&self, tenant: u32) -> Result<u64, KvError> {
        assert!((tenant as usize) < self.in_window.len(), "tenant {tenant} out of range");
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let quota_on = self.cfg.quota_per_window != u64::MAX;
        if quota_on {
            self.roll_window(seq / self.cfg.window_ops);
        }

        // SLO shedding: a fixed avalanche of the sequence number gives a
        // uniform, tenant-fair coin deterministic in the op order.
        let shed = self.shed_permille.load(Ordering::Relaxed);
        if shed > 0 {
            let mut h = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            if h % 1000 < shed as u64 {
                self.rejected_slo.fetch_add(1, Ordering::Relaxed);
                return Err(KvError::Overloaded);
            }
        }

        if quota_on {
            let spent = self.in_window[tenant as usize].fetch_add(1, Ordering::Relaxed);
            if spent >= self.cfg.quota_per_window {
                self.rejected_quota.fetch_add(1, Ordering::Relaxed);
                self.rejected_quota_by_tenant[tenant as usize].fetch_add(1, Ordering::Relaxed);
                return Err(KvError::QuotaExceeded);
            }
        }
        Ok(seq)
    }

    /// Window rollover: the first op of a new window resets every tenant
    /// counter. The CAS makes exactly one thread do it; stragglers of the
    /// old window may briefly double-charge, which only errs on the strict
    /// side.
    fn roll_window(&self, window: u64) {
        if self.window_id.load(Ordering::Acquire) != window
            && self
                .window_id
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                    (w < window).then_some(window)
                })
                .is_ok()
        {
            for t in &self.in_window {
                t.store(0, Ordering::Release);
            }
        }
    }

    /// Governor feedback: raise shedding while `worst_tail_p99_ns` blows
    /// the SLO, decay it while the tail is back under budget.
    pub fn observe_tail(&self, worst_tail_p99_ns: u64) {
        let cur = self.shed_permille.load(Ordering::Relaxed);
        let next = if worst_tail_p99_ns > self.cfg.slo_ns {
            (cur + self.cfg.shed_step_permille).min(self.cfg.max_shed_permille)
        } else {
            cur.saturating_sub(self.cfg.shed_step_permille)
        };
        if next != cur {
            self.shed_permille.store(next, Ordering::Relaxed);
        }
    }

    /// Current shed level in permille.
    pub fn shed_permille(&self) -> u32 {
        self.shed_permille.load(Ordering::Relaxed)
    }

    /// Quota rejections charged to one tenant.
    pub fn rejected_quota_of(&self, tenant: u32) -> u64 {
        self.rejected_quota_by_tenant[tenant as usize].load(Ordering::Relaxed)
    }

    /// Counter snapshot. Every offered op drew a sequence number and was
    /// then either rejected (and counted) or admitted, so the accepted
    /// count is the remainder; an op between its draw and its rejection
    /// reads as accepted for that instant.
    pub fn stats(&self) -> AdmissionStats {
        let rejected_quota = self.rejected_quota.load(Ordering::Relaxed);
        let rejected_slo = self.rejected_slo.load(Ordering::Relaxed);
        let offered = self.seq.load(Ordering::Relaxed);
        AdmissionStats {
            accepted: offered.saturating_sub(rejected_quota + rejected_slo),
            rejected_quota,
            rejected_slo,
            shed_permille: self.shed_permille.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undersized_quota_sheds_and_resets_per_window() {
        let cfg = AdmissionConfig { window_ops: 10, quota_per_window: 3, ..Default::default() };
        let adm = Admission::new(2, cfg);
        let mut ok = 0;
        let mut rejected = 0;
        // Tenant 0 offers every op of the first window: 3 admitted, 7 shed.
        for _ in 0..10 {
            match adm.try_admit(0) {
                Ok(_) => ok += 1,
                Err(KvError::QuotaExceeded) => rejected += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!((ok, rejected), (3, 7));
        assert_eq!(adm.rejected_quota_of(0), 7);
        assert_eq!(adm.rejected_quota_of(1), 0);
        // Next window: the budget is fresh.
        assert!(adm.try_admit(0).is_ok());
        let st = adm.stats();
        assert_eq!(st.rejected_quota, 7);
        assert_eq!(st.accepted, 4, "accepted is what the rejections leave of the 11 offered");
        assert_eq!(st.accepted + st.rejected_quota + st.rejected_slo, 11);
    }

    #[test]
    fn governor_raises_and_decays_shedding() {
        let cfg = AdmissionConfig {
            slo_ns: 1_000,
            shed_step_permille: 300,
            max_shed_permille: 700,
            ..Default::default()
        };
        let adm = Admission::new(1, cfg);
        adm.observe_tail(5_000);
        adm.observe_tail(5_000);
        adm.observe_tail(5_000);
        assert_eq!(adm.shed_permille(), 700, "clamped at the ceiling");
        let mut shed = 0;
        for _ in 0..1000 {
            if adm.try_admit(0) == Err(KvError::Overloaded) {
                shed += 1;
            }
        }
        // 70% shed level: allow generous slack around the hash coin.
        assert!((500..900).contains(&shed), "shed {shed} of 1000 at 700‰");
        let st = adm.stats();
        assert_eq!((st.rejected_slo, st.accepted), (shed, 1000 - shed));
        adm.observe_tail(10);
        adm.observe_tail(10);
        adm.observe_tail(10);
        assert_eq!(adm.shed_permille(), 0, "decays once the tail recovers");
    }

    #[test]
    fn unlimited_quota_admits_everything() {
        let adm = Admission::new(1, AdmissionConfig::default());
        for _ in 0..5000 {
            assert!(adm.try_admit(0).is_ok());
        }
        assert_eq!(adm.stats().accepted, 5000);
    }
}
