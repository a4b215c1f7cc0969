//! Crash images, crash nondeterminism policies, and the unified
//! fault-injection plan/control API.
//!
//! A [`CrashPlan`] says *when* to crash (fuel-based
//! [`CrashTrigger::AfterOps`], labeled [`CrashTrigger::AtSite`], or the
//! count-only [`CrashTrigger::Observe`]) and *what survives* (a
//! [`CrashPolicy`]). Both device flavours embed one [`CrashGate`] — the
//! plan state machine plus the two armed flags that keep an unarmed device
//! at one flag load per operation — and the [`CrashControl`] trait drives
//! [`crate::PmemDevice`] and [`crate::SharedPmemDevice`] through it with
//! the same calls, including the FIRST-style labeled crash points
//! ([`CrashControl::crash_point`]) the deterministic enumerator targets.
//! What a crash leaves behind is decided once, in [`materialize`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::geometry::{line_start, CACHE_LINE, PERSIST_WORD};
use crate::rng::SplitMix64;
use crate::sites::{self, Site};
use crate::wpq::PendingFlush;

/// Controls which *unfenced* data survives a simulated crash.
///
/// Fenced flushes and WPQ-accepted flushes always survive (ADR); everything
/// else — in-flight flushes and plain dirty cache words — survives according
/// to this policy, modelling arbitrary cache-eviction timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// No unfenced data survives. The most adversarial image for redo-style
    /// recovery.
    AllLost,
    /// All dirty data survives (as if every line were evicted just before
    /// the crash). The most adversarial image for undo-style recovery.
    AllSurvive,
    /// Each unfenced unit independently survives with probability ½, driven
    /// by the given seed. Different seeds explore different images.
    Random(u64),
}

impl CrashPolicy {
    fn rng(&self) -> Option<SplitMix64> {
        match self {
            CrashPolicy::Random(seed) => Some(SplitMix64::new(*seed)),
            _ => None,
        }
    }

    fn survives(&self, rng: &mut Option<SplitMix64>) -> bool {
        match self {
            CrashPolicy::AllLost => false,
            CrashPolicy::AllSurvive => true,
            CrashPolicy::Random(_) => rng.as_mut().expect("rng present").next_bool(),
        }
    }
}

/// The memory image a crash at time `now` leaves under `policy`, given the
/// `persisted` bytes (consumed: they become the image), the `volatile`
/// bytes every load sees and the `pending` flushes:
///
/// * flushed-and-fenced data (`persisted`) is always present;
/// * flushes accepted by the WPQ by `now` (even without a fence) are
///   present — ADR drains the WPQ on power failure;
/// * in-flight flushes and plain dirty words survive per `policy` (cache
///   evictions can persist any subset, at 8-byte granularity).
///
/// One RNG stream is drawn in a fixed order — pending flushes in the order
/// the device hands them over, then dirty words by ascending address — so
/// a `Random(seed)` image is a function of the device state alone,
/// whichever device flavour holds it.
pub(crate) fn materialize<'a>(
    persisted: Vec<u8>,
    volatile: &[u8],
    pending: impl IntoIterator<Item = &'a PendingFlush>,
    now: u64,
    policy: CrashPolicy,
) -> CrashImage {
    let mut image = persisted;
    let mut rng = policy.rng();
    for p in pending {
        if p.accepted_at <= now || policy.survives(&mut rng) {
            let start = line_start(p.line);
            image[start..start + CACHE_LINE].copy_from_slice(&p.snapshot);
        }
    }
    // Dirty words may have been evicted from the cache at any time.
    for a in (0..volatile.len() / PERSIST_WORD).map(|w| w * PERSIST_WORD) {
        let vol = &volatile[a..a + PERSIST_WORD];
        if vol != &image[a..a + PERSIST_WORD] && policy.survives(&mut rng) {
            image[a..a + PERSIST_WORD].copy_from_slice(vol);
        }
    }
    CrashImage::new(image)
}

/// The contents of persistent memory after a simulated crash.
///
/// Produced by [`CrashControl::capture`]; recovery routines mutate
/// the image in place and verification reads it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashImage {
    bytes: Vec<u8>,
}

impl CrashImage {
    /// Wraps raw bytes as a crash image (testing and tooling).
    pub fn new(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// The raw post-crash bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access for recovery routines.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Image size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image is empty (zero-sized device).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 8` exceeds the image.
    pub fn read_u64(&self, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.bytes[addr..addr + 8]);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr` (for recovery routines).
    ///
    /// # Panics
    ///
    /// Panics if `addr + 8` exceeds the image.
    pub fn write_u64(&mut self, addr: usize, value: u64) {
        self.bytes[addr..addr + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads `len` bytes at `addr`.
    pub fn read_bytes(&self, addr: usize, len: usize) -> &[u8] {
        &self.bytes[addr..addr + len]
    }

    /// Overwrites `data.len()` bytes at `addr`.
    pub fn write_bytes(&mut self, addr: usize, data: &[u8]) {
        self.bytes[addr..addr + data.len()].copy_from_slice(data);
    }
}

/// What fires an armed [`CrashPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Fuel-based: the image is captured immediately **before** the
    /// `after_ops`-th subsequent persistence-affecting operation (stores,
    /// flushes, fences — reads and timing-off operations do not count).
    AfterOps(u64),
    /// Labeled: the image is captured at the `nth_hit`-th execution
    /// (1-based) of `site`. Deterministic under any interleaving: hits are
    /// counted under the device's crash serialization.
    AtSite {
        /// The targeted site.
        site: Site,
        /// Which execution of the site to crash at (1-based).
        nth_hit: u64,
    },
    /// Never fires: labeled-site hits are counted but no image is captured.
    /// This is the enumerator's discovery pass — run the workload once,
    /// read back [`CrashControl::site_hits`], then target each `(site,
    /// hit)` pair with [`CrashTrigger::AtSite`].
    Observe,
}

/// A complete fault-injection plan: *when* to crash ([`CrashTrigger`]) ×
/// *what unfenced data survives* ([`CrashPolicy`]).
///
/// Built with [`CrashPlan::after_ops`], [`CrashPlan::at_site`], or
/// [`CrashPlan::observe`], optionally refined with
/// [`CrashPlan::with_policy`] (default [`CrashPolicy::AllLost`]), and armed
/// on either device flavour through [`CrashControl::arm`].
///
/// ```
/// use specpmt_pmem::{CrashPlan, CrashPolicy};
///
/// let fuel = CrashPlan::after_ops(17).with_policy(CrashPolicy::Random(1));
/// let site = CrashPlan::parse_target("seq/commit/flush:2").unwrap();
/// assert_eq!(site.target().as_deref(), Some("seq/commit/flush:2"));
/// assert!(fuel.target().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    trigger: CrashTrigger,
    policy: CrashPolicy,
}

impl CrashPlan {
    /// Fuel plan: crash before the `after_ops`-th persistence op.
    pub fn after_ops(after_ops: u64) -> Self {
        Self { trigger: CrashTrigger::AfterOps(after_ops), policy: CrashPolicy::AllLost }
    }

    /// Labeled plan: crash at the `nth_hit`-th execution (1-based) of
    /// `site`.
    ///
    /// # Panics
    ///
    /// Panics if `nth_hit` is zero (hit counts are 1-based).
    pub fn at_site(site: Site, nth_hit: u64) -> Self {
        assert!(nth_hit >= 1, "site hit counts are 1-based");
        Self { trigger: CrashTrigger::AtSite { site, nth_hit }, policy: CrashPolicy::AllLost }
    }

    /// Count-only plan: never crashes, records labeled-site hit counts.
    pub fn observe() -> Self {
        Self { trigger: CrashTrigger::Observe, policy: CrashPolicy::AllLost }
    }

    /// Replaces the survival policy (builder style).
    pub fn with_policy(mut self, policy: CrashPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The plan's trigger.
    pub fn trigger(&self) -> CrashTrigger {
        self.trigger
    }

    /// The plan's survival policy.
    pub fn policy(&self) -> CrashPolicy {
        self.policy
    }

    /// Parses a `site:hit` string as `crashenum --target` takes it (e.g.
    /// `seq/commit/flush:2`) into a labeled plan — the one place a site
    /// name becomes a [`Site`]. The hit count is 1-based.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed component (missing `:`,
    /// unknown site, or non-numeric / zero hit count).
    pub fn parse_target(s: &str) -> Result<Self, String> {
        let (name, hit) = s
            .rsplit_once(':')
            .ok_or_else(|| format!("crash target `{s}` is not of the form site:hit"))?;
        let site = Site::from_name(name)
            .ok_or_else(|| format!("unknown crash site `{name}` (see specpmt_pmem::sites)"))?;
        let nth_hit: u64 =
            hit.parse().map_err(|_| format!("crash target hit count `{hit}` is not an integer"))?;
        if nth_hit == 0 {
            return Err("crash target hit counts are 1-based".into());
        }
        Ok(Self::at_site(site, nth_hit))
    }

    /// The `site:hit` string for a labeled plan — the value to give
    /// `crashenum --target` to reproduce it. `None` for fuel and observe
    /// plans.
    pub fn target(&self) -> Option<String> {
        match self.trigger {
            CrashTrigger::AtSite { site, nth_hit } => Some(format!("{site}:{nth_hit}")),
            _ => None,
        }
    }

    /// Builds one fuel plan per entry of `fuels`, all under `policy` — the
    /// shape the hand-rolled `for crash_after in ...` sweeps take when
    /// ported onto the shared enumeration reporting.
    pub fn sweep_fuel(fuels: impl IntoIterator<Item = u64>, policy: CrashPolicy) -> Vec<Self> {
        fuels.into_iter().map(|f| Self::after_ops(f).with_policy(policy)).collect()
    }
}

/// The unified fault-injection control surface, implemented by both
/// [`crate::PmemDevice`] and [`crate::SharedPmemDevice`] so one harness
/// drives either flavour. A device supplies its `CrashGate`, whether it
/// is currently charging operations, and how to photograph itself; every
/// other method is written once here.
///
/// All methods take `&self`: the gate is internally synchronized, so
/// `&PmemDevice` and `&SharedPmemDevice` expose the same surface.
///
/// After an armed plan fires, execution **continues** (the capture is a
/// side effect, like a debugger snapshot); drivers poll
/// [`CrashControl::fired`] and retrieve the image with
/// [`CrashControl::take_image`].
pub trait CrashControl {
    /// The device's crash gate.
    fn gate(&self) -> &CrashGate;

    /// Whether operations are currently charged and counted (see
    /// [`crate::TimingMode`]). Armed plans never fire during timing-off
    /// setup.
    fn timing_on(&self) -> bool;

    /// Captures a crash image at the current instant under `policy`,
    /// independent of any armed plan (the orderly "crash now" primitive).
    fn capture(&self, policy: CrashPolicy) -> CrashImage;

    /// Arms `plan`, clearing any previous plan, fired image, and site-hit
    /// counts.
    fn arm(&self, plan: CrashPlan) {
        self.gate().arm(plan);
    }

    /// Disarms any armed plan (fired image and hit counts are kept).
    fn disarm(&self) {
        self.gate().disarm();
    }

    /// Whether an armed plan has fired.
    fn fired(&self) -> bool {
        self.gate().ctl().fired.is_some()
    }

    /// The `(site, hit)` a labeled plan fired at, if one did.
    fn fired_at(&self) -> Option<(Site, u64)> {
        self.gate().ctl().fired_at
    }

    /// Takes the captured crash image, if an armed plan fired.
    fn take_image(&self) -> Option<CrashImage> {
        self.gate().ctl().fired.take()
    }

    /// Atomically observes `(epoch, fired)`. The epoch increments twice
    /// per capture (odd ⇒ capture in progress). The commit-bracketing
    /// protocol: observe `(e0, f0)` before starting a transaction and
    /// `(e1, _)` after its commit fence. If `f0` is false, `e0` is even
    /// and `e1 == e0`, no capture started anywhere inside the bracket —
    /// the transaction is *definitely* contained in any image captured
    /// later. Otherwise a capture overlapped it and it is a boundary
    /// case: recovery surfaces it entirely or not at all.
    fn observe(&self) -> (u64, bool) {
        let c = self.gate().ctl();
        (c.epoch, c.fired.is_some())
    }

    /// Per-site hit counts recorded since the last [`CrashControl::arm`],
    /// in inventory order, sites never hit left out (sites are counted
    /// whenever a plan is armed with a labeled or observe trigger).
    fn site_hits(&self) -> Vec<(Site, u64)> {
        let hits = self.gate().ctl().hits;
        sites::ALL.iter().map(|&s| (s, hits[s as usize])).filter(|&(_, n)| n > 0).collect()
    }

    /// Executes the crash site `site`: with no labeled/observe
    /// plan armed this is a single flag check; with one armed it counts
    /// the hit and captures an image when the armed `(site, nth_hit)`
    /// target matches. Hit counting and target matching happen under the
    /// gate's lock, which makes `site:hit` targeting deterministic under
    /// any thread interleaving. Runtimes call this at every
    /// ordering-sensitive point of their persistence protocols (see
    /// [`crate::sites`]).
    fn crash_point(&self, site: Site) {
        self.gate().crash_point(site, self.timing_on(), |policy| self.capture(policy));
    }
}

/// The crash-injection state machine behind a [`CrashGate`]: fuel
/// accounting, site matching, and the epoch protocol.
#[derive(Debug, Clone, Default)]
struct CrashCtl {
    plan: Option<CrashPlan>,
    fired: Option<CrashImage>,
    fired_at: Option<(Site, u64)>,
    /// Per-site hit counts, indexed by the site's code.
    hits: [u64; sites::COUNT],
    /// Two increments per capture: odd ⇒ capture in progress.
    epoch: u64,
}

impl CrashCtl {
    /// Arms a new plan, resetting fired state and hit counts.
    fn arm(&mut self, plan: CrashPlan) {
        self.plan = Some(plan);
        self.fired = None;
        self.fired_at = None;
        self.hits = [0; sites::COUNT];
    }

    /// One persistence op happened. Returns the capture policy when fuel
    /// ran out; the gate then clears its fuel-armed flag, has the image
    /// built outside the lock, and [`CrashCtl::store`]s it.
    fn fuel_tick(&mut self) -> Option<CrashPolicy> {
        let plan = self.plan.as_mut()?;
        let CrashTrigger::AfterOps(fuel) = plan.trigger else {
            return None;
        };
        if fuel == 0 {
            let policy = plan.policy;
            self.plan = None;
            self.epoch += 1;
            Some(policy)
        } else {
            plan.trigger = CrashTrigger::AfterOps(fuel - 1);
            None
        }
    }

    /// One execution of labeled site `site` happened. Counts the hit and
    /// returns the capture policy when the armed target fires; same
    /// contract as [`CrashCtl::fuel_tick`].
    fn site_tick(&mut self, site: Site) -> Option<CrashPolicy> {
        let plan = self.plan?;
        if matches!(plan.trigger, CrashTrigger::AfterOps(_)) {
            return None;
        }
        let n = &mut self.hits[site as usize];
        *n += 1;
        let hit = *n;
        if plan.trigger != (CrashTrigger::AtSite { site, nth_hit: hit }) {
            return None;
        }
        self.plan = None;
        self.fired_at = Some((site, hit));
        self.epoch += 1;
        Some(plan.policy)
    }

    /// Completes a capture begun by `fuel_tick` / `site_tick`.
    fn store(&mut self, image: CrashImage) {
        self.fired = Some(image);
        self.epoch += 1;
    }
}

/// One device's fault-injection gate: the [`CrashPlan`] state machine
/// behind a mutex, plus two flags mirroring "a fuel plan is armed" and "a
/// labeled/observe plan is armed". An unarmed device — every benchmark and
/// production-shaped run — pays one relaxed flag load per persistence
/// operation or labeled site and never touches the lock; fuel sweeps and
/// labeled runs have a flag each, so neither pays for the other. Relaxed
/// is enough for the flags because they publish nothing: a thread that
/// sees one set takes the lock, and the lock orders the plan it reads.
///
/// The epoch increments **twice** per capture: once before the image is
/// built (odd ⇒ capture in progress) and once after it is stored (even ⇒
/// idle); see [`CrashControl::observe`].
#[derive(Debug, Default)]
pub struct CrashGate {
    fuel_armed: AtomicBool,
    site_armed: AtomicBool,
    ctl: Mutex<CrashCtl>,
}

impl Clone for CrashGate {
    fn clone(&self) -> Self {
        Self {
            fuel_armed: AtomicBool::new(self.fuel_armed.load(Ordering::Relaxed)),
            site_armed: AtomicBool::new(self.site_armed.load(Ordering::Relaxed)),
            ctl: Mutex::new(self.ctl().clone()),
        }
    }
}

impl CrashGate {
    fn ctl(&self) -> MutexGuard<'_, CrashCtl> {
        self.ctl.lock().expect("crash lock")
    }

    fn arm(&self, plan: CrashPlan) {
        let mut c = self.ctl();
        c.arm(plan);
        // Both flags are published while the lock is held, so a concurrent
        // exhaustion tick that interleaves with a re-arm can never clear
        // them afterwards (all stores are serialized by the lock).
        let fuel = matches!(plan.trigger(), CrashTrigger::AfterOps(_));
        self.fuel_armed.store(fuel, Ordering::Relaxed);
        self.site_armed.store(!fuel, Ordering::Relaxed);
    }

    fn disarm(&self) {
        let mut c = self.ctl();
        c.plan = None;
        self.fuel_armed.store(false, Ordering::Relaxed);
        self.site_armed.store(false, Ordering::Relaxed);
    }

    /// One persistence-affecting operation is about to happen: burns a
    /// unit of crash fuel and, when it runs out, photographs the device
    /// with `capture`. Call while holding **no** device lock. Threads that
    /// race an `arm` may skip a tick or two before observing the flag —
    /// harnesses arm before spawning workers (spawn synchronizes), so the
    /// fuel count they request is exact.
    #[inline]
    pub(crate) fn tick_fuel(
        &self,
        timing_on: bool,
        capture: impl FnOnce(CrashPolicy) -> CrashImage,
    ) {
        if timing_on && self.fuel_armed.load(Ordering::Relaxed) {
            self.fire(&self.fuel_armed, CrashCtl::fuel_tick, capture);
        }
    }

    /// Driver behind [`CrashControl::crash_point`].
    #[inline]
    pub(crate) fn crash_point(
        &self,
        site: Site,
        timing_on: bool,
        capture: impl FnOnce(CrashPolicy) -> CrashImage,
    ) {
        if timing_on && self.site_armed.load(Ordering::Relaxed) {
            self.fire(&self.site_armed, |c| c.site_tick(site), capture);
        }
    }

    /// Ticks the state machine under the lock; if the plan fires, disarms
    /// `armed` still under the lock (so exactly one thread captures even
    /// under races), builds the image outside it — the epoch is odd during
    /// that window, so commit brackets that overlap the build classify as
    /// boundary — and stores it.
    #[cold]
    fn fire(
        &self,
        armed: &AtomicBool,
        tick: impl FnOnce(&mut CrashCtl) -> Option<CrashPolicy>,
        capture: impl FnOnce(CrashPolicy) -> CrashImage,
    ) {
        let fired = {
            let mut c = self.ctl();
            let fired = tick(&mut c);
            if fired.is_some() {
                armed.store(false, Ordering::Relaxed);
            }
            fired
        };
        if let Some(policy) = fired {
            let image = capture(policy);
            self.ctl().store(image);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lost_never_survives() {
        let p = CrashPolicy::AllLost;
        let mut rng = p.rng();
        for _ in 0..8 {
            assert!(!p.survives(&mut rng));
        }
    }

    #[test]
    fn all_survive_always_survives() {
        let p = CrashPolicy::AllSurvive;
        let mut rng = p.rng();
        for _ in 0..8 {
            assert!(p.survives(&mut rng));
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let draw = |seed| {
            let p = CrashPolicy::Random(seed);
            let mut rng = p.rng();
            (0..32).map(|_| p.survives(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn image_accessors() {
        let mut img = CrashImage::new(vec![0; 64]);
        img.write_u64(8, 99);
        assert_eq!(img.read_u64(8), 99);
        img.write_bytes(0, &[1, 2, 3]);
        assert_eq!(img.read_bytes(0, 3), &[1, 2, 3]);
        assert_eq!(img.len(), 64);
        assert!(!img.is_empty());
    }

    #[test]
    fn plan_builders_round_trip() {
        let p = CrashPlan::after_ops(7).with_policy(CrashPolicy::AllSurvive);
        assert_eq!(p.trigger(), CrashTrigger::AfterOps(7));
        assert_eq!(p.policy(), CrashPolicy::AllSurvive);
        assert!(p.target().is_none());
        let site = sites::ALL[0];
        let p = CrashPlan::at_site(site, 3);
        assert_eq!(p.policy(), CrashPolicy::AllLost);
        assert_eq!(p.target(), Some(format!("{site}:3")));
        assert_eq!(CrashPlan::observe().trigger(), CrashTrigger::Observe);
    }

    #[test]
    fn parse_target_accepts_inventory_sites_only() {
        let site = sites::ALL[0];
        let p = CrashPlan::parse_target(&format!("{site}:2")).unwrap();
        assert_eq!(p.trigger(), CrashTrigger::AtSite { site, nth_hit: 2 });
        assert!(CrashPlan::parse_target("nonsense").is_err());
        assert!(CrashPlan::parse_target("no/such/site:1").is_err());
        assert!(CrashPlan::parse_target(&format!("{site}:zero")).is_err());
        assert!(CrashPlan::parse_target(&format!("{site}:0")).is_err());
    }

    #[test]
    fn sweep_fuel_builds_one_plan_per_fuel() {
        let plans = CrashPlan::sweep_fuel([3, 9], CrashPolicy::Random(5));
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].trigger(), CrashTrigger::AfterOps(3));
        assert_eq!(plans[1].trigger(), CrashTrigger::AfterOps(9));
        assert!(plans.iter().all(|p| p.policy() == CrashPolicy::Random(5)));
    }

    #[test]
    fn ctl_fuel_counts_down_then_fires_once() {
        let mut c = CrashCtl::default();
        c.arm(CrashPlan::after_ops(2));
        assert!(c.fuel_tick().is_none()); // 2 -> 1
        assert!(c.fuel_tick().is_none()); // 1 -> 0
        let policy = c.fuel_tick().expect("fires at 0");
        assert_eq!(policy, CrashPolicy::AllLost);
        assert_eq!(c.epoch, 1, "odd while capture in progress");
        c.store(CrashImage::new(vec![0; 8]));
        assert_eq!(c.epoch, 2);
        assert!(c.fuel_tick().is_none(), "plan consumed");
    }

    #[test]
    fn ctl_site_counts_hits_and_fires_at_nth() {
        let site = sites::ALL[0];
        let other = sites::ALL[1];
        let mut c = CrashCtl::default();
        c.arm(CrashPlan::at_site(site, 2));
        assert!(c.site_tick(site).is_none()); // hit 1
        assert!(c.site_tick(other).is_none()); // unrelated site counted too
        assert_eq!(c.site_tick(site), Some(CrashPolicy::AllLost), "fires at hit 2");
        assert_eq!(c.fired_at, Some((site, 2)));
        assert_eq!((c.hits[site as usize], c.hits[other as usize]), (2, 1));
        assert_eq!(c.hits.iter().sum::<u64>(), 3);
        c.store(CrashImage::new(vec![0; 8]));
        assert!(c.site_tick(site).is_none(), "plan consumed");
    }

    #[test]
    fn ctl_observe_counts_without_firing() {
        let site = sites::ALL[0];
        let mut c = CrashCtl::default();
        c.arm(CrashPlan::observe());
        for _ in 0..5 {
            assert!(c.site_tick(site).is_none());
        }
        assert!(c.fuel_tick().is_none());
        assert_eq!(c.hits[site as usize], 5);
        assert_eq!(c.hits.iter().sum::<u64>(), 5);
        assert_eq!(c.epoch, 0);
    }
}
