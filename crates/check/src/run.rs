//! How a run under an armed [`CrashPlan`] ends, and where a commit stands
//! relative to the image it left.
//!
//! [`CrashPlan`]: specpmt_pmem::CrashPlan

use specpmt_pmem::{CrashControl, CrashImage, CrashPolicy};

/// What one workload run under an armed [`CrashPlan`] reported back.
///
/// [`CrashPlan`]: specpmt_pmem::CrashPlan
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Whether the armed plan fired during the run.
    pub fired: bool,
    /// The `(site, hit)` a labeled plan fired at (`None` for fuel plans
    /// and unfired runs).
    pub fired_at: Option<(&'static str, u64)>,
    /// Per-site hit counts observed during the run (empty for fuel plans,
    /// which bypass site counting).
    pub site_hits: Vec<(&'static str, u64)>,
}

impl RunSummary {
    /// Reads the summary off `dev`. Taking the fired image clears
    /// `fired`, so [`end_run`] reads this first.
    pub fn of<D: CrashControl + ?Sized>(dev: &D) -> Self {
        Self { fired: dev.fired(), fired_at: dev.fired_at(), site_hits: dev.site_hits() }
    }
}

/// Ends a run on `owner`'s device. Returns what the run reported and the
/// image it is judged on: the armed crash's capture when it fired, else
/// the orderly-shutdown image — `close` runs, then every line it left
/// unpersisted is lost ([`CrashPolicy::AllLost`]).
pub fn end_run<T, D: CrashControl + ?Sized>(
    mut owner: T,
    device: impl Fn(&T) -> &D,
    close: impl FnOnce(&mut T),
) -> (RunSummary, CrashImage) {
    let summary = RunSummary::of(device(&owner));
    let image = match device(&owner).take_image() {
        Some(image) => image,
        None => {
            close(&mut owner);
            device(&owner).capture(CrashPolicy::AllLost)
        }
    };
    (summary, image)
}

/// Where a commit stands relative to the crash image, read off the
/// device's crash epoch ([`CrashControl::observe`]) before and after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bracket {
    /// The image was already taken when the bracket opened: the commit
    /// was not run, and nothing run from here on can be in the image.
    Frozen,
    /// No capture started inside the bracket: the commit is in any image
    /// captured later.
    Definite,
    /// A capture overlapped the bracket: recovery may surface the commit
    /// entirely or not at all.
    Boundary,
}

/// Runs `commit` inside a crash-epoch bracket on `dev` and classifies it;
/// a [`Bracket::Frozen`] commit is not run. The epoch advances twice per
/// capture and is odd while one is in progress, so an even epoch that has
/// not moved by the end of `commit` means no capture started in between.
pub fn bracket<D: CrashControl + ?Sized>(dev: &D, commit: impl FnOnce()) -> Bracket {
    let (e0, frozen) = dev.observe();
    if frozen {
        return Bracket::Frozen;
    }
    commit();
    if e0 % 2 == 0 && dev.observe().0 == e0 {
        Bracket::Definite
    } else {
        Bracket::Boundary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::{CrashPlan, PmemConfig, SharedPmemDevice};

    #[test]
    fn bracket_classifies_definite_boundary_and_frozen() {
        let dev = SharedPmemDevice::new(PmemConfig::new(1 << 16));
        let h = dev.handle();
        let persist = || {
            h.write(0, &[1; 8]);
            h.persist_range(0, 8);
        };
        // No capture anywhere: the commit is in every later image.
        assert_eq!(bracket(&dev, persist), Bracket::Definite);
        // A crash armed to fire on the commit's first persistence op: the
        // capture lands between the two observations.
        dev.arm(CrashPlan::after_ops(0));
        let mut ran = false;
        let inside = bracket(&dev, || {
            persist();
            ran = true;
        });
        assert_eq!(inside, Bracket::Boundary);
        assert!(ran && dev.fired());
        // The image was taken before the bracket opened: the commit is not
        // even run.
        assert_eq!(bracket(&dev, || panic!("a frozen commit ran")), Bracket::Frozen);
    }
}
