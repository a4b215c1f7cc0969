//! `recovery`: time-to-recover one deterministic crash image.
//!
//! Set-up builds a 32-chain image (every chain driven round-robin from
//! this one thread, a checkpoint written before the last quarter of the
//! rounds) and a serial full-replay reference of it. An op is one
//! recovery of a fresh copy of the image through the default entry point;
//! the copy is made, and the result compared bit for bit, outside the
//! timer.

use specpmt_core::recovery::{committed_records, recover_image};
use specpmt_core::{forensics, ConcurrentConfig, RecoveryOptions, RecoveryReport, SpecSpmtShared};
use specpmt_pmem::{
    CrashControl, CrashImage, CrashPolicy, PmemConfig, SharedPmemDevice, SplitMix64,
};

use crate::alloc::AllocCount;
use crate::estimator::{composite, SegmentClass, FAST_Q};
use crate::harness::{mix64, peak_rss_mb, setup_repeated, timed, Clock, Plan};
use crate::layers::report_host;
use crate::report::Outcome;

const CHAINS: usize = 32;
const ROUNDS: usize = 2048;
/// The checkpoint is written this many rounds before the end.
const TAIL_ROUNDS: usize = 512;
const POOL_BYTES: usize = 32 << 20;
const MIN_OPS: usize = 60;

struct Image {
    crashed: CrashImage,
    /// What recovery must produce: the serial full replay.
    reference: CrashImage,
    checkpoint_write_ns: u64,
}

/// Builds the image. `seed` draws every value and its length (8 to 32
/// bytes), so the log's size and contents follow the seed while its shape
/// — two rotating slots per chain and round — stays what the recovery
/// bench of the repository uses.
fn build_image(seed: u64, rounds: usize, tail_rounds: usize) -> Image {
    let dev = SharedPmemDevice::new(PmemConfig::new(POOL_BYTES));
    let cfg =
        ConcurrentConfig::builder().threads(CHAINS).reclaim_threshold_bytes(usize::MAX).build();
    let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
    let bases: Vec<usize> = (0..CHAINS)
        .map(|_| shared.pool().alloc_direct(4096, 64).expect("the pool holds every region"))
        .collect();
    let mut handles: Vec<_> = (0..CHAINS).map(|t| shared.tx_handle(t)).collect();
    let mut rng = SplitMix64::new(mix64(seed));
    let mut checkpoint_write_ns = 0;
    for r in 0..rounds {
        if r + tail_rounds == rounds {
            let (watermark, ns, _) = timed(|| shared.write_checkpoint());
            watermark.expect("every chain has committed");
            checkpoint_write_ns = ns;
        }
        for (t, h) in handles.iter_mut().enumerate() {
            let mut value = [0u8; 32];
            for word in value.chunks_exact_mut(8) {
                word.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            let len = 8 * (1 + rng.below(4) as usize);
            h.begin();
            h.write(bases[t] + (r % 16) * 64, &value[..len]);
            h.write(bases[t] + 2048 + (r % 8) * 64, &value[..len]);
            h.commit();
        }
    }
    // No orderly close: the data lines were never flushed, so everything
    // but the log is lost and recovery has the whole image to repair.
    let crashed = dev.capture(CrashPolicy::AllLost);
    let mut reference = crashed.clone();
    recover_image(&mut reference);
    Image { crashed, reference, checkpoint_write_ns }
}

fn image_for(plan: &Plan) -> Image {
    if plan.smoke {
        build_image(plan.seed, ROUNDS / 50, TAIL_ROUNDS / 50)
    } else {
        build_image(plan.seed, ROUNDS, TAIL_ROUNDS)
    }
}

/// Recoveries of fresh copies under `opts` until the budget is spent.
struct Measured {
    class: SegmentClass,
    clone_ns: Vec<u64>,
    allocs: AllocCount,
    report: RecoveryReport,
}

fn measure(
    img: &Image,
    opts: &RecoveryOptions,
    budget_s: f64,
    min_ops: usize,
    outcome: &mut Outcome,
) -> Measured {
    let mut m = Measured {
        class: SegmentClass::new("recover", 1.0),
        clone_ns: Vec::new(),
        allocs: AllocCount::default(),
        report: RecoveryReport::default(),
    };
    let mut scratch = img.crashed.clone();
    let clock = Clock::start(budget_s, min_ops);
    while clock.another_cycle(m.class.ns.len()) {
        // Copied in place: `CrashImage::clone_from` would allocate, fault in
        // and unmap 32 MiB per op.
        let ((), ns, _) = timed(|| scratch.as_bytes_mut().copy_from_slice(img.crashed.as_bytes()));
        m.clone_ns.push(ns);
        let (report, ns, allocs) = timed(|| SpecSpmtShared::recover_opts(&mut scratch, opts));
        m.class.ns.push(ns);
        m.allocs.add(allocs);
        outcome.attempted += 1;
        if scratch != img.reference {
            outcome
                .fail(1, format!("recovered image differs from the serial full replay ({opts:?})"));
        }
        if m.class.ns.len() > 1 && report != m.report {
            outcome.fail(1, format!("recovery report changed between ops: {report:?}"));
        }
        m.report = report;
    }
    m
}

pub fn run(plan: &Plan) -> Outcome {
    let mut outcome = Outcome::default();
    let (img, setup_s) = setup_repeated(|| image_for(plan));
    let min_ops = plan.min_cycles(MIN_OPS);
    let default = RecoveryOptions::default();

    if !plan.trace {
        let m = measure(&img, &default, plan.budget_s(), min_ops, &mut outcome);
        outcome.set("setup_s", setup_s);
        outcome.set("host_ns_per_op", composite(std::slice::from_ref(&m.class), 1.0, FAST_Q));
        outcome.set("sim_ns_per_op", m.report.sim_ns() as f64);
        outcome.set("pm_write_bytes_per_op", m.report.bytes_replayed as f64);
        outcome.set("log_peak_bytes", m.report.bytes_parsed as f64);
        outcome.set("peak_rss_mb", peak_rss_mb());
        return outcome;
    }

    // The traced run: the gated entry first, then the four corners of
    // parse threads × checkpoint, then the pieces recovery is made of.
    let budget = plan.budget_s();
    let plain = measure(&img, &default, budget * 0.3, (min_ops / 3).max(1), &mut outcome);
    let fast = report_host(
        &mut outcome,
        std::slice::from_ref(&plain.class),
        1.0,
        plain.report.sim_ns() as f64,
        plain.allocs,
        plain.class.ns.len() as f64,
    );
    outcome.set("core.recovery.records_parsed", plain.report.records_parsed as f64);
    outcome.set("core.recovery.records_replayed", plain.report.records_replayed as f64);
    let mut clone_ns = plain.clone_ns.clone();
    clone_ns.sort_unstable();
    outcome.set(
        "core.recovery.image_clone_host_ms",
        crate::estimator::quantile(&clone_ns, FAST_Q) / 1e6,
    );
    outcome.set("core.checkpoint.write_host_ms", img.checkpoint_write_ns as f64 / 1e6);

    let mut t1_full_ms = 0.0;
    for (name, opts) in [
        ("t1_ckpt", RecoveryOptions::parallel(1)),
        ("t1_full", RecoveryOptions::parallel(1).without_checkpoint()),
        ("t2_ckpt", RecoveryOptions::parallel(2)),
        ("t2_full", RecoveryOptions::parallel(2).without_checkpoint()),
    ] {
        let m = measure(&img, &opts, budget * 0.12, (min_ops / 6).max(1), &mut outcome);
        let ms = m.class.quantile(FAST_Q) / 1e6;
        outcome.set(format!("core.recovery.host_ms.{name}"), ms);
        outcome.set(format!("core.recovery.sim_ns.{name}"), m.report.sim_ns() as f64);
        if name == "t1_full" {
            t1_full_ms = ms;
        }
        if name == "t1_ckpt" {
            // The traced run's measurement of the very op the untraced
            // run gates: how far apart they sit is this run's overhead.
            outcome.set("trace.overhead_pct", (ms * 1e6 / fast - 1.0) * 100.0);
        }
    }

    let mut parse = SegmentClass::new("parse", 1.0);
    let mut records = 0;
    for _ in 0..(min_ops / 6).max(1) {
        let (parsed, ns, _) = timed(|| committed_records(&img.crashed));
        records = parsed.len();
        parse.ns.push(ns);
    }
    let parse_ms = parse.quantile(FAST_Q) / 1e6;
    outcome.set("core.recovery.parse_host_ms", parse_ms);
    outcome.set("core.record.parse_host_ns_per_record", parse_ms * 1e6 / records.max(1) as f64);
    outcome.set("core.recovery.replay_self_host_ms", t1_full_ms - parse_ms);
    if t1_full_ms < parse_ms {
        outcome.warn(format!(
            "recovery: parsing alone ({parse_ms:.3} ms) exceeds the full serial replay ({t1_full_ms:.3} ms)"
        ));
    }
    let mut fx = SegmentClass::new("forensics", 1.0);
    for _ in 0..(min_ops / 6).max(1) {
        let (report, ns, _) = timed(|| forensics(&img.crashed));
        std::hint::black_box(report);
        fx.ns.push(ns);
    }
    outcome.set("core.recovery.forensics_host_ms", fx.quantile(FAST_Q) / 1e6);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_draws_the_image_and_nothing_else_does() {
        let a = build_image(1, 16, 4);
        let b = build_image(1, 16, 4);
        let c = build_image(2, 16, 4);
        assert!(a.crashed == b.crashed, "same seed, same image");
        assert!(a.crashed != c.crashed, "another seed, another image");
        assert!(a.reference != a.crashed, "recovery has something to repair");
    }

    #[test]
    fn same_seed_same_deterministic_metrics() {
        let plan = Plan { seed: 4, seconds: 0.5, trace: false, smoke: true };
        let (a, b) = (run(&plan), run(&plan));
        assert!(a.correct() && b.correct(), "{:?}", a.failures);
        for name in crate::report::DETERMINISTIC {
            assert_eq!(a.metrics[name], b.metrics[name], "{name}");
            assert!(a.metrics[name] > 0.0, "{name} must never read 0");
        }
        let c = run(&Plan { seed: 5, ..plan });
        assert_ne!(a.metrics["log_peak_bytes"], c.metrics["log_peak_bytes"]);
    }

    #[test]
    fn a_wrong_recovery_is_counted_as_a_failed_op() {
        let mut img = build_image(1, 16, 4);
        img.reference.write_u64(4096, !img.reference.read_u64(4096));
        let mut outcome = Outcome::default();
        measure(&img, &RecoveryOptions::default(), 0.0, 2, &mut outcome);
        assert_eq!((outcome.attempted, outcome.failed), (2, 2));
    }
}
