//! Shard-crash exactly-once smoke: crash one shard mid-`cas`, recover its
//! image, and prove that every definitely-acknowledged CAS survives
//! exactly once while other shards are untouched.
//!
//! The workload is a monotone CAS counter chain on one hot key: attempt
//! `k` proposes `k` against expected `k-1`, so the recovered value *is*
//! the count of CAS applications that reached persistence — a lost ack
//! shows up as `value < definite`, a doubly-applied op as
//! `value > applied`. Acknowledgment certainty uses the crash-epoch
//! bracketing protocol: a commit whose `observe()` epoch is even and
//! unchanged across the call definitely precedes the crash capture.
//!
//! With the flight recorder on, the crashed shard's image additionally
//! decodes to a [`specpmt_core::forensics`] report that names the
//! in-flight op class (`cas`) — the black box survives the same crash
//! the data does.
//!
//! A second case crashes nothing mid-op: it sheds most of a burst under
//! an undersized per-tenant quota and requires every *accepted* put to
//! survive a capture of its shard — admission control may refuse work,
//! never lose work it took.
//!
//! `scripts/verify.sh` runs this test as its kv crash smoke.

use specpmt_core::forensics;
use specpmt_kv::{AdmissionConfig, CasOutcome, KvConfig, KvError, KvService};
use specpmt_pmem::{CrashControl, CrashPlan, CrashPolicy, Site};

fn crash_config() -> KvConfig {
    // Two shards, one worker, no daemons: the per-commit fence path runs
    // on the worker thread, so `mt/commit/fence` fires mid-CAS
    // deterministically. The flight recorder is on so the crash image
    // carries a decodable black box alongside the data.
    KvConfig::default()
        .with_shards(2)
        .with_workers(1)
        .with_capacity_per_shard(1 << 8)
        .with_pool_bytes(4 << 20)
        .with_daemons(false)
        .with_governor_every(0)
        .with_flight_recorder(true)
}

#[test]
fn shard_crash_mid_cas_keeps_acked_ops_exactly_once() {
    let svc = KvService::open(crash_config());
    let hot_key = 7u64;
    let tenant = 0u32;
    let hot_shard = svc.router().shard_of(tenant, hot_key);
    let cold_shard = 1 - hot_shard;
    // A witness key on the *other* shard, to show the blast radius of a
    // shard crash is one shard.
    let cold_key = (0..1000)
        .find(|&k| svc.router().shard_of(tenant, k) == cold_shard)
        .expect("some key routes to the cold shard");

    let mut w = svc.worker(0);
    w.put(tenant, hot_key, 0).unwrap();
    w.put(tenant, cold_key, 4242).unwrap();

    // Crash the hot shard at the 3rd commit fence after arming — i.e. in
    // the middle of the CAS stream below, inside a commit.
    let dev = svc.shard(hot_shard).runtime().device().clone();
    dev.arm(CrashPlan::at_site(Site::MtCommitFence, 3).with_policy(CrashPolicy::AllLost));

    const ATTEMPTS: u64 = 10;
    let mut applied = 0u64;
    let mut definite = 0u64;
    for k in 1..=ATTEMPTS {
        let (e0, frozen) = dev.observe();
        if frozen {
            break;
        }
        match w.cas(tenant, hot_key, Some(k - 1), k).unwrap() {
            CasOutcome::Applied => applied = k,
            CasOutcome::Mismatch(v) => panic!("single-writer CAS mismatched at {k}: {v:?}"),
        }
        let (e1, _) = dev.observe();
        if e0 % 2 == 0 && e1 == e0 {
            definite = k; // ack certainly precedes any capture
        } else {
            break; // the crash landed inside this commit: stop at the boundary
        }
    }
    assert!(dev.fired(), "the armed crash must fire mid-stream");
    assert!(definite >= 1, "at least the pre-crash CAS acks are definite");
    assert!(applied >= definite);

    let mut img = dev.take_image().expect("fired crash leaves an image");

    // Crash forensics: `mt/commit/fence` fires after the commit fence
    // (which carries the staged `KvOp` marker to PM) but before the
    // receipt and `KvOpDone`, so the black box must decode cleanly and
    // name the interrupted op class.
    let fx = forensics(&img);
    assert!(fx.recorder_present, "kv shards format a recorder region:\n{fx}");
    assert!(fx.is_clean(), "correct runtime, clean report: {:?}\n{fx}", fx.violations);
    let classes: Vec<_> = fx.in_flight.iter().filter_map(|f| f.kv_op).collect();
    assert!(classes.contains(&"cas"), "forensics must name the mid-crash cas: {classes:?}\n{fx}");

    let report = svc.shard(hot_shard).recover_image(&mut img);
    assert!(report.chains_nonempty >= 1, "the crashed worker's chain survives");
    let issues = fx.check_against(&report);
    assert!(issues.is_empty(), "forensic tail must agree with recovery: {issues:?}");

    let hot_table = svc.shard(hot_shard).table();
    let recovered = hot_table
        .get_in_image(&img, tenant, hot_key)
        .expect("the hot key was committed before the crash");
    // Exactly-once: every definitely-acked CAS is in the image (no lost
    // acks), and the value never exceeds the applications actually made
    // (no replayed/doubled op) — the counter chain makes both visible.
    assert!(
        (definite..=applied).contains(&recovered),
        "recovered {recovered}, definite {definite}, applied {applied}"
    );

    // The cold shard never crashed; its live state is intact and its own
    // capture recovers the witness value.
    assert_eq!(w.get(tenant, cold_key).unwrap(), Some(4242));
    let cold_dev = svc.shard(cold_shard).runtime().device();
    let mut cold_img = cold_dev.capture(CrashPolicy::AllLost);
    svc.shard(cold_shard).recover_image(&mut cold_img);
    assert_eq!(svc.shard(cold_shard).table().get_in_image(&cold_img, tenant, cold_key), Some(4242));

    svc.shutdown();
}

#[test]
fn stale_cas_after_recovery_is_rejected() {
    // Idempotence of the ack protocol: re-sending an already-applied CAS
    // (same expected value) against the post-crash state must fail with a
    // mismatch, not double-apply.
    let svc = KvService::open(crash_config());
    let mut w = svc.worker(0);
    w.put(0, 1, 0).unwrap();
    assert_eq!(w.cas(0, 1, Some(0), 1).unwrap(), CasOutcome::Applied);
    // A client retrying the same request after a reconnect:
    assert_eq!(w.cas(0, 1, Some(0), 1).unwrap(), CasOutcome::Mismatch(Some(1)));
    svc.shutdown();
}

/// Admission control sheds, and shedding loses nothing it admitted: under
/// an undersized per-tenant window quota most of an offered burst is
/// rejected, and every *accepted* put — with the acknowledged value — is
/// in an `AllLost` capture of its shard after recovery.
#[test]
fn undersized_quota_sheds_and_accepted_puts_survive_crash() {
    const OFFERED: u64 = 2048;
    let quota = AdmissionConfig { window_ops: 256, quota_per_window: 32, ..Default::default() };
    let svc =
        KvService::open(crash_config().with_capacity_per_shard(1 << 10).with_admission(quota));
    let mut w = svc.worker(0);
    let mut accepted = Vec::new();
    for i in 0..OFFERED {
        let (tenant, key, value) = ((i % 2) as u32, i, i.wrapping_mul(3) | 1);
        match w.put(tenant, key, value) {
            Ok(()) => accepted.push((tenant, key, value)),
            Err(e) => assert_eq!(e, KvError::QuotaExceeded),
        }
    }
    let stats = svc.admission_stats();
    assert!(stats.rejected_quota > 0, "an undersized quota must shed");
    assert_eq!(stats.accepted as usize, accepted.len());
    assert_eq!(stats.accepted + stats.rejected_quota, OFFERED);

    let images: Vec<_> = (0..svc.config().shards)
        .map(|s| {
            let mut img = svc.shard(s).runtime().device().capture(CrashPolicy::AllLost);
            svc.shard(s).recover_image(&mut img);
            img
        })
        .collect();
    for &(tenant, key, value) in &accepted {
        let shard = svc.router().shard_of(tenant, key);
        let got = svc.shard(shard).table().get_in_image(&images[shard], tenant, key);
        assert_eq!(got, Some(value), "accepted put (t{tenant}, k{key}) lost or mangled");
    }
    svc.shutdown();
}
