//! Exact simulated cost of the kv front door, per op class.
//!
//! One worker drives a fixed-seed zipfian stream with the daemons and the
//! SLO governor off, so every transaction replays the same simulated
//! device timeline on any host: the per-class totals below are integers a
//! change to the service, 2PL, commit or device path either leaves alone
//! or has to explain. (Host-clock cost per class is `benchmark/`'s
//! `kv.service.host_ns_per_op.*`.)

use specpmt_kv::{KvConfig, KvService, LoadGen, OpClass, WorkloadSpec, OP_CLASSES};

const OPS: usize = 60_000;

/// `(completed, summed simulated ns)` per op class, in [`OP_CLASSES`]
/// order, after [`OPS`] ops of the default mix over 4096 keys.
fn sim_totals(cfg: KvConfig) -> [(u64, u64); 5] {
    let svc = KvService::open(cfg);
    let mut gen = LoadGen::new(WorkloadSpec { key_space: 4096, ..WorkloadSpec::default() });
    let mut w = svc.worker(0);
    for _ in 0..OPS {
        w.execute(gen.next_op()).expect("no quota, no governor: nothing is shed");
    }
    let totals = OP_CLASSES.map(|class| {
        let sim = svc.stats().sim(class);
        (sim.count(), sim.sum)
    });
    svc.shutdown();
    totals
}

#[test]
fn per_op_class_sim_cost_matches_goldens() {
    // Means: get 2.7, put 146.3, delete 108.5, cas 148.9, scan 127.6 ns.
    // A write that starts where the transaction's last log entry ends
    // extends that entry instead of adding a header, so a put or cas that
    // writes adjacent slot fields logs fewer lines (put was 1_828_696,
    // cas 468_636). A delete writes one word and has nothing to extend;
    // only the alignment of its record behind the shorter ones moves it
    // (was 131_854). An 8-byte entry header (12 before) logs 4 bytes less
    // per entry, so every writing class fell again: put from 1_812_535,
    // delete from 132_320, cas from 464_601. A record stored into its
    // chain once, at the seal, stores no reserved header and no length or
    // patch rewrites, so every writing class fell once more: put from
    // 1_793_328, delete from 130_711, cas from 459_544.
    const GOLDEN: [(u64, u64); 5] = [
        (42_047, 112_547),
        (11_976, 1_751_646),
        (1_180, 128_068),
        (3_016, 449_024),
        (1_781, 227_323),
    ];
    // Tables sized so the key space stays under 50 % occupancy per shard.
    let cfg = KvConfig::default()
        .with_shards(2)
        .with_workers(1)
        .with_capacity_per_shard(1 << 13)
        .with_pool_bytes(16 << 20)
        .with_daemons(false)
        .with_governor_every(0)
        .with_flight_recorder(false);
    assert_eq!(sim_totals(cfg), GOLDEN);

    // A dearer device (one media channel for six) must move every class
    // that persists, and cannot move the ones that issue no flush.
    let dearer = sim_totals(KvConfig { media_channels: 1, ..cfg });
    for class in OP_CLASSES {
        let (got, golden) = (dearer[class.index()], GOLDEN[class.index()]);
        match class {
            OpClass::Get | OpClass::Scan => assert_eq!(got, golden, "{class:?} is read-only"),
            _ => assert_ne!(got, golden, "{class:?} on one media channel"),
        }
    }
}
