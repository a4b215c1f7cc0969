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
    // Means: get 2.7, put 152.7, delete 111.7, cas 155.4, scan 127.6 ns.
    const GOLDEN: [(u64, u64); 5] = [
        (42_047, 112_547),
        (11_976, 1_828_696),
        (1_180, 131_854),
        (3_016, 468_636),
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
