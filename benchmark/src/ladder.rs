//! The peeling ladder: one request stream replayed against successively
//! lower public entry points of the KV stack.
//!
//! | rung | entry point | what is left above it |
//! |---|---|---|
//! | 0 | `KvWorker::execute` | — |
//! | 1 | `ShardTable::{get,put,delete,cas,scan}` via `run_tx` on a `LockedTxHandle` | admission, routing, stats |
//! | 2 | the same reads and writes on a `LockedTxHandle` | the table's probing logic |
//! | 3 | the same reads and writes on a bare `TxHandle` | 2PL |
//! | 4 | `DeviceHandle::{read,write,clwb_ranges,sfence}` with the same bytes | the shared runtime |
//!
//! Every rung runs on its own freshly preloaded service, so all five see
//! the same table state evolve. Rungs 2 to 4 replay a recording of what
//! rung 1 asked of the transaction layer; the cost of walking that
//! recording is measured by itself and taken off them. A layer's self time
//! is the difference of adjacent rungs, so the parts sum to rung 0 by
//! construction; each rung's cost is the fast decile of its segments, like
//! every other host number.

use std::hint::black_box;
use std::sync::Arc;

use specpmt_core::record::{ENTRY_HDR, REC_HDR};
use specpmt_core::LockedTxHandle;
use specpmt_kv::{Admission, AdmissionConfig, KvOp, KvService, OpClass, ShardRouter, ShardTable};
use specpmt_pmem::{DeviceHandle, TimingMode};
use specpmt_txn::{run_tx, TxAccess};

use crate::estimator::{SegmentClass, FAST_Q};
use crate::harness::{timed, Plan};
use crate::kv::{load_gen, open_preloaded, Model, Spec, SHARDS, TENANTS};
use crate::report::Outcome;

/// Requests per rung and per rung segment.
const RUNG_OPS: usize = 100_000;
const RUNG_SEG: usize = 5_000;

/// One call at the transactional boundary, as rung 1 made it. The table
/// only ever moves eight-byte words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Begin,
    Read { addr: usize },
    Write { addr: usize, value: u64 },
    Commit,
}

/// Delegates to a [`TxAccess`] and writes down what was asked of it.
struct Recorder<'a, A: TxAccess> {
    inner: &'a mut A,
    log: &'a mut Vec<Access>,
}

impl<A: TxAccess> TxAccess for Recorder<'_, A> {
    fn begin(&mut self) {
        self.log.push(Access::Begin);
        self.inner.begin();
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        let value = u64::from_le_bytes(data.try_into().expect("the table writes u64 words"));
        self.log.push(Access::Write { addr, value });
        self.inner.write(addr, data);
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        assert_eq!(buf.len(), 8, "the table reads u64 words");
        self.log.push(Access::Read { addr });
        self.inner.read(addr, buf);
    }

    fn commit(&mut self) {
        self.log.push(Access::Commit);
        self.inner.commit();
    }

    fn doomed(&self) -> bool {
        self.inner.doomed()
    }

    fn alloc(&mut self, size: usize, align: usize) -> usize {
        self.inner.alloc(size, align)
    }

    fn free(&mut self, addr: usize, size: usize, align: usize) {
        self.inner.free(addr, size, align);
    }

    fn in_tx(&self) -> bool {
        self.inner.in_tx()
    }

    fn compute(&mut self, ns: u64) {
        self.inner.compute(ns);
    }

    fn local_now_ns(&self) -> u64 {
        self.inner.local_now_ns()
    }

    fn set_timing(&mut self, mode: TimingMode) -> TimingMode {
        self.inner.set_timing(mode)
    }

    fn setup_alloc(&mut self, bytes: usize, align: usize) -> usize {
        self.inner.setup_alloc(bytes, align)
    }

    fn setup_write(&mut self, addr: usize, data: &[u8]) {
        self.inner.setup_write(addr, data);
    }
}

/// What `KvWorker` does with an admitted request, minus the service's own
/// bookkeeping: generated CAS reads the current value in a transaction of
/// its own first.
fn table_op<A: TxAccess>(h: &mut A, table: ShardTable, op: KvOp) {
    let (t, k) = (op.tenant, op.key);
    match op.class {
        OpClass::Get => {
            black_box(run_tx(h, |tx| table.get(tx, t, k)));
        }
        OpClass::Put => {
            run_tx(h, |tx| table.put(tx, t, k, op.value)).expect("the table never fills");
        }
        OpClass::Delete => {
            black_box(run_tx(h, |tx| table.delete(tx, t, k)));
        }
        OpClass::Cas => {
            let expected = run_tx(h, |tx| table.get(tx, t, k));
            black_box(
                run_tx(h, |tx| table.cas(tx, t, k, expected, op.value))
                    .expect("the table never fills"),
            );
        }
        OpClass::Scan => {
            black_box(run_tx(h, |tx| table.scan(tx, t, k, op.value as usize)));
        }
    }
}

/// Replays recorded accesses on any transactional access point.
fn replay<A: TxAccess>(h: &mut A, accesses: &[Access]) {
    for a in accesses {
        match *a {
            Access::Begin => h.begin(),
            Access::Read { addr } => {
                black_box(h.read_u64(addr));
            }
            Access::Write { addr, value } => h.write_u64(addr, value),
            Access::Commit => h.commit(),
        }
    }
}

/// Walks the recording and does nothing with it: what rungs 2 to 4 pay
/// for being replays, which is not the program's cost.
fn replay_nothing(accesses: &[Access]) {
    for a in accesses {
        match *a {
            Access::Begin | Access::Commit => {}
            Access::Read { addr } => {
                black_box(addr);
            }
            Access::Write { addr, value } => {
                black_box((addr, value));
            }
        }
    }
}

/// The device work of the same transactions: in-place stores, a record of
/// the same size appended to a log window, one vectored flush, one fence.
struct DeviceLog {
    h: DeviceHandle,
    base: usize,
    len: usize,
    start: usize,
    cursor: usize,
}

impl DeviceLog {
    fn replay(&mut self, accesses: &[Access]) {
        for a in accesses {
            match *a {
                Access::Begin => {
                    if self.cursor + 4096 > self.len {
                        self.cursor = 0;
                    }
                    self.start = self.cursor;
                    self.cursor += REC_HDR;
                }
                Access::Read { addr } => {
                    black_box(self.h.read_u64(addr));
                }
                Access::Write { addr, value } => {
                    self.h.write_u64(addr, value);
                    let mut entry = [0u8; ENTRY_HDR + 8];
                    entry[..8].copy_from_slice(&(addr as u64).to_le_bytes());
                    entry[ENTRY_HDR..].copy_from_slice(&value.to_le_bytes());
                    self.h.write(self.base + self.cursor, &entry);
                    self.cursor += entry.len();
                }
                Access::Commit => {
                    self.h.write(self.base + self.start, &[0xC5; REC_HDR]);
                    self.h.clwb_ranges(&[(self.base + self.start, self.cursor - self.start)]);
                    black_box(self.h.sfence());
                }
            }
        }
    }
}

fn locked_handles(svc: &KvService) -> Vec<LockedTxHandle> {
    (0..SHARDS)
        .map(|s| {
            let shard = svc.shard(s);
            LockedTxHandle::new(shard.runtime().tx_handle(0), Arc::clone(shard.locks()))
        })
        .collect()
}

/// Times segments of `seg` requests: `f(first_request_index, count)` is
/// the only thing inside the timer.
fn rung(name: &'static str, ops: usize, seg: usize, mut f: impl FnMut(usize, usize)) -> f64 {
    let mut class = SegmentClass::new(name, 1.0);
    for first in (0..ops).step_by(seg) {
        let ((), ns, _) = timed(|| f(first, seg));
        class.ns.push(ns);
    }
    class.quantile(FAST_Q) / seg as f64
}

pub fn run(spec: &Spec, plan: &Plan, untraced_op_ns: f64, outcome: &mut Outcome) {
    let (ops_n, seg) =
        if plan.smoke { (RUNG_OPS / 50, RUNG_SEG / 50) } else { (RUNG_OPS, RUNG_SEG) };
    let router = ShardRouter::new(SHARDS);

    // The loadgen layer: drawing the stream is the first thing timed.
    let mut gen = load_gen(spec, plan.seed ^ 0x1ADD);
    let mut ops: Vec<(KvOp, usize)> = Vec::with_capacity(ops_n);
    let zipf = rung("zipf", ops_n, seg, |_, n| {
        for _ in 0..n {
            ops.push((gen.next_op(), 0));
        }
    });
    for (op, shard) in &mut ops {
        *shard = router.shard_of(op.tenant, op.key);
    }
    let fresh = |outcome: &mut Outcome| {
        let mut model = Model::new();
        let svc = open_preloaded(plan.seed, &mut model, outcome);
        (svc, model)
    };

    // Rung 0: the service's front door. Its answers are checked against
    // the model after the rung, outside every timer.
    let r0 = {
        let (svc, mut model) = fresh(outcome);
        let mut w = svc.worker(0);
        let mut results = Vec::with_capacity(ops_n);
        let ns = rung("execute", ops_n, seg, |first, n| {
            for (op, _) in &ops[first..first + n] {
                results.push(w.execute(*op));
            }
        });
        for ((op, _), got) in ops.iter().zip(&results) {
            if let Err(why) = model.check(op, got) {
                outcome.fail(1, format!("ladder rung 0: {why}"));
            }
        }
        ns
    };

    // Rung 1, and the recording of what it asks of the transaction layer.
    let r1 = {
        let (svc, _) = fresh(outcome);
        let mut handles = locked_handles(&svc);
        rung("table", ops_n, seg, |first, n| {
            for &(op, shard) in &ops[first..first + n] {
                table_op(&mut handles[shard], svc.shard(shard).table(), op);
            }
        })
    };
    let mut accesses: Vec<Access> = Vec::new();
    // `bounds[i]` is where request `i`'s accesses start; the shard is the
    // request's.
    let mut bounds = Vec::with_capacity(ops_n + 1);
    {
        let (svc, _) = fresh(outcome);
        let mut handles = locked_handles(&svc);
        for &(op, shard) in &ops {
            bounds.push(accesses.len());
            let mut rec = Recorder { inner: &mut handles[shard], log: &mut accesses };
            table_op(&mut rec, svc.shard(shard).table(), op);
        }
        bounds.push(accesses.len());
    }
    let slice = |i: usize| &accesses[bounds[i]..bounds[i + 1]];

    // Rung 2: the same accesses under 2PL; rung 3: on the bare handle.
    let r2 = {
        let (svc, _) = fresh(outcome);
        let mut handles = locked_handles(&svc);
        rung("locked", ops_n, seg, |first, n| {
            for i in first..first + n {
                replay(&mut handles[ops[i].1], slice(i));
            }
        })
    };
    let r3 = {
        let (svc, _) = fresh(outcome);
        let mut handles: Vec<_> =
            (0..SHARDS).map(|s| svc.shard(s).runtime().tx_handle(0)).collect();
        rung("concurrent", ops_n, seg, |first, n| {
            for i in first..first + n {
                replay(&mut handles[ops[i].1], slice(i));
            }
        })
    };

    // Rung 4: the same bytes straight at the shared device.
    let r4 = {
        let (svc, _) = fresh(outcome);
        const WINDOW: usize = 1 << 20;
        let mut logs: Vec<DeviceLog> = (0..SHARDS)
            .map(|s| {
                let pool = svc.shard(s).runtime().pool();
                let base = pool.alloc_direct(WINDOW, 64).expect("the pool has a spare MiB");
                DeviceLog { h: pool.handle(), base, len: WINDOW, start: 0, cursor: 0 }
            })
            .collect();
        rung("device", ops_n, seg, |first, n| {
            for i in first..first + n {
                logs[ops[i].1].replay(slice(i));
            }
        })
    };

    let walk = rung("walk", ops_n, seg, |first, n| {
        for i in first..first + n {
            replay_nothing(slice(i));
        }
    });
    let (r2, r3, r4) = (r2 - walk, r3 - walk, r4 - walk);

    let selves = [
        ("kv.service.self_host_ns_per_op", r0 - r1),
        ("kv.table.self_host_ns_per_op", r1 - r2),
        ("core.locked.self_host_ns_per_op", r2 - r3),
        ("core.concurrent.self_host_ns_per_op", r3 - r4),
        ("pmem.shared.self_host_ns_per_op", r4),
    ];
    outcome.set("kv.zipf.host_ns_per_op", zipf);
    for (name, ns) in selves {
        outcome.set(name, ns);
        if ns < 0.0 {
            outcome
                .warn(format!("ladder: {name} is negative ({ns:.1} ns): a lower rung cost more"));
        }
    }
    // Sum of parts: the rungs telescope to rung 0, so the ladder plus the
    // load generator must reproduce what an untraced op segment costs.
    let parts = r0 + zipf;
    outcome.set("trace.overhead_pct", (parts / untraced_op_ns - 1.0) * 100.0);
    if (parts / untraced_op_ns - 1.0).abs() > 0.10 {
        outcome.warn(format!(
            "ladder: parts sum to {parts:.1} ns/op, an untraced op segment costs \
             {untraced_op_ns:.1} ns/op (residual {:.1} ns)",
            untraced_op_ns - parts
        ));
    }

    // The two stateless layers inside rung 0's self time.
    let router_ns = rung("router", ops_n, seg, |first, n| {
        for (op, _) in &ops[first..first + n] {
            black_box(router.shard_of(op.tenant, op.key));
        }
    });
    let admission = Admission::new(TENANTS, AdmissionConfig::default());
    let admission_ns = rung("admission", ops_n, seg, |first, n| {
        for (op, _) in &ops[first..first + n] {
            black_box(admission.try_admit(op.tenant)).ok();
        }
    });
    outcome.set("kv.router.host_ns_per_op", router_ns);
    outcome.set("kv.admission.host_ns_per_op", admission_ns);
}
