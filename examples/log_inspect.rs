//! Post-crash log inspection: the `fsck`-style view an operator gets of a
//! crashed pool before (and after) running recovery.
//!
//! Run with: `cargo run --example log_inspect`
//!
//! Pass `--json` to emit the machine-readable report (same schema as the
//! [`specpmt::telemetry::StatExport`] JSON surface) instead of the
//! human-readable rendering.

use specpmt::core::{inspect_image, ConcurrentConfig, SpecSpmtShared};
use specpmt::pmem::CrashPolicy;
use specpmt::telemetry::StatExport;
use specpmt::txn::TxAccess;
use specpmt_pmem::CrashControl;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    // Three log chains, one `TxHandle` each, stepped round-robin from this
    // thread — a deterministic stand-in for three application threads.
    let shared =
        SpecSpmtShared::open_or_format(1 << 20, ConcurrentConfig::builder().threads(3).build());
    let mut handles: Vec<_> = (0..3).map(|tid| shared.tx_handle(tid)).collect();

    handles[0].begin();
    let a = handles[0].alloc(256, 64);
    handles[0].commit();
    for round in 0..30u64 {
        for (tid, h) in handles.iter_mut().enumerate() {
            h.begin();
            h.write_u64(a + tid * 8, round * 3 + tid as u64);
            h.commit();
        }
    }
    // Crash mid-transaction on thread 1.
    handles[1].begin();
    handles[1].write_u64(a + 8, 0xFFFF);

    let mut image = shared.device().capture(CrashPolicy::Random(7));
    if json {
        // Machine-readable: one JSON object per line (crashed, recovered).
        println!("{}", inspect_image(&image).to_json());
    } else {
        println!("=== crashed pool ===");
        println!("{}", inspect_image(&image));
    }

    SpecSpmtShared::recover(&mut image);
    if json {
        println!("{}", inspect_image(&image).to_json());
    } else {
        println!("=== after recovery ===");
        for tid in 0..3usize {
            println!("thread {tid} datum: {}", image.read_u64(a + tid * 8));
        }
    }
    assert_eq!(image.read_u64(a + 8), 29 * 3 + 1, "interrupted update revoked");
    if !json {
        println!("log_inspect OK");
    }
}
