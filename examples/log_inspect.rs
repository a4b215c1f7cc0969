//! Post-crash log inspection: the `fsck`-style view an operator gets of a
//! crashed pool before (and after) running recovery.
//!
//! ```text
//! cargo run --example log_inspect                        # chain summary
//! cargo run --example log_inspect -- --forensics         # + flight-recorder decode
//! cargo run --example log_inspect -- --json --forensics
//! cargo run --example log_inspect -- --crash mt/commit/fence:2
//! ```
//!
//! `--crash site:hit` picks the injection point (a labeled site of
//! `specpmt::pmem::sites`); without it the pool is captured with one
//! transaction open. `--forensics` appends the flight-recorder decode
//! ([`specpmt::core::forensics`]) to the crashed pool's chain summary;
//! `--json` emits every report as machine-readable JSON (the
//! [`specpmt::telemetry::StatExport`] schema), one object per line,
//! instead of tables.

use specpmt::core::{forensics, inspect_image, ConcurrentConfig, SpecSpmtShared};
use specpmt::pmem::{CrashControl, CrashPlan, CrashPolicy};
use specpmt::telemetry::StatExport;
use specpmt::txn::TxAccess;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let want_forensics = args.iter().any(|a| a == "--forensics");
    let target = args.iter().position(|a| a == "--crash").and_then(|i| args.get(i + 1));
    let plan = target.map(|t| {
        CrashPlan::parse_target(t).unwrap_or_else(|e| {
            eprintln!("--crash {t}: {e}");
            std::process::exit(2);
        })
    });

    // Three log chains with the recorder on, one `TxHandle` each, stepped
    // round-robin from this thread — a deterministic stand-in for three
    // application threads.
    let cfg = ConcurrentConfig::builder().threads(3).flight_recorder(true).build();
    let shared = SpecSpmtShared::open_or_format(1 << 20, cfg);
    let mut handles: Vec<_> = (0..3).map(|tid| shared.tx_handle(tid)).collect();

    handles[0].begin();
    let a = handles[0].alloc(256, 64);
    handles[0].commit();
    if let Some(plan) = plan {
        shared.device().arm(plan);
    }
    'run: for round in 0..30u64 {
        for (tid, h) in handles.iter_mut().enumerate() {
            h.begin();
            h.write_u64(a + tid * 8, round * 3 + tid as u64);
            h.commit();
            if shared.device().fired() {
                break 'run;
            }
        }
    }
    let mut image = shared.device().take_image().unwrap_or_else(|| {
        if let Some(t) = target {
            eprintln!("note: {t} never fired; crashing mid-transaction instead");
        }
        handles[1].begin();
        handles[1].write_u64(a + 8, 0xFFFF);
        shared.device().capture(CrashPolicy::Random(7))
    });

    let fx = want_forensics.then(|| forensics(&image));
    if json {
        println!("{}", inspect_image(&image).to_json());
        if let Some(fx) = &fx {
            println!("{}", fx.to_json());
        }
    } else {
        println!("=== crashed pool ===");
        println!("{}", inspect_image(&image));
        if let Some(fx) = &fx {
            println!("{fx}");
        }
    }

    SpecSpmtShared::recover(&mut image);
    if json {
        println!("{}", inspect_image(&image).to_json());
    } else {
        println!("=== after recovery ===");
    }
    for tid in 0..3usize {
        let v = image.read_u64(a + tid * 8);
        if !json {
            println!("thread {tid} datum: {v}");
        }
        // Whatever the crash point, a datum is zero or a value its thread
        // committed — never the interrupted 0xFFFF.
        assert!(v == 0 || (v % 3 == tid as u64 && v < 90), "thread {tid} recovered {v}");
    }
    if !json {
        println!("log_inspect OK");
    }
}
