//! Regenerates Figure 13: speedup over EDE on the simulated hardware.
//!
//! Paper reference (geomean): HOOP 1.19x, SpecHPMT-DP ~1.0x, SpecHPMT
//! 1.41x, no-log 1.5x. Also prints the Figure 1 (bottom) overheads of EDE
//! and HOOP relative to no-log (paper: 50% and 29%).

use specpmt_bench::{print_table, run_hw_suite, with_geomean, HwRuntime};
use specpmt_stamp::{Scale, StampApp};
use specpmt_txn::geomean;

fn main() {
    let runtimes =
        [HwRuntime::Ede, HwRuntime::Hoop, HwRuntime::SpecDp, HwRuntime::Spec, HwRuntime::NoLog];
    let reports = run_hw_suite(&runtimes, Scale::Small);
    let rows: Vec<(String, Vec<f64>)> = StampApp::all()
        .iter()
        .zip(&reports)
        .map(|(app, row)| {
            let ede = &row[0];
            (app.name().to_string(), row[1..].iter().map(|r| r.speedup_over(ede)).collect())
        })
        .collect();
    let rows = with_geomean(rows);
    print_table(
        "Figure 13: speedup over EDE (hardware solution)",
        &["HOOP", "SpecHPMT-DP", "SpecHPMT", "no-log"],
        &rows,
        "x",
    );
    println!("\npaper geomeans: HOOP 1.19x, SpecHPMT-DP ~1.0x, SpecHPMT 1.41x, no-log 1.5x");

    // Figure 1 (bottom): overhead of EDE / HOOP over no-log.
    let ede_over =
        geomean(reports.iter().map(|row| row[0].sim_ns as f64 / row[4].sim_ns as f64)) - 1.0;
    let hoop_over =
        geomean(reports.iter().map(|row| row[1].sim_ns as f64 / row[4].sim_ns as f64)) - 1.0;
    let spec_over =
        geomean(reports.iter().map(|row| row[3].sim_ns as f64 / row[4].sim_ns as f64)) - 1.0;
    println!("\n## Figure 1 (hardware): overhead vs no-log");
    println!(
        "EDE {:.1}%  HOOP {:.1}%  SpecHPMT {:.1}%   (paper: EDE 50%, HOOP 29%, SpecHPMT ~7%)",
        ede_over * 100.0,
        hoop_over * 100.0,
        spec_over * 100.0
    );
}
