//! Regenerates Figure 12: speedup over PMDK for the software runtimes on
//! the nine STAMP applications (real-machine experiment in the paper,
//! simulated PM here).
//!
//! Paper reference (geomean speedup over PMDK): Kamino-Tx 2.1x, SPHT 2.8x,
//! SpecSPMT-DP 3.0x, SpecSPMT 5.1x.

use specpmt_bench::{print_table, run_sw_suite, with_geomean, SwRuntime};
use specpmt_stamp::{Scale, StampApp};

fn main() {
    let runtimes =
        [SwRuntime::Pmdk, SwRuntime::Kamino, SwRuntime::Spht, SwRuntime::SpecDp, SwRuntime::Spec];
    let reports = run_sw_suite(&runtimes, Scale::Small);
    let rows: Vec<(String, Vec<f64>)> = StampApp::all()
        .iter()
        .zip(&reports)
        .map(|(app, row)| {
            let pmdk = &row[0];
            (app.name().to_string(), row[1..].iter().map(|r| r.speedup_over(pmdk)).collect())
        })
        .collect();
    let rows = with_geomean(rows);
    print_table(
        "Figure 12: speedup over PMDK (software solution)",
        &["Kamino-Tx", "SPHT", "SpecSPMT-DP", "SpecSPMT"],
        &rows,
        "x",
    );
    println!("\npaper geomeans: Kamino-Tx 2.1x, SPHT 2.8x, SpecSPMT-DP 3.0x, SpecSPMT 5.1x");
}
