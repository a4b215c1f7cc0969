//! The metric catalogue, a run's outcome, and the result line.
//!
//! The catalogue is the single source of the names in `BENCHMARK.json`
//! (`benchmark manifest` prints that file from it; `check.sh` compares).
//! A run may only report catalogued names, and reports every one of its
//! mode: a per-layer metric a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use specpmt_kv::OP_CLASSES;
use specpmt_stamp::StampApp;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics carry none.
    pub bound: Option<f64>,
}

/// Metrics that depend only on the inputs, never on the host: two runs of
/// one seed must agree on them exactly.
pub const DETERMINISTIC: [&str; 3] = ["sim_ns_per_op", "pm_write_bytes_per_op", "log_peak_bytes"];

pub fn end_to_end() -> Vec<MetricDef> {
    let def = |name: &str, unit, bound| MetricDef {
        name: name.to_string(),
        unit,
        better: Better::Lower,
        bound: Some(bound),
    };
    vec![
        def("setup_s", "s", 0.25),
        // Sized to this box, not to the estimator: same-code medians of ten
        // runs taken ten minutes apart moved by 14 %, and ten-seed spreads
        // reached 8 %.
        def("host_ns_per_op", "ns", 0.25),
        // kv_write's simulated cost moves by up to 1 % from seed to seed
        // (where compaction leaves the log cursor decides XPLine hits).
        def("sim_ns_per_op", "sim_ns", 0.03),
        def("pm_write_bytes_per_op", "bytes", 0.01),
        def("log_peak_bytes", "bytes", 0.01),
        def("peak_rss_mb", "MB", 0.05),
    ]
}

pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        defs.push(MetricDef { name, unit, better, bound: None });
    };

    for count in ["clwb", "sfence", "lines_persisted"] {
        add(format!("pmem.{count}_per_op"), "1/op", Lower);
    }
    add("pmem.bytes_stored_per_op".into(), "bytes", Lower);
    add("pmem.fence_stall_sim_ns_per_op".into(), "sim_ns", Lower);
    add("pmem.seq_line_hit_ratio".into(), "ratio", Higher);
    add("pmem.wpq_drain_sim_ns_p99".into(), "sim_ns", Lower);
    add("pmem.pool_create_host_ms".into(), "ms", Lower);
    add("pmem.commit_probe_host_ns".into(), "ns", Lower);
    add("pmem.shared_commit_probe_host_ns".into(), "ns", Lower);

    for layer in ["core.runtime", "hwtx.spec"] {
        for call in ["begin", "read", "write", "commit"] {
            add(format!("{layer}.{call}.calls_per_op"), "1/op", Lower);
            add(format!("{layer}.{call}.host_ns_per_op"), "ns", Lower);
            add(format!("{layer}.{call}.sim_ns_per_op"), "sim_ns", Lower);
        }
    }
    add("stamp.body_host_ns_per_op".into(), "ns", Lower);

    for phase in ["writeset", "seal", "append", "flush", "fence", "lock_release", "envelope"] {
        add(format!("core.commit.{phase}_host_ns"), "ns", Lower);
    }
    add("core.commit.sim_ns".into(), "sim_ns", Lower);

    for layer in [
        "kv.zipf.host_ns_per_op",
        "kv.router.host_ns_per_op",
        "kv.admission.host_ns_per_op",
        "kv.service.self_host_ns_per_op",
        "kv.table.self_host_ns_per_op",
        "core.locked.self_host_ns_per_op",
        "core.concurrent.self_host_ns_per_op",
        "pmem.shared.self_host_ns_per_op",
    ] {
        add(layer.into(), "ns", Lower);
    }
    for class in OP_CLASSES {
        add(format!("kv.service.host_ns_per_op.{}", class.as_str()), "ns", Lower);
        add(format!("kv.service.sim_ns_per_op.{}", class.as_str()), "sim_ns", Lower);
    }
    add("txn.lock.acquires_per_op".into(), "1/op", Lower);
    add("txn.lock.conflict_rate".into(), "ratio", Lower);
    add("txn.lock.wait_host_ns_p99".into(), "ns", Lower);
    add("kv.admission.rejected_share".into(), "ratio", Lower);

    add("core.reclaim.cycles".into(), "count", Lower);
    add("core.reclaim.host_ms_per_cycle".into(), "ms", Lower);
    add("core.reclaim.host_ns_per_op".into(), "ns", Lower);
    add("core.reclaim.sim_ns_per_op".into(), "sim_ns", Lower);
    add("core.reclaim.records_kept_per_cycle".into(), "count", Lower);
    add("core.reclaim.records_dropped_per_cycle".into(), "count", Higher);
    add("core.reclaim.kept_ratio".into(), "ratio", Lower);

    for variant in ["t1_ckpt", "t1_full", "t2_ckpt", "t2_full"] {
        add(format!("core.recovery.host_ms.{variant}"), "ms", Lower);
        add(format!("core.recovery.sim_ns.{variant}"), "sim_ns", Lower);
    }
    add("core.recovery.parse_host_ms".into(), "ms", Lower);
    add("core.recovery.replay_self_host_ms".into(), "ms", Lower);
    add("core.recovery.records_parsed".into(), "count", Lower);
    add("core.recovery.records_replayed".into(), "count", Lower);
    add("core.recovery.forensics_host_ms".into(), "ms", Lower);
    add("core.recovery.image_clone_host_ms".into(), "ms", Lower);
    add("core.checkpoint.write_host_ms".into(), "ms", Lower);

    add("core.checksum.fnv1a64_host_ns_per_kib".into(), "ns", Lower);
    add("core.writeset.stage_host_ns_per_entry".into(), "ns", Lower);
    add("core.record.parse_host_ns_per_record".into(), "ns", Lower);

    add("hwsim.l1_hit_ratio".into(), "ratio", Higher);
    add("hwsim.l2_hit_ratio".into(), "ratio", Higher);
    add("hwsim.mem_accesses_per_op".into(), "1/op", Lower);
    add("hwsim.tlb_miss_per_op".into(), "1/op", Lower);
    add("hwsim.commit_scans_per_op".into(), "1/op", Lower);
    add("hwsim.epochs_cleared_per_op".into(), "1/op", Lower);
    add("hwtx.spec.avg_log_footprint_bytes".into(), "bytes", Lower);

    for app in StampApp::all() {
        add(format!("stamp.host_ns_per_op.{}", app.name()), "ns", Lower);
        add(format!("stamp.sim_ns_per_op.{}", app.name()), "sim_ns", Lower);
    }
    add("stamp.sim_speedup_geomean".into(), "ratio", Higher);
    add("stamp.paper_error_pct".into(), "%", Lower);

    add("alloc.calls_per_op".into(), "1/op", Lower);
    add("alloc.bytes_per_op".into(), "bytes", Lower);
    add("host.median_ns_per_op".into(), "ns", Lower);
    add("host.mean_over_fast".into(), "ratio", Lower);
    add("host.slow_segment_share".into(), "ratio", Lower);
    add("host.sim_ratio".into(), "ratio", Lower);
    add("telemetry.on_overhead_pct".into(), "%", Lower);
    add("trace.overhead_pct".into(), "%", Lower);
    defs
}

/// What one run measured, before it is checked against the catalogue.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human-readable part of the output.
    pub failures: Vec<String>,
    /// Sum-of-parts and schedule violations: printed, never dropped.
    pub warnings: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Counts `ops` failed operations under one explanation.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn warn(&mut self, what: String) {
        self.warnings.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The values of `defs` in catalogue order.
///
/// # Panics
///
/// Panics if the outcome carries a name outside `defs`: a typo would
/// otherwise silently report 0 under the intended name.
pub fn ordered(outcome: &Outcome, defs: &[MetricDef]) -> Vec<(MetricDef, f64)> {
    for name in outcome.metrics.keys() {
        assert!(defs.iter().any(|d| &d.name == name), "metric {name} is not in the catalogue");
    }
    defs.iter()
        .map(|d| {
            let v = outcome.metrics.get(&d.name).copied().unwrap_or(0.0);
            (d.clone(), if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

/// The contract's result line: one JSON object, printed last.
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (def, value)) in ordered(outcome, defs).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    out.push_str("}}");
    out
}

/// Reads a metric's value back out of a result line (selfcheck's side).
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Reads `"field": <integer>` out of a result line.
pub fn count_in(line: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// `BENCHMARK.json`, generated from the catalogue and the workload list.
pub fn manifest(workloads: &[(&str, &str)], run_seconds: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, d) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, d) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.as_str(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn catalogue_names_are_legal_and_unique() {
        let mut names: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|d| d.name).collect();
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert_eq!(end_to_end().len(), 6);
        assert_eq!(per_layer().len(), 125);
        assert!(DETERMINISTIC.iter().all(|n| end_to_end().iter().any(|d| &d.name == n)));
    }

    #[test]
    fn result_line_reports_every_catalogued_metric_and_round_trips() {
        let mut o = Outcome { attempted: 1000, ..Outcome::default() };
        o.set("host_ns_per_op", 1234.5678901);
        o.set("setup_s", 0.25);
        let line = result_line(&o, &end_to_end());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(line.ends_with("}}"));
        assert!(!line.contains('\n'));
        assert_eq!(value_in(&line, "host_ns_per_op"), Some(1234.5678901));
        assert_eq!(value_in(&line, "setup_s"), Some(0.25));
        // Catalogued but unset: present, reads 0.
        assert_eq!(value_in(&line, "peak_rss_mb"), Some(0.0));
        assert_eq!(count_in(&line, "attempted"), Some(1000));
        assert_eq!(count_in(&line, "failed"), Some(0));
    }

    #[test]
    fn failures_flip_correct_and_non_finite_values_read_zero() {
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        o.fail(3, "model mismatch".into());
        o.set("host_ns_per_op", f64::NAN);
        let line = result_line(&o, &end_to_end());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 3, "));
        assert_eq!(value_in(&line, "host_ns_per_op"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn an_uncatalogued_name_is_a_bug() {
        let mut o = Outcome::default();
        o.set("host_ns_per_opp", 1.0);
        let _ = result_line(&o, &end_to_end());
    }
}
