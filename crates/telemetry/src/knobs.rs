//! The typed `SPECPMT_*` environment-knob surface.
//!
//! Every environment variable the workspace reads is parsed **here, once**
//! into a [`Knobs`] struct ([`Knobs::get`] caches the first parse for the
//! process lifetime). Ad-hoc `std::env::var("SPECPMT_..")` calls sprinkled
//! across crates are not allowed — a knob nobody can enumerate is a knob
//! nobody can document, and the verify tier greps for strays.
//!
//! Malformed or out-of-range values are **named errors**
//! ([`KnobError`]), never silent defaults: a typo'd
//! `SPECPMT_TELEMETRY=maybe` fails fast with the variable name, the
//! offending value, and what was expected, instead of quietly running
//! with telemetry off.
//!
//! | Variable | Default | Accepted values | Meaning |
//! |---|---|---|---|
//! | `SPECPMT_TELEMETRY` | off | `1/true/yes/on` (or `0/false/no/off`) | Start metric registries enabled. |
//! | `SPECPMT_BENCH_SMOKE` | off | set (any value) | Run benches at bounded smoke scale. |
//! | `SPECPMT_CRASH_TARGET` | unset | `site:hit` | Deterministic crash target for the enumeration harness (1-based hit count; site names in `specpmt_pmem::sites`). |

use std::fmt;
use std::sync::OnceLock;

/// A named environment-knob parse failure: which variable, what it held,
/// and what was expected. Surfaced by [`Knobs::try_from_env`]; the
/// process-wide [`Knobs::get`] panics with this message rather than
/// running with a value the operator didn't ask for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The offending `SPECPMT_*` variable.
    pub var: &'static str,
    /// The raw value found in the environment.
    pub value: String,
    /// What the variable accepts.
    pub expected: &'static str,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}={:?}: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for KnobError {}

fn bad(var: &'static str, value: &str, expected: &'static str) -> KnobError {
    KnobError { var, value: value.to_string(), expected }
}

/// Parses a boolean toggle: `1/true/yes/on` are truthy, `0/false/no/off`
/// (and empty) are falsy, anything else is a named error.
fn parse_flag(var: &'static str, raw: Option<&str>) -> Result<bool, KnobError> {
    let Some(raw) = raw else { return Ok(false) };
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Ok(true),
        "" | "0" | "false" | "no" | "off" => Ok(false),
        _ => Err(bad(var, raw, "a boolean (1/true/yes/on or 0/false/no/off)")),
    }
}

/// The parsed `SPECPMT_*` knob set (see the module table for each knob's
/// default and accepted values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// `SPECPMT_TELEMETRY`: start metric registries enabled.
    pub telemetry: bool,
    /// `SPECPMT_BENCH_SMOKE`: set (to anything) runs benches at smoke
    /// scale.
    pub bench_smoke: bool,
    /// `SPECPMT_CRASH_TARGET`: a `site:hit` crash target for the
    /// deterministic enumeration harness, kept as raw strings here (this
    /// crate sits below `specpmt-pmem`, which owns the typed `CrashPlan`
    /// and validates the site name against its inventory).
    pub crash_target: Option<(String, u64)>,
}

impl Knobs {
    /// Parses knobs through an arbitrary lookup function — the
    /// environment in production ([`Knobs::try_from_env`]), a map in
    /// tests. Returns the first [`KnobError`] encountered.
    pub fn from_lookup(look: &dyn Fn(&str) -> Option<String>) -> Result<Self, KnobError> {
        let get = |name: &str| look(name);
        let telemetry = parse_flag("SPECPMT_TELEMETRY", get("SPECPMT_TELEMETRY").as_deref())?;
        let bench_smoke = get("SPECPMT_BENCH_SMOKE").is_some();
        let crash_target = match get("SPECPMT_CRASH_TARGET") {
            None => None,
            Some(raw) => Some(Self::parse_crash_target(&raw).ok_or_else(|| {
                bad(
                    "SPECPMT_CRASH_TARGET",
                    &raw,
                    "a site:hit target with a 1-based hit count (e.g. mt/commit/fence:3)",
                )
            })?),
        };
        Ok(Self { telemetry, bench_smoke, crash_target })
    }

    /// Parses the process environment, surfacing the first malformed
    /// knob as a named error.
    pub fn try_from_env() -> Result<Self, KnobError> {
        Self::from_lookup(&|name| std::env::var(name).ok())
    }

    /// Parses the environment fresh. Prefer [`Knobs::get`] outside tests —
    /// knobs are meant to be read once at startup.
    ///
    /// # Panics
    ///
    /// Panics with the [`KnobError`] message when a `SPECPMT_*` variable
    /// holds a malformed or out-of-range value — failing fast beats
    /// silently running with a default the operator didn't ask for.
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(k) => k,
            Err(e) => panic!("{e}"),
        }
    }

    /// The process-wide knob set, parsed once on first use.
    pub fn get() -> &'static Knobs {
        static KNOBS: OnceLock<Knobs> = OnceLock::new();
        KNOBS.get_or_init(Knobs::from_env)
    }

    /// Splits a `site:hit` target string; hit counts are 1-based, so `0`
    /// (like any malformed target) is rejected. Full site-name validation
    /// happens in `specpmt_pmem::CrashPlan::parse_target`.
    fn parse_crash_target(s: &str) -> Option<(String, u64)> {
        let (site, hit) = s.rsplit_once(':')?;
        let hit: u64 = hit.trim().parse().ok()?;
        if site.is_empty() || hit == 0 {
            return None;
        }
        Some((site.to_string(), hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn from_map(pairs: &[(&str, &str)]) -> Result<Knobs, KnobError> {
        let map: HashMap<String, String> =
            pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        Knobs::from_lookup(&move |name| map.get(name).cloned())
    }

    #[test]
    fn defaults_are_all_off() {
        let k = from_map(&[]).expect("empty environment parses");
        assert!(!k.telemetry && !k.bench_smoke);
        assert_eq!(k.crash_target, None);
    }

    #[test]
    fn well_formed_values_parse() {
        let k = from_map(&[
            ("SPECPMT_TELEMETRY", "TRUE"),
            ("SPECPMT_BENCH_SMOKE", "whatever"),
            ("SPECPMT_CRASH_TARGET", "mt/commit/fence:3"),
        ])
        .expect("all values are well-formed");
        assert!(k.telemetry && k.bench_smoke);
        assert_eq!(k.crash_target, Some(("mt/commit/fence".to_string(), 3)));
    }

    /// Every documented variable with a constrained value space must
    /// produce a **named** error on malformed input — the variable name
    /// and the offending value both appear in the message.
    #[test]
    fn malformed_values_name_the_variable() {
        let cases: &[(&str, &str)] = &[
            ("SPECPMT_TELEMETRY", "maybe"),
            ("SPECPMT_CRASH_TARGET", "no-colon"),
            ("SPECPMT_CRASH_TARGET", "site:0"),
            ("SPECPMT_CRASH_TARGET", ":3"),
            ("SPECPMT_CRASH_TARGET", "a/b:x"),
        ];
        for (var, value) in cases {
            let err =
                from_map(&[(var, value)]).expect_err(&format!("{var}={value} must be rejected"));
            assert_eq!(err.var, *var);
            assert_eq!(err.value, *value);
            let msg = err.to_string();
            assert!(msg.contains(var), "error must name the variable: {msg}");
            assert!(msg.contains(value), "error must show the value: {msg}");
        }
    }

    #[test]
    fn crash_target_parses_site_and_hit() {
        assert_eq!(
            Knobs::parse_crash_target("seq/commit/flush:2"),
            Some(("seq/commit/flush".to_string(), 2))
        );
        assert_eq!(Knobs::parse_crash_target("no-colon"), None);
        assert_eq!(Knobs::parse_crash_target("site:0"), None, "hit counts are 1-based");
        assert_eq!(Knobs::parse_crash_target(":3"), None);
        assert_eq!(Knobs::parse_crash_target("a/b:x"), None);
    }

    #[test]
    fn env_parse_does_not_panic_on_clean_process_env() {
        // The test-runner environment is expected to be well-formed; the
        // named-error path is exercised through `from_lookup` above.
        for (k, _) in std::env::vars() {
            if k.starts_with("SPECPMT_") {
                return; // externally-set knobs: nothing to assert here
            }
        }
        let k = Knobs::try_from_env().expect("clean environment parses");
        assert!(!k.telemetry);
    }
}
