//! Benchmark regression gate: diffs a freshly generated `BENCH_*.json`
//! report against a committed baseline.
//!
//! The virtual platform is deterministic, so most drift is a real change
//! in behaviour rather than noise. The rules, from strictest to loosest:
//!
//! * **byte counters** (`metrics.counters.*`) must match exactly — a
//!   transfer that moves one extra byte is a coherence-protocol change;
//! * **booleans** that are `true` in the baseline (shape flags such as
//!   `shape_reproduced` or `balanced`) must stay `true`;
//! * **strings** must match exactly (schema, params, names);
//! * **numbers** (kernel milliseconds, speedups, imbalance ratios,
//!   histogram stats) must stay within a relative tolerance;
//! * **machine-dependent gauges** (`pool.threads` and
//!   `pool.steal_balance`) are checked for presence and type only — a pool
//!   has one thread per CPU of the machine that ran the report. Reports
//!   carry no host wall-clock at all: `bench/e2e` measures that;
//! * a key present in the baseline but **missing** from the fresh report
//!   is a regression; extra keys in the fresh report are fine (schema
//!   growth is not a regression).

use skelcl_profile::json::Json;

/// Tunables for [`diff_reports`].
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Maximum relative deviation allowed for numeric fields.
    pub rel_tolerance: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            rel_tolerance: 0.10,
        }
    }
}

/// Compares `fresh` against `baseline` and returns one human-readable
/// violation per regressed field (empty means the gate passes).
pub fn diff_reports(name: &str, baseline: &Json, fresh: &Json, cfg: &GateConfig) -> Vec<String> {
    let mut out = Vec::new();
    walk(name, baseline, fresh, cfg, &mut out);
    out
}

fn walk(path: &str, baseline: &Json, fresh: &Json, cfg: &GateConfig, out: &mut Vec<String>) {
    match (baseline, fresh) {
        (Json::Obj(fields), Json::Obj(_)) => {
            for (key, base_val) in fields {
                let sub = format!("{path}.{key}");
                match fresh.get(key) {
                    Some(fresh_val) => walk(&sub, base_val, fresh_val, cfg, out),
                    None => out.push(format!("{sub}: missing from fresh report")),
                }
            }
        }
        (Json::Arr(b), Json::Arr(f)) => {
            if b.len() != f.len() {
                out.push(format!(
                    "{path}: array length changed ({} -> {})",
                    b.len(),
                    f.len()
                ));
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                walk(&format!("{path}[{i}]"), bv, fv, cfg, out);
            }
        }
        (Json::Num(b), Json::Num(f)) => {
            if loose_path(path) {
                // Presence and type already established by the match.
            } else if exact_path(path) {
                if b != f {
                    out.push(format!("{path}: expected exactly {b}, got {f}"));
                }
            } else {
                let scale = b.abs().max(1e-12);
                let rel = (f - b).abs() / scale;
                if rel > cfg.rel_tolerance {
                    out.push(format!(
                        "{path}: {f} deviates {:.1}% from baseline {b} (tolerance {:.0}%)",
                        rel * 100.0,
                        cfg.rel_tolerance * 100.0
                    ));
                }
            }
        }
        (Json::Bool(b), Json::Bool(f)) => {
            // Only a true->false flip is a regression; a flag the baseline
            // already failed cannot regress further.
            if *b && !f {
                out.push(format!("{path}: baseline-true flag became false"));
            }
        }
        (Json::Str(b), Json::Str(f)) => {
            if b != f {
                out.push(format!("{path}: expected {b:?}, got {f:?}"));
            }
        }
        (Json::Null, Json::Null) => {}
        (b, f) => out.push(format!(
            "{path}: type changed ({} -> {})",
            type_name(b),
            type_name(f)
        )),
    }
}

/// Deterministic-exact fields: every profiler counter (byte counts, call
/// counts, cache hits) — the simulator makes them reproducible bit for
/// bit, so any drift is a behaviour change.
fn exact_path(path: &str) -> bool {
    path.contains(".metrics.counters.")
}

/// Machine-dependent fields, checked for presence and type only: a
/// device's pool has one thread per CPU of the machine (`pool.threads`),
/// and with more than one, `pool.steal_balance` is a matter of which worker
/// woke first.
fn loose_path(path: &str) -> bool {
    path.contains(".metrics.gauges.pool.threads.")
        || path.contains(".metrics.gauges.pool.steal_balance.")
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Json {
        Json::parse(
            r#"{
                "schema": "skelcl-bench-report/1",
                "name": "scaling",
                "results": {
                    "mandelbrot_kernel_ms": 0.125,
                    "speedup": 3.98,
                    "shape_reproduced": true,
                    "rows": [{"devices": 1}, {"devices": 2}]
                },
                "metrics": {"counters": {"bytes.h2d": 786432, "skeleton.calls": 4}}
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let r = report();
        assert!(diff_reports("scaling", &r, &r, &GateConfig::default()).is_empty());
    }

    #[test]
    fn jitter_within_tolerance_passes() {
        let base = report();
        let fresh = Json::parse(
            &base
                .to_json()
                .replace("0.125", "0.130")
                .replace("3.98", "3.90"),
        )
        .unwrap();
        assert!(diff_reports("scaling", &base, &fresh, &GateConfig::default()).is_empty());
    }

    #[test]
    fn injected_slowdown_fails() {
        let base = report();
        // 2x kernel time: far outside the 10% band.
        let fresh = Json::parse(&base.to_json().replace("0.125", "0.250")).unwrap();
        let violations = diff_reports("scaling", &base, &fresh, &GateConfig::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("mandelbrot_kernel_ms"));
    }

    #[test]
    fn byte_counters_are_exact() {
        let base = report();
        // One extra byte transferred: within any tolerance, still a failure.
        let fresh = Json::parse(&base.to_json().replace("786432", "786433")).unwrap();
        let violations = diff_reports("scaling", &base, &fresh, &GateConfig::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("bytes.h2d"));
        assert!(violations[0].contains("exactly"));
    }

    #[test]
    fn shape_flag_must_stay_true() {
        let base = report();
        let fresh = Json::parse(&base.to_json().replace("true", "false")).unwrap();
        let violations = diff_reports("scaling", &base, &fresh, &GateConfig::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("shape_reproduced"));
    }

    #[test]
    fn missing_key_and_shorter_array_fail() {
        let base = report();
        let fresh = Json::parse(
            r#"{
                "schema": "skelcl-bench-report/1",
                "name": "scaling",
                "results": {
                    "speedup": 3.98,
                    "shape_reproduced": true,
                    "rows": [{"devices": 1}]
                },
                "metrics": {"counters": {"bytes.h2d": 786432, "skeleton.calls": 4}}
            }"#,
        )
        .unwrap();
        let violations = diff_reports("scaling", &base, &fresh, &GateConfig::default());
        assert!(violations.iter().any(|v| v.contains("missing")));
        assert!(violations.iter().any(|v| v.contains("array length")));
    }

    #[test]
    fn pool_gauges_follow_the_machine_not_the_baseline() {
        let report = |threads: f64, balance: f64, groups: f64| {
            Json::obj([(
                "metrics",
                Json::obj([(
                    "gauges",
                    Json::obj([
                        ("pool.threads", Json::obj([("gpu0", Json::Num(threads))])),
                        (
                            "pool.steal_balance",
                            Json::obj([("gpu0", Json::Num(balance))]),
                        ),
                        (
                            "pool.groups_executed",
                            Json::obj([("gpu0", Json::Num(groups))]),
                        ),
                    ]),
                )]),
            )])
        };
        let base = report(1.0, 1.0, 64.0);
        // Two CPUs instead of one, and an uneven steal: not a regression.
        assert!(diff_reports("r", &base, &report(2.0, 0.23, 64.0), &Default::default()).is_empty());
        // How many groups the pool ran is the launch's shape: still gated.
        let v = diff_reports("r", &base, &report(1.0, 1.0, 32.0), &Default::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("pool.groups_executed"));
    }

    #[test]
    fn extra_fresh_keys_are_not_regressions() {
        let base = report();
        let fresh = Json::parse(
            &base
                .to_json()
                .replace("\"speedup\"", "\"new_metric\": 1.0, \"speedup\""),
        )
        .unwrap();
        assert!(diff_reports("scaling", &base, &fresh, &GateConfig::default()).is_empty());
    }
}
