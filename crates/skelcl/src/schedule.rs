//! Adaptive, measurement-driven chunk scheduling.
//!
//! The paper's block distribution splits containers *evenly* (§3.2,
//! Fig. 1c), which balances devices only when every unit costs the same.
//! Real workloads (Mandelbrot rows) and real machines (mixed GPU
//! generations) break that assumption. This module keeps a per-device
//! throughput model — an exponentially-weighted moving average of
//! **units per busy nanosecond**, fed from every skeleton launch's kernel
//! events — and turns it into per-device weights for
//! [`crate::distribution::plan_chunks_weighted`].
//!
//! The policy is chosen per context ([`Config::schedule`](crate::Config),
//! from `SKELCL_SCHEDULE`): `even` (default) keeps the paper's even split,
//! `adaptive` enables the feedback loop. An adaptive scheduler with a cold model plans exactly
//! like the even one, so the first call on fresh data *is* the calibration
//! pass; [`Scheduler::calibrate`] makes that explicit when a workload wants
//! to measure under a known-even split before going adaptive.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::distribution::{plan_chunks, plan_chunks_weighted, ChunkPlan, Distribution};

/// How chunk boundaries are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// The paper's even block split (the default).
    #[default]
    Even,
    /// Weighted split proportional to each device's measured throughput.
    Adaptive,
}

impl SchedulePolicy {
    /// Parses a `SKELCL_SCHEDULE` value: `adaptive` (or `1`), or `even`
    /// (or `0`, empty, unset). Anything else falls back to `even` and is
    /// returned as rejected.
    pub fn parse(spec: Option<&str>) -> (Self, Vec<&str>) {
        match spec.map_or("", str::trim) {
            "adaptive" | "1" => (SchedulePolicy::Adaptive, Vec::new()),
            "" | "even" | "0" => (SchedulePolicy::Even, Vec::new()),
            other => (SchedulePolicy::Even, vec![other]),
        }
    }
}

impl std::fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulePolicy::Even => f.write_str("even"),
            SchedulePolicy::Adaptive => f.write_str("adaptive"),
        }
    }
}

const POLICY_EVEN: u8 = 0;
const POLICY_ADAPTIVE: u8 = 1;

/// Default EWMA smoothing factor: the newest measurement contributes half.
pub const DEFAULT_EWMA_ALPHA: f64 = 0.5;

#[derive(Debug, Clone, Copy, Default)]
struct DeviceModel {
    /// EWMA of units processed per busy nanosecond.
    units_per_ns: f64,
    samples: u64,
}

/// The per-context scheduler: policy switch plus throughput model.
///
/// Shared by every container and skeleton of a [`crate::Context`]; all
/// methods are cheap and thread-safe. Cloning is shallow — every clone
/// feeds the same model, which lets queue-worker completion callbacks own
/// a handle without keeping the whole context alive.
#[derive(Debug, Clone)]
pub struct Scheduler {
    state: Arc<SchedulerState>,
}

#[derive(Debug)]
struct SchedulerState {
    policy: AtomicU8,
    alpha: f64,
    models: Mutex<Vec<DeviceModel>>,
}

impl Scheduler {
    /// Creates a scheduler with the given policy and EWMA factor `alpha`
    /// (clamped to `(0, 1]`; the newest sample's share).
    pub fn new(policy: SchedulePolicy, alpha: f64) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(f64::MIN_POSITIVE, 1.0)
        } else {
            DEFAULT_EWMA_ALPHA
        };
        Scheduler {
            state: Arc::new(SchedulerState {
                policy: AtomicU8::new(match policy {
                    SchedulePolicy::Even => POLICY_EVEN,
                    SchedulePolicy::Adaptive => POLICY_ADAPTIVE,
                }),
                alpha,
                models: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The current policy.
    pub fn policy(&self) -> SchedulePolicy {
        if self.state.policy.load(Ordering::Relaxed) == POLICY_ADAPTIVE {
            SchedulePolicy::Adaptive
        } else {
            SchedulePolicy::Even
        }
    }

    /// Switches the policy at runtime (e.g. after a calibration phase).
    pub fn set_policy(&self, policy: SchedulePolicy) {
        self.state.policy.store(
            match policy {
                SchedulePolicy::Even => POLICY_EVEN,
                SchedulePolicy::Adaptive => POLICY_ADAPTIVE,
            },
            Ordering::Relaxed,
        );
    }

    /// The EWMA smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.state.alpha
    }

    /// Feeds one measurement into the model: `device` processed `units`
    /// distribution units in `busy_ns` of simulated kernel time. The first
    /// sample seeds the EWMA directly, so one calibration frame fully
    /// determines the next plan.
    pub fn observe(&self, device: usize, units: usize, busy_ns: u64) {
        if units == 0 || busy_ns == 0 {
            return;
        }
        let tput = units as f64 / busy_ns as f64;
        let alpha = self.state.alpha;
        let mut models = self.state.models.lock();
        if models.len() <= device {
            models.resize(device + 1, DeviceModel::default());
        }
        let m = &mut models[device];
        if m.samples == 0 {
            m.units_per_ns = tput;
        } else {
            m.units_per_ns = alpha * tput + (1.0 - alpha) * m.units_per_ns;
        }
        m.samples += 1;
    }

    /// Forgets all measurements (the model goes cold; adaptive planning
    /// degrades to the even split until re-fed).
    pub fn reset(&self) {
        self.state.models.lock().clear();
    }

    /// Per-device partition weights for `devices` devices, or `None` when
    /// the even split should be used: policy is [`SchedulePolicy::Even`],
    /// or any device lacks a measurement (a partially-cold model must not
    /// starve the unmeasured devices).
    pub fn weights(&self, devices: usize) -> Option<Vec<f64>> {
        if self.policy() != SchedulePolicy::Adaptive {
            return None;
        }
        let models = self.state.models.lock();
        if models.len() < devices {
            return None;
        }
        if models[..devices]
            .iter()
            .any(|m| m.samples == 0 || !m.units_per_ns.is_finite() || m.units_per_ns <= 0.0)
        {
            return None;
        }
        let w: Vec<f64> = models[..devices].iter().map(|m| m.units_per_ns).collect();
        let sum: f64 = w.iter().sum();
        Some(w.into_iter().map(|v| v / sum).collect())
    }

    /// Plans `n` units across `devices` under `dist`: the weighted
    /// partition when the policy is adaptive and the model is warm, the
    /// paper's even partition otherwise. `Single` and `Copy` are
    /// weight-independent either way.
    pub fn plan(&self, n: usize, devices: usize, dist: Distribution) -> Vec<ChunkPlan> {
        match (dist, self.weights(devices)) {
            (Distribution::Block | Distribution::Overlap { .. }, Some(w)) => {
                plan_chunks_weighted(n, dist, &w)
            }
            _ => plan_chunks(n, devices, dist),
        }
    }

    /// Runs `frame` as an explicit calibration pass: the model is cleared
    /// and the policy pinned to even for the duration, so the measurements
    /// come from a known uniform split; afterwards the previous policy is
    /// restored and the observations made during `frame` drive the next
    /// plans.
    pub fn calibrate<R>(&self, frame: impl FnOnce() -> R) -> R {
        let prev = self.policy();
        self.reset();
        self.set_policy(SchedulePolicy::Even);
        let out = frame();
        self.set_policy(prev);
        out
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(SchedulePolicy::Even, DEFAULT_EWMA_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_policy_values() {
        let clean = |policy| (policy, Vec::<&str>::new());
        for spec in [None, Some(""), Some("even"), Some("0")] {
            assert_eq!(SchedulePolicy::parse(spec), clean(SchedulePolicy::Even));
        }
        for spec in ["adaptive", "1", " adaptive "] {
            assert_eq!(
                SchedulePolicy::parse(Some(spec)),
                clean(SchedulePolicy::Adaptive)
            );
        }
        assert_eq!(
            SchedulePolicy::parse(Some("adaptve")),
            (SchedulePolicy::Even, vec!["adaptve"])
        );
    }

    #[test]
    fn even_policy_never_weights() {
        let s = Scheduler::new(SchedulePolicy::Even, 0.5);
        s.observe(0, 100, 50);
        s.observe(1, 100, 200);
        assert_eq!(s.weights(2), None);
        let plans = s.plan(100, 2, Distribution::Block);
        assert_eq!(plans[0].core, 0..50);
    }

    #[test]
    fn adaptive_needs_every_device_measured() {
        let s = Scheduler::new(SchedulePolicy::Adaptive, 0.5);
        s.observe(0, 100, 50);
        assert_eq!(s.weights(2), None, "device 1 is cold");
        s.observe(1, 100, 200);
        let w = s.weights(2).unwrap();
        // Device 0 is 4x faster: 2 units/ns vs 0.5 units/ns.
        assert!((w[0] - 0.8).abs() < 1e-9);
        assert!((w[1] - 0.2).abs() < 1e-9);
        let plans = s.plan(100, 2, Distribution::Block);
        assert_eq!(plans[0].core, 0..80);
        assert_eq!(plans[1].core, 80..100);
    }

    #[test]
    fn ewma_decays_towards_new_measurements() {
        let s = Scheduler::new(SchedulePolicy::Adaptive, 0.5);
        s.observe(0, 100, 100); // seed: 1.0 units/ns
        s.observe(0, 300, 100); // new: 3.0 → EWMA 2.0
        s.observe(1, 200, 100); // 2.0
        let w = s.weights(2).unwrap();
        assert!((w[0] - 0.5).abs() < 1e-9);
        assert!((w[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_measurements_are_ignored() {
        let s = Scheduler::new(SchedulePolicy::Adaptive, 0.5);
        s.observe(0, 0, 100);
        s.observe(0, 100, 0);
        s.observe(1, 10, 10);
        assert_eq!(s.weights(2), None);
    }

    #[test]
    fn calibrate_clears_and_restores() {
        let s = Scheduler::new(SchedulePolicy::Adaptive, 0.5);
        s.observe(0, 999, 1);
        s.observe(1, 1, 999);
        let policy_inside = s.calibrate(|| {
            s.observe(0, 10, 10);
            s.observe(1, 10, 10);
            s.policy()
        });
        assert_eq!(policy_inside, SchedulePolicy::Even);
        assert_eq!(s.policy(), SchedulePolicy::Adaptive);
        // Only the in-frame observations survive.
        let w = s.weights(2).unwrap();
        assert!((w[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_goes_cold() {
        let s = Scheduler::new(SchedulePolicy::Adaptive, 0.5);
        s.observe(0, 10, 10);
        s.observe(1, 10, 10);
        assert!(s.weights(2).is_some());
        s.reset();
        assert_eq!(s.weights(2), None);
    }

    #[test]
    fn single_and_copy_ignore_weights() {
        let s = Scheduler::new(SchedulePolicy::Adaptive, 0.5);
        s.observe(0, 100, 10);
        s.observe(1, 10, 100);
        assert_eq!(s.plan(10, 2, Distribution::Copy).len(), 2);
        assert_eq!(s.plan(10, 2, Distribution::Single(1))[0].stored, 0..10);
    }
}
