//! The session configuration: every `SKELCL_*` setting, resolved once.
//!
//! The paper's library is configured in one place, `SkelCL::init()`; so is
//! this one. [`Config::from_env`] is the only code in `skelcl` and
//! `skelcl-profile` that reads the process environment, and it runs once,
//! when a [`Context`](crate::Context) is initialised. Everything
//! downstream — kernel compilation, plan lowering, the streaming executor,
//! the scheduler, the observability handles, the trace written when the
//! session ends — reads [`Context::config`](crate::Context::config). Tests
//! and benchmarks that need a particular setting build a `Config` and pass
//! it to [`Context::init_with_config`](crate::Context::init_with_config)
//! instead of mutating the environment.

use std::path::PathBuf;
use std::time::Duration;

use skelcl_kernel::OptConfig;

use crate::plan::PlanConfig;
use crate::schedule::SchedulePolicy;
use crate::stream::StreamConfig;

/// Everything a session can be told from outside. The default is what an
/// empty environment gives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    /// Kernel compiler passes and MIR dump (`SKELCL_KERNEL_OPT`,
    /// `SKELCL_KERNEL_DUMP`).
    pub kernel: OptConfig,
    /// Plan rewrite rules on, or the staged oracle (`SKELCL_PLAN`).
    pub plan: PlanConfig,
    /// Streaming gate (`SKELCL_STREAM`).
    pub stream: StreamConfig,
    /// Per-device memory budget in bytes the streaming executor plans
    /// against (`SKELCL_DEVICE_BUDGET`); `None`: each device's real
    /// available memory.
    pub device_budget: Option<usize>,
    /// Chunk scheduling policy (`SKELCL_SCHEDULE`).
    pub schedule: SchedulePolicy,
    /// Record a profile (`SKELCL_PROFILE`).
    pub profile: bool,
    /// Where to write the session's Chrome trace when its last handle
    /// drops (`SKELCL_TRACE`). Implies profiling: see
    /// [`Config::profiling`].
    pub trace: Option<PathBuf>,
    /// Flight-recorder ring capacity, 0 = off (`SKELCL_FLIGHT`).
    pub flight_capacity: usize,
    /// Live stats reporting period, zero = off
    /// (`SKELCL_STATS_INTERVAL_MS`).
    pub stats_interval: Duration,
    /// Live stats output file; `None`: stderr (`SKELCL_STATS_FILE`).
    pub stats_file: Option<PathBuf>,
}

impl Config {
    /// Resolves every `SKELCL_*` variable from the process environment.
    /// A token a variable does not know is reported on stderr (one line per
    /// token) and otherwise ignored.
    pub fn from_env() -> Self {
        Config::from_vars(|name| std::env::var(name).ok())
    }

    /// [`Config::from_env`] over any variable lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let non_empty = |name: &str| var(name).filter(|v| !v.is_empty());
        let number = |name: &str| var(name).and_then(|v| v.trim().parse::<u64>().ok());

        let dump = var("SKELCL_KERNEL_DUMP");
        Config {
            kernel: checked(
                "SKELCL_KERNEL_OPT",
                var("SKELCL_KERNEL_OPT"),
                "0, none, 1 or a list of const-prop, cse, dce, licm, unroll",
                |opt| OptConfig::from_vars(opt, dump.as_deref()),
            ),
            plan: checked(
                "SKELCL_PLAN",
                var("SKELCL_PLAN"),
                "0, off, 1, on",
                PlanConfig::parse,
            ),
            stream: checked(
                "SKELCL_STREAM",
                var("SKELCL_STREAM"),
                "0, off, 1, on",
                StreamConfig::parse,
            ),
            device_budget: number("SKELCL_DEVICE_BUDGET")
                .filter(|&b| b > 0)
                .map(|b| b as usize),
            schedule: checked(
                "SKELCL_SCHEDULE",
                var("SKELCL_SCHEDULE"),
                "even, adaptive",
                SchedulePolicy::parse,
            ),
            profile: non_empty("SKELCL_PROFILE").is_some_and(|v| v != "0"),
            trace: non_empty("SKELCL_TRACE").map(PathBuf::from),
            flight_capacity: number("SKELCL_FLIGHT").unwrap_or(0) as usize,
            stats_interval: Duration::from_millis(number("SKELCL_STATS_INTERVAL_MS").unwrap_or(0)),
            stats_file: var("SKELCL_STATS_FILE").map(PathBuf::from),
        }
    }

    /// Whether the session records a profile: asked for directly, or
    /// implied by a trace path to write it to.
    pub fn profiling(&self) -> bool {
        self.profile || self.trace.is_some()
    }
}

/// Parses variable `name`'s `value`, reporting every token `parse` hands
/// back as rejected.
fn checked<T>(
    name: &str,
    value: Option<String>,
    valid: &str,
    parse: impl for<'a> Fn(Option<&'a str>) -> (T, Vec<&'a str>),
) -> T {
    let (parsed, rejected) = parse(value.as_deref());
    for token in rejected {
        eprintln!("skelcl: ignoring unknown {name} value \"{token}\" (valid: {valid})");
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use skelcl_kernel::MirDump;

    fn from_pairs(pairs: &[(&str, &str)]) -> Config {
        Config::from_vars(|name| {
            pairs
                .iter()
                .find(|(key, _)| *key == name)
                .map(|(_, value)| value.to_string())
        })
    }

    #[test]
    fn empty_environment_is_the_default() {
        let config = from_pairs(&[]);
        assert_eq!(config, Config::default());
        assert_eq!(config.kernel, OptConfig::all());
        assert_eq!(config.plan, PlanConfig::all());
        assert_eq!(config.stream, StreamConfig::on());
        assert_eq!(config.schedule, SchedulePolicy::Even);
        assert!(!config.profiling());
    }

    #[test]
    fn every_variable_lands_in_its_field() {
        let config = from_pairs(&[
            ("SKELCL_KERNEL_OPT", "cse,dce"),
            ("SKELCL_KERNEL_DUMP", "mir-opt"),
            ("SKELCL_PLAN", "0"),
            ("SKELCL_STREAM", "off"),
            ("SKELCL_DEVICE_BUDGET", "98304"),
            ("SKELCL_SCHEDULE", "adaptive"),
            ("SKELCL_PROFILE", "1"),
            ("SKELCL_TRACE", "out/trace.json"),
            ("SKELCL_FLIGHT", "256"),
            ("SKELCL_STATS_INTERVAL_MS", "50"),
            ("SKELCL_STATS_FILE", "stats.jsonl"),
        ]);
        let kernel = OptConfig {
            cse: true,
            dce: true,
            dump: Some(MirDump::Optimized),
            ..OptConfig::none()
        };
        assert_eq!(
            config,
            Config {
                kernel,
                plan: PlanConfig::oracle(),
                stream: StreamConfig::off(),
                device_budget: Some(98304),
                schedule: SchedulePolicy::Adaptive,
                profile: true,
                trace: Some("out/trace.json".into()),
                flight_capacity: 256,
                stats_interval: Duration::from_millis(50),
                stats_file: Some("stats.jsonl".into()),
            }
        );
    }

    #[test]
    fn a_trace_path_alone_turns_profiling_on() {
        let config = from_pairs(&[("SKELCL_TRACE", "t.json")]);
        assert!(!config.profile);
        assert!(config.profiling());
        // Empty means unset, and `SKELCL_PROFILE=0` means off.
        let config = from_pairs(&[("SKELCL_TRACE", ""), ("SKELCL_PROFILE", "0")]);
        assert!(!config.profiling());
    }

    #[test]
    fn typos_keep_the_fallback_values() {
        let config = from_pairs(&[
            ("SKELCL_KERNEL_OPT", "lcim"),
            ("SKELCL_PLAN", "chian"),
            ("SKELCL_SCHEDULE", "adaptve"),
            ("SKELCL_STREAM", "-1"),
            ("SKELCL_DEVICE_BUDGET", "lots"),
            ("SKELCL_FLIGHT", "many"),
        ]);
        assert_eq!(config.kernel, OptConfig::none());
        assert_eq!(config.plan, PlanConfig::all());
        assert_eq!(config.schedule, SchedulePolicy::Even);
        assert_eq!(config.stream, StreamConfig::on());
        assert_eq!(config.device_budget, None);
        assert_eq!(config.flight_capacity, 0);
        // A plan rule list and a ring depth are not settings: both keep the
        // default and are reported.
        let config = from_pairs(&[("SKELCL_PLAN", "chain"), ("SKELCL_STREAM", "3")]);
        assert_eq!(config.plan, PlanConfig::all());
        assert_eq!(config.stream, StreamConfig::on());
        assert_eq!(PlanConfig::parse(Some("chain")).1, ["chain"]);
        assert_eq!(StreamConfig::parse(Some("3")).1, ["3"]);
    }
}
