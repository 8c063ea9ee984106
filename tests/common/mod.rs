//! Runs a listing under the default configuration and under each layer's
//! oracle, in one process: what `SKELCL_PLAN=0`, `SKELCL_STREAM=0` and
//! `SKELCL_KERNEL_OPT=0` legs of the whole suite used to cover in CI, plus
//! streaming forced on.

use std::fmt::Debug;

use skelcl_repro::kernel::OptConfig;
use skelcl_repro::skelcl::{Config, Context, DeviceSelection, PlanConfig, StreamConfig};
use skelcl_repro::vgpu::Platform;

/// A device budget so far below any listing's working set that every
/// region large enough to chunk streams.
pub fn forced_streaming() -> Config {
    Config {
        device_budget: Some(4096),
        ..Config::default()
    }
}

/// Runs `listing` on a fresh context over `platform()` under the default
/// configuration, the staged plan oracle, streaming off, streaming forced
/// and the pass-free kernel compiler, asserts every result equals the
/// default's, and returns that one. Listings return floats as bit
/// patterns, so equal means bit-identical.
pub fn under_every_config<T: PartialEq + Debug>(
    platform: impl Fn() -> Platform,
    listing: impl Fn(&Context) -> T,
) -> T {
    let run = |config| {
        listing(&Context::init_with_config(
            platform(),
            DeviceSelection::All,
            config,
        ))
    };
    let default = run(Config::default());
    for (name, config) in [
        (
            "plan oracle",
            Config {
                plan: PlanConfig::oracle(),
                ..Config::default()
            },
        ),
        (
            "streaming off",
            Config {
                stream: StreamConfig::off(),
                ..Config::default()
            },
        ),
        ("forced streaming", forced_streaming()),
        (
            "kernel passes off",
            Config {
                kernel: OptConfig::none(),
                ..Config::default()
            },
        ),
    ] {
        assert_eq!(
            run(config),
            default,
            "{name} diverged from the default configuration"
        );
    }
    default
}

pub fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}
