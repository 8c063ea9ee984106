//! The metrics registry: named counters, histograms, and per-device busy
//! time.
//!
//! Metric names are `&'static str` constants so the hot paths never build
//! strings. The registry is shared behind the profiler's `Arc`; when
//! profiling is disabled no registry exists at all.

use std::collections::BTreeMap;

use parking_lot::Mutex;

/// Host → device bytes.
pub const BYTES_H2D: &str = "bytes.h2d";
/// Device → host bytes.
pub const BYTES_D2H: &str = "bytes.d2h";
/// Device → device bytes.
pub const BYTES_D2D: &str = "bytes.d2d";
/// Container uses that found valid device data (no transfer needed).
pub const TRANSFER_CACHE_HIT: &str = "transfer.cache_hit";
/// Container uses that forced an upload.
pub const TRANSFER_FORCED: &str = "transfer.forced_copy";
/// Distribution changes that dropped device buffers (gather + re-upload).
pub const REDISTRIBUTIONS: &str = "redistribution.count";
/// Kernel compilations served from the context's program cache.
pub const COMPILE_CACHE_HIT: &str = "compile.cache_hit";
/// Kernel compilations that actually ran the compiler.
pub const COMPILE_CACHE_MISS: &str = "compile.cache_miss";
/// Skeleton invocations.
pub const SKELETON_CALLS: &str = "skeleton.calls";
/// Plan rewrite-rule firings (chain fusion, reduce welding, stencil
/// fusion, scan-offset folding) across all pipeline lowerings.
pub const PLAN_RULES_FIRED: &str = "plan.rules_fired";
/// Plan nodes eliminated by fusion (each firing welds one or more
/// producer nodes into its consumer's kernel instead of staging them).
pub const PLAN_NODES_FUSED: &str = "plan.nodes_fused";
/// Bytes of intermediate device buffers a plan lowering allocated for
/// staged (unfused) pipeline steps — the traffic fusion eliminates.
pub const PLAN_INTERMEDIATE_BYTES: &str = "plan.intermediate_bytes";
/// Rebalances: redistributions where only block boundaries shifted and the
/// container moved boundary units device-to-device instead of a full
/// gather + re-upload.
pub const SCHED_REBALANCES: &str = "sched.rebalances";
/// Bytes moved by delta (boundary-only) redistribution.
pub const SCHED_DELTA_BYTES: &str = "sched.delta_bytes_moved";
/// Bytes a full gather + re-scatter moved when delta was not applicable
/// (distribution kind changed, or device data had to round-trip the host).
pub const SCHED_FULL_BYTES: &str = "sched.full_redistribution_bytes";

/// Per-device gauge: the scheduler's current partition weight.
pub const SCHED_WEIGHT: &str = "sched.weight";
/// Per-device gauge: steal balance of the last pooled launch —
/// `min/max` work-groups executed across the pool's workers (1.0 means the
/// steal cursor distributed groups perfectly evenly; 0.0 means at least one
/// worker starved).
pub const POOL_STEAL_BALANCE: &str = "pool.steal_balance";
/// Per-device gauge: persistent pool threads alive on the device.
pub const POOL_THREADS: &str = "pool.threads";
/// Per-device gauge: total work-groups executed by the device's pool.
pub const POOL_GROUPS: &str = "pool.groups_executed";
/// Per-device gauge: share of the group executor's lane slots that did
/// work, `lane_ops / (group_steps × lanes)` over every launch so far. 1.0
/// means no lane ever diverged; the shortfall is instructions a group ran
/// for some of its lanes only — what a kernel's divergence costs the host.
pub const POOL_LANE_UTILISATION: &str = "pool.lane_utilisation";
/// Counter-track name for per-device queue depth samples (Chrome "C"
/// events; see [`crate::Profiler::record_counter_sample`]).
pub const QUEUE_DEPTH: &str = "queue.depth";

/// Streaming executor: plan regions that ran chunked (out-of-core).
pub const STREAM_REGIONS: &str = "stream.regions";
/// Streaming executor: chunks driven through the pipeline.
pub const STREAM_CHUNKS: &str = "stream.chunks";
/// Streaming executor: input bytes staged host→device across all chunks.
pub const STREAM_BYTES_STAGED: &str = "stream.bytes_staged";
/// Streaming executor: global work-items launched by the chunk kernels,
/// summed per chunk — what the chunks cost in lanes, against the elements
/// they hold.
pub const STREAM_LAUNCHED_ITEMS: &str = "stream.launched_items";
/// Per-device gauge: bytes resident in the streaming executor's staging
/// ring (plus fixed per-share buffers) during the last streamed region.
pub const STREAM_RESIDENT_BYTES: &str = "stream.resident_bytes";

/// Histogram of individual transfer sizes (bytes).
pub const HIST_TRANSFER_BYTES: &str = "transfer.bytes";
/// Histogram of individual kernel durations (simulated ns).
pub const HIST_KERNEL_NS: &str = "kernel.duration_ns";

/// Simulated time one device spent occupied, split by work type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceBusy {
    /// Kernel execution ns.
    pub kernel_ns: u64,
    /// Transfer ns (uploads + downloads + copies).
    pub transfer_ns: u64,
}

impl DeviceBusy {
    /// Total occupied ns.
    pub fn total_ns(&self) -> u64 {
        self.kernel_ns + self.transfer_ns
    }
}

/// Linear sub-buckets per power-of-two octave of the histogram's
/// log-bucketed storage. Values below `SUB` land in exact unit buckets;
/// larger values quantise with relative error at most `1/SUB` (≈3.1%).
const SUB: u64 = 32;
/// `log2(SUB)`.
const SUB_BITS: u32 = 5;

/// The bucket a value lands in (HDR-histogram style: an exact region for
/// small values, then `SUB` linear sub-buckets per power-of-two octave).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) - SUB;
    (octave - SUB_BITS + 1) as usize * SUB as usize + sub as usize
}

/// The lowest value mapping to bucket `idx` (inverse of [`bucket_index`]).
fn bucket_low(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let region = idx / SUB as usize - 1;
    let sub = (idx % SUB as usize) as u64;
    (SUB + sub) << region
}

/// A representative value for bucket `idx` (its midpoint).
fn bucket_mid(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let region = idx / SUB as usize - 1;
    bucket_low(idx) + (1u64 << region) / 2
}

/// Running statistics of one histogram, with log-bucketed (HDR-style)
/// storage for quantile queries. Recording is O(1); the bucket array grows
/// only as far as the largest value seen (at most ~1.9k buckets for the
/// full `u64` range).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of all values.
    pub sum: u64,
    /// Smallest value (0 when empty).
    pub min: u64,
    /// Largest value.
    pub max: u64,
    /// Bucketed counts; index via [`bucket_index`].
    buckets: Vec<u64>,
}

impl Histogram {
    fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of the recorded values, accurate
    /// to the bucket resolution (exact below `32`, ≤3.1% relative error
    /// above). Returns 0 when empty; results are clamped to `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // 0-based rank of the requested order statistic.
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// The registry itself.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    devices: Mutex<BTreeMap<usize, DeviceBusy>>,
    gauges: Mutex<BTreeMap<(&'static str, usize), f64>>,
}

impl Metrics {
    /// Adds `delta` to counter `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        *self.counters.lock().entry(name).or_default() += delta;
    }

    /// Records one value into histogram `name`.
    pub fn record(&self, name: &'static str, value: u64) {
        self.histograms
            .lock()
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Adds kernel busy time to a device.
    pub fn add_kernel_ns(&self, device: usize, ns: u64) {
        self.devices.lock().entry(device).or_default().kernel_ns += ns;
    }

    /// Adds transfer busy time to a device.
    pub fn add_transfer_ns(&self, device: usize, ns: u64) {
        self.devices.lock().entry(device).or_default().transfer_ns += ns;
    }

    /// Sets per-device gauge `name` to `value` (last write wins — gauges
    /// report current state, unlike monotone counters).
    pub fn set_device_gauge(&self, name: &'static str, device: usize, value: f64) {
        self.gauges.lock().insert((name, device), value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// A point-in-time copy of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            devices: self.devices.lock().clone(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|((name, device), v)| (format!("{name}.gpu{device}"), *v))
                .collect(),
        }
    }
}

/// An owned copy of the registry's state, for reports.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Busy time by device index.
    pub devices: BTreeMap<usize, DeviceBusy>,
    /// Per-device gauge values, keyed `"<name>.gpu<index>"`.
    pub gauges: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    /// Load imbalance across devices: `max_busy / mean_busy` (1.0 is
    /// perfectly balanced; 0.0 when no device did anything).
    pub fn load_imbalance(&self) -> f64 {
        if self.devices.is_empty() {
            return 0.0;
        }
        let busies: Vec<u64> = self.devices.values().map(DeviceBusy::total_ns).collect();
        let max = *busies.iter().max().unwrap() as f64;
        let mean = busies.iter().sum::<u64>() as f64 / busies.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms() {
        let m = Metrics::default();
        m.add(BYTES_H2D, 100);
        m.add(BYTES_H2D, 50);
        m.record(HIST_TRANSFER_BYTES, 100);
        m.record(HIST_TRANSFER_BYTES, 50);
        assert_eq!(m.counter(BYTES_H2D), 150);
        assert_eq!(m.counter(BYTES_D2H), 0);
        let snap = m.snapshot();
        let h = &snap.histograms[HIST_TRANSFER_BYTES];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 150);
        assert_eq!(h.min, 50);
        assert_eq!(h.max, 100);
        assert_eq!(h.mean(), 75.0);
    }

    #[test]
    fn bucket_roundtrip() {
        // Exact region: values below 32 occupy their own bucket.
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(bucket_index(v)), v);
        }
        // Log region: a bucket's low bound maps back to the same bucket,
        // and the relative quantisation error stays under 1/32.
        for v in [32u64, 33, 63, 64, 100, 1 << 10, 123_456, u64::MAX / 3] {
            let idx = bucket_index(v);
            assert_eq!(bucket_index(bucket_low(idx)), idx, "low bound of {v}");
            let mid = bucket_mid(idx) as f64;
            let err = (mid - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 32.0 + 1e-12, "value {v}: rel err {err}");
        }
        // Bucket indices are monotone in the value.
        let mut prev = 0;
        for v in (0..1 << 20).step_by(97) {
            let idx = bucket_index(v);
            assert!(idx >= prev);
            prev = idx;
        }
    }

    #[test]
    fn quantiles_on_uniform_data() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 1000);
        let p50 = h.p50() as f64;
        let p90 = h.p90() as f64;
        let p99 = h.p99() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 = {p50}");
        assert!((p90 - 900.0).abs() / 900.0 < 0.05, "p90 = {p90}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 = {p99}");
        // Quantiles are monotone and clamped to the observed range.
        assert!(h.quantile(0.0) >= h.min);
        assert!(h.quantile(1.0) <= h.max);
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn quantiles_edge_cases() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0); // empty
        let mut h = Histogram::default();
        h.record(42);
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p99(), 42);
        // A heavily skewed distribution: p99 must see the tail.
        let mut h = Histogram::default();
        for _ in 0..98 {
            h.record(10);
        }
        h.record(1_000_000);
        h.record(1_000_000);
        assert_eq!(h.p50(), 10);
        let p99 = h.p99() as f64;
        assert!(
            (p99 - 1_000_000.0).abs() / 1_000_000.0 < 0.04,
            "p99 = {p99}"
        );
    }

    #[test]
    fn device_busy_and_imbalance() {
        let m = Metrics::default();
        m.add_kernel_ns(0, 300);
        m.add_transfer_ns(0, 100);
        m.add_kernel_ns(1, 200);
        let snap = m.snapshot();
        assert_eq!(snap.devices[&0].total_ns(), 400);
        assert_eq!(snap.devices[&1].total_ns(), 200);
        // max 400, mean 300 → 4/3.
        assert!((snap.load_imbalance() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_imbalance_is_zero() {
        assert_eq!(MetricsSnapshot::default().load_imbalance(), 0.0);
    }

    #[test]
    fn device_gauges_last_write_wins() {
        let m = Metrics::default();
        m.set_device_gauge(SCHED_WEIGHT, 0, 0.5);
        m.set_device_gauge(SCHED_WEIGHT, 1, 0.5);
        m.set_device_gauge(SCHED_WEIGHT, 0, 0.25);
        let snap = m.snapshot();
        assert_eq!(snap.gauges["sched.weight.gpu0"], 0.25);
        assert_eq!(snap.gauges["sched.weight.gpu1"], 0.5);
    }
}
