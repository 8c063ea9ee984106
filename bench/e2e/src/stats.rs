//! Order statistics and interval arithmetic used by the harness.
//!
//! Percentiles are nearest-rank on the sorted sample (no interpolation), so
//! a reported value is always one that was measured. Intervals are
//! half-open `[start, end)` pairs in nanoseconds since the run's epoch.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle values for even counts (what
/// Python's `statistics.median` reports); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// `a / b`, or 0 when `b` is 0 (metrics must stay finite).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A half-open interval of nanoseconds since the run's epoch.
pub type Interval = (u64, u64);

/// Sorts `intervals` and merges every overlapping or touching pair.
pub fn union(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_unstable();
    let mut merged: Vec<Interval> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Total length of a merged (sorted, disjoint) interval list.
pub fn total(merged: &[Interval]) -> u64 {
    merged.iter().map(|(s, e)| e - s).sum()
}

/// Length of the part of `span` that the merged list `cover` overlaps.
pub fn covered(span: Interval, cover: &[Interval]) -> u64 {
    let first = cover.partition_point(|&(_, e)| e <= span.0);
    cover[first..]
        .iter()
        .take_while(|&&(s, _)| s < span.1)
        .map(|&(s, e)| e.min(span.1) - s.max(span.0))
        .sum()
}

/// A span's self time: its duration minus what the merged list `cover`
/// (its children, or the commands it waited for) overlaps of it.
pub fn self_time(span: Interval, cover: &[Interval]) -> u64 {
    (span.1 - span.0) - covered(span, cover)
}

/// Time during which at least `k` of the per-lane merged interval lists
/// are active at once (a sweep over their boundaries).
pub fn time_with_at_least(lanes: &[Vec<Interval>], k: usize) -> u64 {
    let mut edges: Vec<(u64, i32)> = lanes
        .iter()
        .flatten()
        .flat_map(|&(s, e)| [(s, 1), (e, -1)])
        .collect();
    // Ends sort before starts at the same instant: touching intervals of
    // two lanes do not overlap.
    edges.sort_unstable();
    let (mut active, mut since, mut sum) = (0i32, 0u64, 0u64);
    for (t, d) in edges {
        if active >= k as i32 {
            sum += t - since;
        }
        active += d;
        since = t;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Ten samples lie beyond p90 of 100, as the reporting rule needs.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 90.0)).count(), 10);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn union_merges_overlaps_and_drops_empty() {
        let u = union(vec![(5, 9), (0, 3), (2, 4), (9, 10), (20, 20), (30, 31)]);
        assert_eq!(u, vec![(0, 4), (5, 10), (30, 31)]);
        assert_eq!(total(&u), 10);
    }

    #[test]
    fn covered_clips_to_the_span() {
        let cover = union(vec![(0, 10), (20, 30), (40, 50)]);
        assert_eq!(covered((5, 45), &cover), 5 + 10 + 5);
        assert_eq!(covered((10, 20), &cover), 0);
        assert_eq!(covered((22, 25), &cover), 3);
        assert_eq!(covered((60, 70), &cover), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Two children overlap on [4, 6): covered 2..8 = 6 of 10.
        assert_eq!(self_time((0, 10), &union(vec![(2, 6), (4, 8)])), 4);
        // A child reaching outside the span only counts inside it.
        assert_eq!(self_time((10, 20), &union(vec![(0, 12), (18, 40)])), 6);
        assert_eq!(self_time((0, 10), &[]), 10);
    }

    #[test]
    fn overlap_sweep_counts_simultaneous_lanes() {
        let lanes = vec![vec![(0, 10), (20, 30)], vec![(5, 25)]];
        assert_eq!(time_with_at_least(&lanes, 1), 30);
        assert_eq!(time_with_at_least(&lanes, 2), 5 + 5);
        // Touching intervals on two lanes never overlap.
        let touching = vec![vec![(0, 10)], vec![(10, 20)]];
        assert_eq!(time_with_at_least(&touching, 2), 0);
    }
}
