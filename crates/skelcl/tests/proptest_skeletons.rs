//! Property-based tests: every skeleton must agree with a host reference
//! for arbitrary inputs, lengths and device counts — including the awkward
//! sizes around work-group and chunk boundaries.

use proptest::prelude::*;

use skelcl::{
    Allpairs, BoundaryHandling, Context, DeviceSelection, Distribution, Error, Map, MapOverlap,
    MapOverlapVec, Matrix, Reduce, Scan, Vector, Zip,
};
use vgpu::{DeviceSpec, Platform};

fn ctx(devices: usize) -> Context {
    Context::init(
        Platform::new(devices, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn map_matches_host(
        data in proptest::collection::vec(any::<i32>(), 0..2000),
        devices in 1usize..=4,
    ) {
        let ctx = ctx(devices);
        let map: Map<i32, i32> =
            Map::new(&ctx, "int f(int x){ return x * 3 - 7; }").unwrap();
        let v = Vector::from_vec(&ctx, data.clone());
        let out = map.call(&v).unwrap().to_vec().unwrap();
        let expected: Vec<i32> =
            data.iter().map(|&x| x.wrapping_mul(3).wrapping_sub(7)).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn zip_matches_host(
        data in proptest::collection::vec((any::<i32>(), any::<i32>()), 1..1500),
        devices in 1usize..=4,
        dist_choice in 0usize..4,
    ) {
        let ctx = ctx(devices);
        let zip: Zip<i32, i32, i32> =
            Zip::new(&ctx, "int f(int a, int b){ return a ^ (b + 1); }").unwrap();
        let (xs, ys): (Vec<i32>, Vec<i32>) = data.into_iter().unzip();
        let a = Vector::from_vec(&ctx, xs.clone());
        let b = Vector::from_vec(&ctx, ys.clone());
        let dist = match dist_choice {
            0 => Distribution::Block,
            1 => Distribution::Copy,
            2 => Distribution::single(),
            _ => Distribution::Overlap { size: 3 },
        };
        a.set_distribution(dist).unwrap();
        let out = zip.call(&a, &b).unwrap().to_vec().unwrap();
        let expected: Vec<i32> =
            xs.iter().zip(&ys).map(|(&x, &y)| x ^ y.wrapping_add(1)).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn reduce_matches_host(
        data in proptest::collection::vec(any::<i64>(), 1..5000),
        devices in 1usize..=4,
    ) {
        let ctx = ctx(devices);
        let sum: Reduce<i64> =
            Reduce::new(&ctx, "long f(long x, long y){ return x + y; }").unwrap();
        let v = Vector::from_vec(&ctx, data.clone());
        let expected = data.iter().fold(0i64, |a, &b| a.wrapping_add(b));
        // Wrapping addition is associative and commutative, so any
        // reduction order gives the same result.
        prop_assert_eq!(sum.call(&v).unwrap().value(), expected);
    }

    #[test]
    fn scan_matches_host(
        data in proptest::collection::vec(any::<i64>(), 1..3000),
        devices in 1usize..=4,
    ) {
        let ctx = ctx(devices);
        let scan: Scan<i64> =
            Scan::new(&ctx, "long f(long x, long y){ return x + y; }").unwrap();
        let v = Vector::from_vec(&ctx, data.clone());
        let out = scan.call(&v).unwrap().to_vec().unwrap();
        let expected: Vec<i64> = data
            .iter()
            .scan(0i64, |acc, &x| {
                *acc = acc.wrapping_add(x);
                Some(*acc)
            })
            .collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn map_overlap_matches_host(
        rows in 1usize..40,
        cols in 1usize..40,
        d in 1usize..3,
        devices in 1usize..=4,
        seed in any::<u32>(),
    ) {
        let ctx = ctx(devices);
        // Stencil: sum of the four axis neighbours at distance d, neutral 1.
        let src = format!(
            "int f(const int* m){{
                 return get(m, -{d}, 0) + get(m, {d}, 0) + get(m, 0, -{d}) + get(m, 0, {d});
             }}"
        );
        let m: MapOverlap<i32, i32> =
            MapOverlap::new(&ctx, &src, d, BoundaryHandling::Neutral(1)).unwrap();
        let data: Vec<i32> = (0..rows * cols)
            .map(|i| ((i as u32).wrapping_mul(seed | 1) >> 16) as i32 % 100)
            .collect();
        let input = Matrix::from_vec(&ctx, rows, cols, data.clone());
        let out = m.call(&input).unwrap().to_vec().unwrap();

        let get = |r: isize, c: isize| -> i32 {
            if r < 0 || r >= rows as isize || c < 0 || c >= cols as isize {
                1
            } else {
                data[r as usize * cols + c as usize]
            }
        };
        let di = d as isize;
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                let expected = get(r, c - di) + get(r, c + di) + get(r - di, c) + get(r + di, c);
                prop_assert_eq!(
                    out[r as usize * cols + c as usize],
                    expected,
                    "rows={} cols={} d={} at ({}, {})", rows, cols, d, r, c
                );
            }
        }
    }

    #[test]
    fn redistribution_preserves_contents(
        data in proptest::collection::vec(any::<f32>(), 0..1000),
        dists in proptest::collection::vec(0usize..4, 1..5),
        devices in 1usize..=4,
    ) {
        let ctx = ctx(devices);
        let v = Vector::from_vec(&ctx, data.clone());
        for d in dists {
            let dist = match d {
                0 => Distribution::Block,
                1 => Distribution::Copy,
                2 => Distribution::single(),
                _ => Distribution::Overlap { size: 2 },
            };
            v.set_distribution(dist).unwrap();
            v.prefetch(dist).unwrap();
            let back = v.to_vec().unwrap();
            // NaN-safe bitwise comparison.
            prop_assert_eq!(back.len(), data.len());
            for (a, b) in back.iter().zip(&data) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// A container created on another `Context` is a typed error on every
/// eager entry point of every skeleton — never a launch on a foreign
/// queue, an out-of-range transfer or an index panic. The two platforms
/// differ in device count (so the chunk lists differ in length), and each
/// plays the skeleton's and the container's side once.
#[test]
fn foreign_context_containers_are_shape_mismatches() {
    for (own, other) in [(2, 1), (1, 2)] {
        let home = ctx(own);
        let away = ctx(other);
        let vec = |c: &Context| Vector::from_fn(c, 600, |i| i as f32);
        let mat = |c: &Context| Matrix::from_fn(c, 24, 25, |r, col| (r * 25 + col) as f32);

        let map: Map<f32, f32> = Map::new(&home, "float f(float x){ return -x; }").unwrap();
        let zip: Zip<f32, f32, f32> =
            Zip::new(&home, "float f(float x, float y){ return x + y; }").unwrap();
        let reduce: Reduce<f32> =
            Reduce::new(&home, "float f(float x, float y){ return x + y; }").unwrap();
        let scan: Scan<f32> =
            Scan::new(&home, "float f(float x, float y){ return x + y; }").unwrap();
        let stencil: MapOverlap<f32, f32> = MapOverlap::new(
            &home,
            "float f(const float* m){ return get(m, -1, 0) + get(m, 0, 1); }",
            1,
            BoundaryHandling::Nearest,
        )
        .unwrap();
        let stencil_vec: MapOverlapVec<f32, f32> = MapOverlapVec::new(
            &home,
            "float f(const float* v){ return get(v, -1) + get(v, 1); }",
            1,
            BoundaryHandling::Nearest,
        )
        .unwrap();
        let allpairs: Allpairs<f32, f32> = Allpairs::new(
            &home,
            "float f(const float* a, const float* b, int d){ return a[0] * b[d - 1]; }",
        )
        .unwrap();

        let cases: Vec<(&str, Result<(), Error>)> = vec![
            ("Map::call", map.call(&vec(&away)).map(drop)),
            ("Map::call_matrix", map.call_matrix(&mat(&away)).map(drop)),
            (
                "Zip::call lhs",
                zip.call(&vec(&away), &vec(&home)).map(drop),
            ),
            (
                "Zip::call rhs",
                zip.call(&vec(&home), &vec(&away)).map(drop),
            ),
            (
                "Zip::call_matrix lhs",
                zip.call_matrix(&mat(&away), &mat(&home)).map(drop),
            ),
            (
                "Zip::call_matrix rhs",
                zip.call_matrix(&mat(&home), &mat(&away)).map(drop),
            ),
            ("Reduce::call", reduce.call(&vec(&away)).map(drop)),
            (
                "Reduce::call_matrix",
                reduce.call_matrix(&mat(&away)).map(drop),
            ),
            ("Scan::call", scan.call(&vec(&away)).map(drop)),
            ("MapOverlap::call", stencil.call(&mat(&away)).map(drop)),
            (
                "MapOverlapVec::call",
                stencil_vec.call(&vec(&away)).map(drop),
            ),
            (
                "Allpairs::call a",
                allpairs.call(&mat(&away), &mat(&home)).map(drop),
            ),
            (
                "Allpairs::call b",
                allpairs.call(&mat(&home), &mat(&away)).map(drop),
            ),
        ];
        for (entry, result) in cases {
            assert!(
                matches!(result, Err(Error::ShapeMismatch { .. })),
                "{entry} on {own} device(s), container from {other}: {result:?}"
            );
        }
        // The same calls on home containers still work.
        assert_eq!(map.call(&vec(&home)).unwrap().get(3).unwrap(), -3.0);
        assert!(allpairs.call(&mat(&home), &mat(&home)).is_ok());
    }
}
