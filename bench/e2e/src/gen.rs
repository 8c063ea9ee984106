//! Seeded input generators and the independent host references.
//!
//! Every input is a pure function of the `--seed` argument. The references
//! are plain host loops written here: they never call the library under
//! test, so a wrong kernel cannot vouch for itself.

/// SplitMix64: small, seedable, and good enough for test data.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 random bits (exact in `f32`).
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform integer in `[0, n)` (`n` small; modulo bias is irrelevant).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A vector of `len` values in `[lo, hi)`. `stream` separates the vectors
/// one seed produces.
pub fn f32_vector(len: usize, seed: u64, stream: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    (0..len).map(|_| lo + (hi - lo) * rng.unit_f32()).collect()
}

/// Little-endian bytes of `values`, as device buffers hold them.
pub fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The `f32`s in `bytes` (a trailing partial value is dropped).
pub fn f32_values(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// A synthetic grayscale image: a gradient, a checkerboard, rings around a
/// seed-chosen centre and speckle noise, so Sobel finds edges everywhere.
pub fn image(width: usize, height: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let cx = (width / 4 + rng.below(width as u64 / 2) as usize) as f64;
    let cy = (height / 4 + rng.below(height as u64 / 2) as usize) as f64;
    let mut img = vec![0u8; width * height];
    for y in 0..height {
        for x in 0..width {
            let gradient = (x * 255 / width) as i32;
            let blocks = if (x / 32 + y / 32).is_multiple_of(2) {
                64
            } else {
                -64
            };
            let r = ((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt();
            let ring = if (r as usize / 24).is_multiple_of(2) {
                32
            } else {
                -32
            };
            let noise = rng.below(17) as i32 - 8;
            img[y * width + x] = (gradient + blocks + ring + noise).clamp(0, 255) as u8;
        }
    }
    img
}

/// Mandelbrot viewport shift for `seed`: less than an eighth of a pixel
/// in each direction. Every seed renders the same picture through
/// different `f32` coordinates, so iteration counts differ along the set's
/// border while the simulated kernel time stays within a fraction of a
/// per cent across seeds.
pub fn viewport_shift(seed: u64, width: usize, height: usize) -> (f32, f32) {
    let mut rng = Rng::new(seed);
    (
        rng.unit_f32() * 3.5 / (8 * width) as f32,
        rng.unit_f32() * 3.0 / (8 * height) as f32,
    )
}

/// Host Mandelbrot in `f32`, operation for operation what the kernels
/// compute, so the comparison is exact.
pub fn mandelbrot_reference(
    width: usize,
    height: usize,
    max_iter: i32,
    shift: (f32, f32),
) -> Vec<u8> {
    let mut out = vec![0u8; width * height];
    for py in 0..height {
        for px in 0..width {
            let cr = 3.5f32 * px as f32 / width as f32 - 2.5 + shift.0;
            let ci = 3.0f32 * py as f32 / height as f32 - 1.5 + shift.1;
            let (mut zr, mut zi, mut it) = (0.0f32, 0.0f32, 0i32);
            while zr * zr + zi * zi <= 4.0 && it < max_iter {
                let t = zr * zr - zi * zi + cr;
                zi = 2.0 * zr * zi + ci;
                zr = t;
                it += 1;
            }
            out[py * width + px] = (255 * it / max_iter) as u8;
        }
    }
    out
}

/// Host Sobel with clamped (nearest) borders, exact.
pub fn sobel_reference(img: &[u8], width: usize, height: usize) -> Vec<u8> {
    let px = |x: isize, y: isize| -> i32 {
        let xc = x.clamp(0, width as isize - 1) as usize;
        let yc = y.clamp(0, height as isize - 1) as usize;
        img[yc * width + xc] as i32
    };
    let mut out = vec![0u8; width * height];
    for y in 0..height as isize {
        for x in 0..width as isize {
            let h = -px(x - 1, y - 1) + px(x + 1, y - 1) - 2 * px(x - 1, y) + 2 * px(x + 1, y)
                - px(x - 1, y + 1)
                + px(x + 1, y + 1);
            let v = -px(x - 1, y - 1) - 2 * px(x, y - 1) - px(x + 1, y - 1)
                + px(x - 1, y + 1)
                + 2 * px(x, y + 1)
                + px(x + 1, y + 1);
            let mag = ((h * h + v * v) as f32).sqrt() as i32;
            out[y as usize * width + x as usize] = mag.min(255) as u8;
        }
    }
    out
}

/// Dot product accumulated in `f64`.
pub fn dot_reference(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// The affine map step the vector workloads share: `x * 0.5 + 1`.
pub fn step(x: f64) -> f64 {
    x * 0.5 + 1.0
}

/// Three-point mean with out-of-range neighbours read as `edge(i)`.
fn blur(v: &[f64], edge: impl Fn(isize) -> f64) -> Vec<f64> {
    let at = |i: isize| {
        if i < 0 || i >= v.len() as isize {
            edge(i)
        } else {
            v[i as usize]
        }
    };
    (0..v.len() as isize)
        .map(|i| (at(i - 1) + at(i) + at(i + 1)) / 3.0)
        .collect()
}

/// `stream_pipeline` in `f64`: step, three-point mean with zero borders,
/// sum.
pub fn stream_reference(input: &[f32]) -> f64 {
    let stepped: Vec<f64> = input.iter().map(|&x| step(x as f64)).collect();
    blur(&stepped, |_| 0.0).iter().sum()
}

/// `small_calls` in `f64`: `rounds` × (step; three-point mean with nearest
/// borders), inclusive prefix sum, and the sum of that prefix sum.
pub fn small_calls_reference(input: &[f32], rounds: usize) -> (Vec<f64>, f64) {
    let mut v: Vec<f64> = input.iter().map(|&x| x as f64).collect();
    for _ in 0..rounds {
        let stepped: Vec<f64> = v.iter().map(|&x| step(x)).collect();
        let last = stepped.len() as isize - 1;
        v = blur(&stepped, |i| stepped[i.clamp(0, last) as usize]);
    }
    let mut acc = 0.0;
    let scanned: Vec<f64> = v
        .iter()
        .map(|x| {
            acc += x;
            acc
        })
        .collect();
    let total = scanned.iter().sum();
    (scanned, total)
}

/// Whether `got` is within `1e-3` relative of the `f64` reference.
pub fn close(got: f32, want: f64) -> bool {
    (got as f64 - want).abs() <= 1e-3 * want.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            f32_vector(64, 7, 0, 0.0, 1.0),
            f32_vector(64, 7, 0, 0.0, 1.0)
        );
        assert_ne!(
            f32_vector(64, 7, 0, 0.0, 1.0),
            f32_vector(64, 8, 0, 0.0, 1.0)
        );
        assert_ne!(
            f32_vector(64, 7, 0, 0.0, 1.0),
            f32_vector(64, 7, 1, 0.0, 1.0)
        );
        assert_eq!(image(64, 48, 3), image(64, 48, 3));
        assert_ne!(image(64, 48, 3), image(64, 48, 4));
        assert_eq!(viewport_shift(5, 256, 192), viewport_shift(5, 256, 192));
        assert_ne!(viewport_shift(5, 256, 192), viewport_shift(6, 256, 192));
    }

    #[test]
    fn generated_values_stay_in_range() {
        let v = f32_vector(10_000, 1, 0, 0.25, 0.75);
        assert!(v.iter().all(|x| (0.25..0.75).contains(x)));
        let (ox, oy) = viewport_shift(9, 256, 192);
        assert!((0.0..3.5 / 2048.0).contains(&ox) && (0.0..3.0 / 1536.0).contains(&oy));
        let levels: std::collections::HashSet<u8> = image(64, 64, 2).into_iter().collect();
        assert!(levels.len() > 20, "image has texture");
    }

    #[test]
    fn references_on_known_inputs() {
        assert_eq!(dot_reference(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        // step: 1, 1.5, 2; zero-border mean: 2.5/3, 4.5/3, 3.5/3.
        assert!((stream_reference(&[0.0, 1.0, 2.0]) - 10.5 / 3.0).abs() < 1e-12);
        // A constant vector is a fixed point of the nearest-border blur.
        let (scan, total) = small_calls_reference(&[2.0; 4], 3);
        assert_eq!(scan, vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(total, 20.0);
        // A vertical step edge: strong response on the step, none beside it.
        let w = 16;
        let img: Vec<u8> = (0..w * w)
            .map(|i| if i % w < 8 { 0 } else { 200 })
            .collect();
        let out = sobel_reference(&img, w, w);
        assert_eq!(out[8 * w + 8], 255);
        assert_eq!(out[8 * w + 2], 0);
        let m = mandelbrot_reference(32, 24, 64, (0.0, 0.0));
        assert!(m.contains(&255) && m.iter().any(|&p| p < 255));
    }

    #[test]
    fn close_is_relative() {
        assert!(close(1000.5, 1000.0));
        assert!(!close(1002.0, 1000.0));
    }
}
