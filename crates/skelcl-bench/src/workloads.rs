//! Workload generators for the paper's experiments.
//!
//! The paper uses the 512×512 "Lena" photograph for Sobel (Fig. 5); image
//! content does not affect kernel runtime, so a procedurally generated
//! image of the same size substitutes for it (see DESIGN.md).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default seed for reproducible workloads.
pub const SEED: u64 = 0x5ce1_c1ab;

/// The paper's Mandelbrot configuration (Fig. 4): 4096×3072 pixels.
pub const MANDELBROT_FULL: (usize, usize) = (4096, 3072);

/// The paper's Sobel configuration (Fig. 5): the 512×512 Lena image.
pub const SOBEL_FULL: (usize, usize) = (512, 512);

/// A synthetic grayscale test image: smooth gradients plus blocky regions
/// and speckle noise, giving Sobel plenty of edges (a stand-in for Lena).
pub fn synthetic_image(width: usize, height: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut img = vec![0u8; width * height];
    for y in 0..height {
        for x in 0..width {
            let gradient = (x * 255 / width.max(1)) as i32;
            let blocks = if ((x / 32) + (y / 32)) % 2 == 0 {
                64
            } else {
                -64
            };
            let noise: i32 = rng.gen_range(-8..=8);
            let ring = {
                let dx = x as f64 - width as f64 / 2.0;
                let dy = y as f64 - height as f64 / 2.0;
                let r = (dx * dx + dy * dy).sqrt();
                if (r as usize / 24).is_multiple_of(2) {
                    32
                } else {
                    -32
                }
            };
            img[y * width + x] = (gradient + blocks + noise + ring).clamp(0, 255) as u8;
        }
    }
    img
}

/// A random `f32` vector in `[-1, 1)`.
pub fn random_f32_vector(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Host reference Sobel edge detection with clamped (nearest) boundaries,
/// matching the paper's kernels (used to verify every implementation).
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
            out[y as usize * width + x as usize] = mag.clamp(0, 255) as u8;
        }
    }
    out
}

/// Host reference Mandelbrot: iteration count scaled to a byte, matching
/// the GPU kernels bit-for-bit when evaluated in `f32`.
pub fn mandelbrot_reference(width: usize, height: usize, max_iter: i32) -> Vec<u8> {
    let mut out = vec![0u8; width * height];
    for py in 0..height {
        for px in 0..width {
            let cr = 3.5f32 * px as f32 / width as f32 - 2.5;
            let ci = 3.0f32 * py as f32 / height as f32 - 1.5;
            let mut zr = 0.0f32;
            let mut zi = 0.0f32;
            let mut it = 0i32;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_is_deterministic_and_textured() {
        let a = synthetic_image(64, 64);
        let b = synthetic_image(64, 64);
        assert_eq!(a, b, "seeded generation is reproducible");
        let distinct: std::collections::HashSet<u8> = a.iter().copied().collect();
        assert!(
            distinct.len() > 20,
            "image has texture: {} levels",
            distinct.len()
        );
    }

    #[test]
    fn sobel_reference_finds_edges() {
        // A vertical step edge produces strong responses along the step.
        let w = 16;
        let img: Vec<u8> = (0..w * w)
            .map(|i| if i % w < w / 2 { 0 } else { 200 })
            .collect();
        let out = sobel_reference(&img, w, w);
        let edge_col = w / 2;
        assert!(out[8 * w + edge_col] > 100, "edge detected");
        assert_eq!(out[8 * w + 2], 0, "flat area is black");
    }

    #[test]
    fn mandelbrot_reference_has_interior_and_exterior() {
        let img = mandelbrot_reference(32, 24, 64);
        assert!(img.contains(&255));
        assert!(img.iter().any(|&p| p < 255));
    }

    #[test]
    fn random_vectors_reproducible() {
        assert_eq!(random_f32_vector(10, 1), random_f32_vector(10, 1));
        assert_ne!(random_f32_vector(10, 1), random_f32_vector(10, 2));
    }
}
