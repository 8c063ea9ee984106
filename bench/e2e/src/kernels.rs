//! SkelCL-C sources: the customizing functions the workloads hand to the
//! skeletons, and the hand-written raw kernels of the baselines.

/// Mandelbrot (paper §4.1) as a `Map<i32, u8>` customizing function; the
/// viewport shift rides in as two extra arguments.
pub const MANDELBROT_FUNC: &str = r#"
uchar func(int gid, int width, int height, int max_iter, float ox, float oy)
{
    int px = gid % width;
    int py = gid / width;
    float cr = 3.5f * (float)px / (float)width - 2.5f + ox;
    float ci = 3.0f * (float)py / (float)height - 1.5f + oy;
    float zr = 0.0f;
    float zi = 0.0f;
    int it = 0;
    while (zr * zr + zi * zi <= 4.0f && it < max_iter) {
        float t = zr * zr - zi * zi + cr;
        zi = 2.0f * zr * zi + ci;
        zr = t;
        it = it + 1;
    }
    return (uchar)(255 * it / max_iter);
}
"#;

/// Sobel (paper Listing 1.5) as a matrix `MapOverlap<u8, u8>` function.
pub const SOBEL_FUNC: &str = r#"
uchar func(const uchar* img)
{
    int h = -1 * (int)get(img, -1, -1) + 1 * (int)get(img, +1, -1)
            -2 * (int)get(img, -1,  0) + 2 * (int)get(img, +1,  0)
            -1 * (int)get(img, -1, +1) + 1 * (int)get(img, +1, +1);
    int v = -1 * (int)get(img, -1, -1) - 2 * (int)get(img, 0, -1) - 1 * (int)get(img, +1, -1)
            +1 * (int)get(img, -1, +1) + 2 * (int)get(img, 0, +1) + 1 * (int)get(img, +1, +1);
    int mag = (int)sqrt((float)(h * h + v * v));
    return (uchar)(mag > 255 ? 255 : mag);
}
"#;

pub const MULT_FUNC: &str = "float mult(float x, float y){ return x * y; }";
pub const SUM_FUNC: &str = "float sum(float x, float y){ return x + y; }";
pub const STEP_FUNC: &str = "float step(float x){ return x * 0.5f + 1.0f; }";
pub const BLUR_FUNC: &str =
    "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }";

/// Renames the function a one-function source defines: `compile_cold`
/// gives every source a name no earlier source had.
pub fn renamed(source: &str, name: &str, suffix: &str) -> String {
    source.replacen(&format!("{name}("), &format!("{name}_{suffix}("), 1)
}

/// A hand-written raw kernel: where it is defined and how it is entered.
#[derive(Debug, Clone, Copy)]
pub struct RawKernel {
    pub file: &'static str,
    pub entry: &'static str,
    pub source: &'static str,
}

/// Rows `[row0, row0 + rows)` of the frame into `out`.
pub const RAW_MANDELBROT: RawKernel = RawKernel {
    file: "raw_mandelbrot.cl",
    entry: "mandelbrot",
    source: r#"
__kernel void mandelbrot(__global uchar* out, int width, int height, int row0, int rows,
                         int max_iter, float ox, float oy)
{
    int px = (int)get_global_id(0);
    int ly = (int)get_global_id(1);
    if (px >= width || ly >= rows)
        return;
    int py = row0 + ly;
    float cr = 3.5f * (float)px / (float)width - 2.5f + ox;
    float ci = 3.0f * (float)py / (float)height - 1.5f + oy;
    float zr = 0.0f;
    float zi = 0.0f;
    int it = 0;
    while (zr * zr + zi * zi <= 4.0f && it < max_iter) {
        float t = zr * zr - zi * zi + cr;
        zi = 2.0f * zr * zi + ci;
        zr = t;
        it = it + 1;
    }
    out[ly * width + px] = (uchar)(255 * it / max_iter);
}
"#,
};

/// Tiled Sobel in the style of the NVIDIA SDK sample: the work-group
/// stages its 18×18 footprint in local memory behind a barrier. `img`
/// holds `staged_rows` rows, of which the `rows` starting at `row_off` are
/// this device's own; the rest are halo rows of its neighbours.
pub const RAW_SOBEL: RawKernel = RawKernel {
    file: "raw_sobel.cl",
    entry: "sobel_tiled",
    source: r#"
uchar fetch_clamped(__global const uchar* img, int x, int y, int width, int height)
{
    int xc = clamp(x, 0, width - 1);
    int yc = clamp(y, 0, height - 1);
    return img[yc * width + xc];
}

__kernel void sobel_tiled(__global const uchar* img, __global uchar* out,
                          int width, int staged_rows, int row_off, int rows)
{
    __local uchar tile[18 * 18];
    int lx = (int)get_local_id(0);
    int ly = (int)get_local_id(1);
    int gx = (int)get_global_id(0);
    int gy = (int)get_global_id(1);
    int lsx = (int)get_local_size(0);
    int lsy = (int)get_local_size(1);
    int base_x = (int)get_group_id(0) * lsx - 1;
    int base_y = (int)get_group_id(1) * lsy - 1 + row_off;

    for (int ty = ly; ty < 18; ty += lsy) {
        for (int tx = lx; tx < 18; tx += lsx) {
            tile[ty * 18 + tx] = fetch_clamped(img, base_x + tx, base_y + ty, width, staged_rows);
        }
    }
    barrier(CLK_LOCAL_MEM_FENCE);

    if (gx >= width || gy >= rows)
        return;

    int cx = lx + 1;
    int cy = ly + 1;
    int ul = (int)tile[(cy - 1) * 18 + (cx - 1)];
    int um = (int)tile[(cy - 1) * 18 +  cx     ];
    int ur = (int)tile[(cy - 1) * 18 + (cx + 1)];
    int ml = (int)tile[ cy      * 18 + (cx - 1)];
    int mr = (int)tile[ cy      * 18 + (cx + 1)];
    int ll = (int)tile[(cy + 1) * 18 + (cx - 1)];
    int lm = (int)tile[(cy + 1) * 18 +  cx     ];
    int lr = (int)tile[(cy + 1) * 18 + (cx + 1)];

    int h = -ul + ur - 2 * ml + 2 * mr - ll + lr;
    int v = -ul - 2 * um - ur + ll + 2 * lm + lr;
    int mag = (int)sqrt((float)(h * h + v * v));
    out[gy * width + gx] = (uchar)(mag > 255 ? 255 : mag);
}
"#,
};

pub const RAW_ZIP_MULT: RawKernel = RawKernel {
    file: "raw_zip_mult.cl",
    entry: "multiply",
    source: r#"
__kernel void multiply(__global const float* a, __global const float* b,
                       __global float* c, int n)
{
    int i = (int)get_global_id(0);
    if (i < n)
        c[i] = a[i] * b[i];
}
"#,
};

/// Grid-stride partial sums into 256 local lanes, then a barrier tree.
pub const RAW_TREE_REDUCE: RawKernel = RawKernel {
    file: "raw_tree_reduce.cl",
    entry: "reduce_sum",
    source: r#"
__kernel void reduce_sum(__global const float* in, __global float* out, int n)
{
    __local float scratch[256];
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    int gsize = (int)get_global_size(0);
    float acc = 0.0f;
    for (int i = gid; i < n; i += gsize)
        acc = acc + in[i];
    scratch[lid] = acc;
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int stride = 128; stride > 0; stride >>= 1) {
        if (lid < stride)
            scratch[lid] = scratch[lid] + scratch[lid + stride];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (lid == 0)
        out[get_group_id(0)] = scratch[0];
}
"#,
};

pub const RAW_MAP_STEP: RawKernel = RawKernel {
    file: "raw_map_step.cl",
    entry: "map_step",
    source: r#"
__kernel void map_step(__global const float* in, __global float* out, int n)
{
    int i = (int)get_global_id(0);
    if (i < n)
        out[i] = in[i] * 0.5f + 1.0f;
}
"#,
};

/// Three-point mean of the `n` elements starting at `off` of `in`, whose
/// `len` elements include the halo; reads outside `[0, len)` clamp.
pub const RAW_BLUR: RawKernel = RawKernel {
    file: "raw_blur.cl",
    entry: "blur",
    source: r#"
__kernel void blur(__global const float* in, __global float* out, int off, int n, int len)
{
    int i = (int)get_global_id(0);
    if (i >= n)
        return;
    int c = off + i;
    float l = in[clamp(c - 1, 0, len - 1)];
    float r = in[clamp(c + 1, 0, len - 1)];
    out[c] = (l + in[c] + r) / 3.0f;
}
"#,
};

/// Inclusive Hillis–Steele scan of one 256-element block per work-group,
/// block totals into `sums`; then `add_offset` adds each block's prefix.
pub const RAW_SCAN: RawKernel = RawKernel {
    file: "raw_scan.cl",
    entry: "scan_block",
    source: r#"
__kernel void scan_block(__global const float* in, __global float* out,
                         __global float* sums, int off, int n)
{
    __local float a[256];
    __local float b[256];
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    a[lid] = gid < n ? in[off + gid] : 0.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int d = 1; d < 256; d <<= 1) {
        b[lid] = lid >= d ? a[lid - d] + a[lid] : a[lid];
        barrier(CLK_LOCAL_MEM_FENCE);
        a[lid] = b[lid];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (gid < n)
        out[gid] = a[lid];
    if (lid == 255)
        sums[get_group_id(0)] = a[255];
}

__kernel void add_offset(__global float* out, __global const float* offsets, int n)
{
    int gid = (int)get_global_id(0);
    if (gid < n)
        out[gid] = out[gid] + offsets[get_group_id(0)];
}
"#,
};

/// The six kernels whose compilation the per-stage timing walks through.
pub const STAGE_TIMED: [RawKernel; 6] = [
    RAW_MANDELBROT,
    RAW_SOBEL,
    RAW_ZIP_MULT,
    RAW_TREE_REDUCE,
    RAW_MAP_STEP,
    RAW_BLUR,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renamed_touches_only_the_definition() {
        assert_eq!(
            renamed(MULT_FUNC, "mult", "7_3"),
            "float mult_7_3(float x, float y){ return x * y; }"
        );
        let r = renamed(MANDELBROT_FUNC, "func", "1_2");
        assert!(r.contains("uchar func_1_2(int gid"));
    }

    #[test]
    fn every_raw_kernel_compiles_and_has_its_entry() {
        for k in STAGE_TIMED.iter().chain([&RAW_SCAN]) {
            let p = skelcl_kernel::compile(k.file, k.source)
                .unwrap_or_else(|e| panic!("{}: {e}", k.file));
            assert!(p.kernel(k.entry).is_some(), "{} has {}", k.file, k.entry);
        }
    }
}
