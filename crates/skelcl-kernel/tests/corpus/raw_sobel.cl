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
