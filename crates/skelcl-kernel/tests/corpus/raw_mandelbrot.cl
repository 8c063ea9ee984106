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
