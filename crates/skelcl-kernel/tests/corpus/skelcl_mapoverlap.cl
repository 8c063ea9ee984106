uchar func_corpus_1(const uchar* img, int __skelcl_tw) {
    int h = (((((((-(1)) * ((int)(__skelcl_get2(img, __skelcl_tw, (-(1)), (-(1)))))) + (1 * ((int)(__skelcl_get2(img, __skelcl_tw, (+(1)), (-(1))))))) - (2 * ((int)(__skelcl_get2(img, __skelcl_tw, (-(1)), 0))))) + (2 * ((int)(__skelcl_get2(img, __skelcl_tw, (+(1)), 0))))) - (1 * ((int)(__skelcl_get2(img, __skelcl_tw, (-(1)), (+(1))))))) + (1 * ((int)(__skelcl_get2(img, __skelcl_tw, (+(1)), (+(1)))))));
    int v = (((((((-(1)) * ((int)(__skelcl_get2(img, __skelcl_tw, (-(1)), (-(1)))))) - (2 * ((int)(__skelcl_get2(img, __skelcl_tw, 0, (-(1))))))) - (1 * ((int)(__skelcl_get2(img, __skelcl_tw, (+(1)), (-(1))))))) + (1 * ((int)(__skelcl_get2(img, __skelcl_tw, (-(1)), (+(1))))))) + (2 * ((int)(__skelcl_get2(img, __skelcl_tw, 0, (+(1))))))) + (1 * ((int)(__skelcl_get2(img, __skelcl_tw, (+(1)), (+(1)))))));
    int mag = ((int)(sqrt(((float)(((h * h) + (v * v)))))));
    return ((uchar)(((mag > 255) ? 255 : mag)));
}

uchar __skelcl_get2(const uchar* skelcl_c, int skelcl_tw, int dx, int dy) {
return (dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1)
? skelcl_c[dy * skelcl_tw + dx] : (uchar)__skelcl_trap_int(100);
}
uchar __skelcl_load(__global const uchar* skelcl_in, int r, int c, int rows, int cols) {
int rr = clamp(r, 0, rows - 1);
    int cc = clamp(c, 0, cols - 1);
    return skelcl_in[rr * cols + cc];
}
__kernel void skelcl_mapoverlap(__global const uchar* skelcl_in, __global uchar* skelcl_out,
int skelcl_in_rows, int skelcl_cols, int skelcl_out_rows, int skelcl_row_off) {
__local uchar skelcl_tile[18 * 18];
int lx = (int)get_local_id(0);
int ly = (int)get_local_id(1);
int gx = (int)get_global_id(0);
int gy = (int)get_global_id(1);
int lsx = (int)get_local_size(0);
int lsy = (int)get_local_size(1);
int base_r = (int)get_group_id(1) * lsy + skelcl_row_off - 1;
int base_c = (int)get_group_id(0) * lsx - 1;
for (int ty = ly; ty < 18; ty += lsy)
for (int tx = lx; tx < 18; tx += lsx) {
int skelcl_r = base_r + ty;
int skelcl_cc = base_c + tx;
skelcl_tile[ty * 18 + tx] =
__skelcl_load(skelcl_in, skelcl_r, skelcl_cc, skelcl_in_rows, skelcl_cols);
}
barrier(CLK_LOCAL_MEM_FENCE);
if (gx < skelcl_cols && gy < skelcl_out_rows)
skelcl_out[gy * skelcl_cols + gx] =
func_corpus_1(&skelcl_tile[(ly + 1) * 18 + (lx + 1)], 18);
}
