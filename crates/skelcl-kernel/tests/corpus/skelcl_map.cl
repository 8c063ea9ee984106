uchar func_corpus_0(int gid, int width, int height, int max_iter, float ox, float oy) {
    int px = (gid % width);
    int py = (gid / width);
    float cr = ((((3.5f * ((float)(px))) / ((float)(width))) - 2.5f) + ox);
    float ci = ((((3.0f * ((float)(py))) / ((float)(height))) - 1.5f) + oy);
    float zr = 0.0f;
    float zi = 0.0f;
    int it = 0;
    while (((((zr * zr) + (zi * zi)) <= 4.0f) && (it < max_iter))) {
        float t = (((zr * zr) - (zi * zi)) + cr);
        zi = (((2.0f * zr) * zi) + ci);
        zr = t;
        it = (it + 1);
    }
    return ((uchar)(((255 * it) / max_iter)));
}

__kernel void skelcl_map(__global const int* skelcl_in0, __global uchar* skelcl_out, int skelcl_n, int skelcl_x0, int skelcl_x1, int skelcl_x2, float skelcl_x3, float skelcl_x4) {
    int skelcl_i = (int)get_global_id(0);
    if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = func_corpus_0(skelcl_in0[skelcl_i], skelcl_x0, skelcl_x1, skelcl_x2, skelcl_x3, skelcl_x4);
}
__kernel void skelcl_map_index(__global uchar* skelcl_out, int skelcl_n, int skelcl_base, int skelcl_x0, int skelcl_x1, int skelcl_x2, float skelcl_x3, float skelcl_x4) {
int skelcl_i = (int)get_global_id(0);
if (skelcl_i < skelcl_n)
skelcl_out[skelcl_i] = func_corpus_0(skelcl_base + skelcl_i, skelcl_x0, skelcl_x1, skelcl_x2, skelcl_x3, skelcl_x4);
}
