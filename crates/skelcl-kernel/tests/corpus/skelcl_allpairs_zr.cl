float mult_corpus_6(float x, float y) {
    return (x * y);
}

float sum_corpus_6(float x, float y) {
    return (x + y);
}

__kernel void skelcl_allpairs_zr(__global const float* skelcl_a, __global const float* skelcl_b,
__global float* skelcl_c, int skelcl_n, int skelcl_m, int skelcl_d) {
__local float skelcl_atile[16 * 16];
__local float skelcl_btile[16 * 16];
int col = (int)get_global_id(0);
int row = (int)get_global_id(1);
int lx = (int)get_local_id(0);
int ly = (int)get_local_id(1);
float acc = (float)0;
int first = 1;
for (int t = 0; t < skelcl_d; t += 16) {
int ac = t + lx;
int arow = (int)get_group_id(1) * 16 + ly;
skelcl_atile[ly * 16 + lx] =
(arow < skelcl_n && ac < skelcl_d) ? skelcl_a[arow * skelcl_d + ac] : (float)0;
int brow = (int)get_group_id(0) * 16 + ly;
skelcl_btile[ly * 16 + lx] =
(brow < skelcl_m && ac < skelcl_d) ? skelcl_b[brow * skelcl_d + ac] : (float)0;
barrier(CLK_LOCAL_MEM_FENCE);
int kmax = skelcl_d - t < 16 ? skelcl_d - t : 16;
for (int k = 0; k < kmax; ++k) {
float v = mult_corpus_6(skelcl_atile[ly * 16 + k], skelcl_btile[lx * 16 + k]);
if (first) { acc = v; first = 0; } else { acc = sum_corpus_6(acc, v); }
}
barrier(CLK_LOCAL_MEM_FENCE);
}
if (row < skelcl_n && col < skelcl_m)
skelcl_c[row * skelcl_m + col] = acc;
}
