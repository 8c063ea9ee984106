float blur_corpus_4(const float* v) {
    return (((__skelcl_get1(v, (-(1))) + __skelcl_get1(v, 0)) + __skelcl_get1(v, 1)) / 3.0f);
}

float __skelcl_get1(const float* skelcl_c, int di) {
return (di >= -1 && di <= 1) ? skelcl_c[di] : (float)__skelcl_trap_int(100);
}
float __skelcl_load1(__global const float* skelcl_in, int i, int n) {
return (i < 0 || i >= n) ? 0.0f : skelcl_in[i];
}
__kernel void skelcl_mapoverlap_vec(__global const float* skelcl_in, __global float* skelcl_out,
int skelcl_in_n, int skelcl_out_n, int skelcl_off) {
__local float skelcl_tile[258];
int lid = (int)get_local_id(0);
int gid = (int)get_global_id(0);
int lsz = (int)get_local_size(0);
int base = (int)get_group_id(0) * lsz + skelcl_off - 1;
for (int t = lid; t < 258; t += lsz) {
int skelcl_i = base + t;
skelcl_tile[t] = __skelcl_load1(skelcl_in, skelcl_i, skelcl_in_n);
}
barrier(CLK_LOCAL_MEM_FENCE);
if (gid < skelcl_out_n)
skelcl_out[gid] = blur_corpus_4(&skelcl_tile[lid + 1]);
}
