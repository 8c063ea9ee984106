float sum_corpus_5(float x, float y) {
    return (x + y);
}

__kernel void skelcl_scan_block(__global const float* skelcl_in, __global float* skelcl_out,
__global float* skelcl_sums, int skelcl_n) {
__local float skelcl_bufa[256];
__local float skelcl_bufb[256];
__local float* cur = skelcl_bufa;
__local float* nxt = skelcl_bufb;
int lid = (int)get_local_id(0);
int gid = (int)get_global_id(0);
int lsz = (int)get_local_size(0);
if (gid < skelcl_n) cur[lid] = skelcl_in[gid];
barrier(CLK_LOCAL_MEM_FENCE);
for (int off = 1; off < lsz; off <<= 1) {
if (lid >= off && gid < skelcl_n) nxt[lid] = sum_corpus_5(cur[lid - off], cur[lid]);
else nxt[lid] = cur[lid];
barrier(CLK_LOCAL_MEM_FENCE);
__local float* tmp = cur; cur = nxt; nxt = tmp;
}
if (gid < skelcl_n) skelcl_out[gid] = cur[lid];
if (lid == lsz - 1) skelcl_sums[get_group_id(0)] = cur[lid];
}
__kernel void skelcl_scan_add_sums(__global float* skelcl_data,
__global const float* skelcl_sums, int skelcl_n) {
int gid = (int)get_global_id(0);
int g = (int)get_group_id(0);
if (g > 0 && gid < skelcl_n)
skelcl_data[gid] = sum_corpus_5(skelcl_sums[g - 1], skelcl_data[gid]);
}
__kernel void skelcl_scan_offset(__global float* skelcl_data, float skelcl_off, int skelcl_n) {
int gid = (int)get_global_id(0);
if (gid < skelcl_n) skelcl_data[gid] = sum_corpus_5(skelcl_off, skelcl_data[gid]);
}
