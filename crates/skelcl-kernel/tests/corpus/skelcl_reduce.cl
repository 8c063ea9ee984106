float sum_corpus_3(float x, float y) {
    return (x + y);
}

__kernel void skelcl_reduce(__global const float* skelcl_in, __global float* skelcl_out, int skelcl_n) {
__local float skelcl_scratch[256];
int lid = (int)get_local_id(0);
int gid = (int)get_global_id(0);
int gsize = (int)get_global_size(0);
int lsz = (int)get_local_size(0);
int active = skelcl_n < gsize ? skelcl_n : gsize;
if (gid < active) {
float acc = skelcl_in[gid];
for (int i = gid + gsize; i < skelcl_n; i += gsize) acc = sum_corpus_3(acc, skelcl_in[i]);
skelcl_scratch[lid] = acc;
}
barrier(CLK_LOCAL_MEM_FENCE);
int group_base = (int)get_group_id(0) * lsz;
int group_active = active - group_base;
if (group_active > lsz) group_active = lsz;
for (int stride = lsz / 2; stride > 0; stride >>= 1) {
if (lid < stride && lid + stride < group_active)
skelcl_scratch[lid] = sum_corpus_3(skelcl_scratch[lid], skelcl_scratch[lid + stride]);
barrier(CLK_LOCAL_MEM_FENCE);
}
if (lid == 0 && group_active > 0)
skelcl_out[get_group_id(0)] = skelcl_scratch[0];
}
