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
