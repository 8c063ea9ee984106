__kernel void map_step(__global const float* in, __global float* out, int n)
{
    int i = (int)get_global_id(0);
    if (i < n)
        out[i] = in[i] * 0.5f + 1.0f;
}
