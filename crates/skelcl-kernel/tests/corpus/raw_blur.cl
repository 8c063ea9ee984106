__kernel void blur(__global const float* in, __global float* out, int off, int n, int len)
{
    int i = (int)get_global_id(0);
    if (i >= n)
        return;
    int c = off + i;
    float l = in[clamp(c - 1, 0, len - 1)];
    float r = in[clamp(c + 1, 0, len - 1)];
    out[c] = (l + in[c] + r) / 3.0f;
}
