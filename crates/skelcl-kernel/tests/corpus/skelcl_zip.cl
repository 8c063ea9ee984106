float mult_corpus_2(float x, float y) {
    return (x * y);
}

__kernel void skelcl_zip(__global const float* skelcl_in0, __global const float* skelcl_in1, __global float* skelcl_out, int skelcl_n) {
    int skelcl_i = (int)get_global_id(0);
    if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = mult_corpus_2(skelcl_in0[skelcl_i], skelcl_in1[skelcl_i]);
}
