// AVX-512 instantiation of the SIMD microkernels. Compiled with
// -mavx512f -mavx512vl -mavx512dq -mavx512bw (plus the AVX2 baseline): float
// arithmetic stays 8-wide ymm — identical lane math to the AVX2 level, no
// 512-bit frequency penalty on ADEPT's small matrices — while tail
// loads/stores use native mask registers instead of vmaskmov emulation.
// -mprefer-vector-width=256 holds loops the compiler vectorizes itself to
// ymm as well. The int8 serving gemm is the exception: integer madd has no
// contraction drift, so it runs an 8x16 full-zmm tile (avx512bw) and stays
// bit-identical to the narrower levels anyway; `objdump -d` of this TU
// shows zmm registers in mk_gemm_s8_tile only.
#define ADEPT_SIMD_NS avx512
#include "backend/microkernels.inc"
