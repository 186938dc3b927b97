// 8-wide float SIMD abstraction for the backend microkernels.
//
// One vector type, `vec8f`, with three implementations selected by the
// *compile flags of the including translation unit*:
//
//   - AVX-512 (requires __AVX512F__ + __AVX512VL__ + __AVX512DQ__): 8-wide
//     ymm arithmetic (identical lane math to AVX2 — no 512-bit frequency
//     cliffs on the small ADEPT matrices) with native mask registers for
//     branch-free tail loads/stores.
//   - AVX2+FMA (__AVX2__ + __FMA__): ymm arithmetic, tails via
//     vmaskmovps emulation masks.
//   - portable scalar: a float[8] struct with plain loops; the reference
//     implementation (tests compile against it) and the fallback for
//     non-x86 targets.
//
// Every definition lives in an ISA-specific *inline namespace*
// (adept::backend::simd::{v_scalar, v_avx2, v_avx512}) so microkernel TUs
// compiled with different flags produce distinct symbols — no ODR merging of
// incompatible code. Call sites just write `simd::load8(...)`.
//
// The transcendental helpers (`exp8`, `sincos8`) are single-precision
// Cephes-style polynomial evaluations (~1-2 ulp inside their reduction
// range); the dispatch layer documents the tolerance contract versus libm.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define ADEPT_SIMD_X86_256 1
#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)
#define ADEPT_SIMD_X86_MASK 1
#endif
#endif

#if defined(ADEPT_SIMD_X86_MASK)
#define ADEPT_SIMD_ABI v_avx512
#elif defined(ADEPT_SIMD_X86_256)
#define ADEPT_SIMD_ABI v_avx2
#else
#define ADEPT_SIMD_ABI v_scalar
#endif

namespace adept::backend::simd {
inline namespace ADEPT_SIMD_ABI {

constexpr int kLanes = 8;

#if defined(ADEPT_SIMD_X86_256)

struct vec8f {
  __m256 v;
};
struct vec8i {
  __m256i v;
};

inline vec8f zero8() { return {_mm256_setzero_ps()}; }
inline vec8f broadcast8(float x) { return {_mm256_set1_ps(x)}; }
inline vec8f load8(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void store8(float* p, vec8f a) { _mm256_storeu_ps(p, a.v); }

#if defined(ADEPT_SIMD_X86_MASK)
inline vec8f load8_partial(const float* p, int n) {
  const __mmask8 m = static_cast<__mmask8>((1u << n) - 1u);
  return {_mm256_maskz_loadu_ps(m, p)};
}
inline void store8_partial(float* p, int n, vec8f a) {
  const __mmask8 m = static_cast<__mmask8>((1u << n) - 1u);
  _mm256_mask_storeu_ps(p, m, a.v);
}
#else
inline __m256i tail_mask(int n) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), iota);
}
inline vec8f load8_partial(const float* p, int n) {
  return {_mm256_maskload_ps(p, tail_mask(n))};
}
inline void store8_partial(float* p, int n, vec8f a) {
  _mm256_maskstore_ps(p, tail_mask(n), a.v);
}
#endif

inline vec8f add8(vec8f a, vec8f b) { return {_mm256_add_ps(a.v, b.v)}; }
inline vec8f sub8(vec8f a, vec8f b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline vec8f mul8(vec8f a, vec8f b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline vec8f max8(vec8f a, vec8f b) { return {_mm256_max_ps(a.v, b.v)}; }
inline vec8f min8(vec8f a, vec8f b) { return {_mm256_min_ps(a.v, b.v)}; }
// a*b + c
inline vec8f fmadd8(vec8f a, vec8f b, vec8f c) {
  return {_mm256_fmadd_ps(a.v, b.v, c.v)};
}
// c - a*b
inline vec8f fnmadd8(vec8f a, vec8f b, vec8f c) {
  return {_mm256_fnmadd_ps(a.v, b.v, c.v)};
}

inline vec8f and8(vec8f a, vec8f b) { return {_mm256_and_ps(a.v, b.v)}; }
inline vec8f andnot8(vec8f a, vec8f b) { return {_mm256_andnot_ps(a.v, b.v)}; }
inline vec8f xor8(vec8f a, vec8f b) { return {_mm256_xor_ps(a.v, b.v)}; }
// mask ? a : b, mask lanes all-ones/all-zeros
inline vec8f select8(vec8f mask, vec8f a, vec8f b) {
  return {_mm256_blendv_ps(b.v, a.v, mask.v)};
}

inline vec8i cvtt8(vec8f a) { return {_mm256_cvttps_epi32(a.v)}; }
inline vec8f cvt8(vec8i a) { return {_mm256_cvtepi32_ps(a.v)}; }
inline vec8i addi8(vec8i a, int b) {
  return {_mm256_add_epi32(a.v, _mm256_set1_epi32(b))};
}
inline vec8i andi8(vec8i a, int b) {
  return {_mm256_and_si256(a.v, _mm256_set1_epi32(b))};
}
inline vec8i andnoti8(vec8i a, int b) {
  return {_mm256_andnot_si256(a.v, _mm256_set1_epi32(b))};
}
inline vec8i slli8(vec8i a, int count) {
  return {_mm256_slli_epi32(a.v, count)};
}
inline vec8f casti8(vec8i a) { return {_mm256_castsi256_ps(a.v)}; }
// all-ones float mask where lane == 0
inline vec8f cmpeq0_8(vec8i a) {
  return {_mm256_castsi256_ps(_mm256_cmpeq_epi32(a.v, _mm256_setzero_si256()))};
}
// lane > b ? all-ones : 0 (float compare)
inline vec8f cmpgt8(vec8f a, vec8f b) {
  return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
}
inline bool any8(vec8f mask) { return _mm256_movemask_ps(mask.v) != 0; }

inline float hsum8(vec8f a) {
  // Fixed pairwise order: (lo128 + hi128), then horizontal within 128.
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(a.v),
                        _mm256_extractf128_ps(a.v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}
inline float hmax8(vec8f a) {
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(a.v),
                        _mm256_extractf128_ps(a.v, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

#else  // portable scalar implementation

struct vec8f {
  float l[kLanes];
};
struct vec8i {
  std::int32_t l[kLanes];
};

inline vec8f zero8() { return vec8f{}; }
inline vec8f broadcast8(float x) {
  vec8f r;
  for (int i = 0; i < kLanes; ++i) r.l[i] = x;
  return r;
}
inline vec8f load8(const float* p) {
  vec8f r;
  std::memcpy(r.l, p, sizeof(r.l));
  return r;
}
inline void store8(float* p, vec8f a) { std::memcpy(p, a.l, sizeof(a.l)); }
inline vec8f load8_partial(const float* p, int n) {
  vec8f r{};
  for (int i = 0; i < n; ++i) r.l[i] = p[i];
  return r;
}
inline void store8_partial(float* p, int n, vec8f a) {
  for (int i = 0; i < n; ++i) p[i] = a.l[i];
}

inline vec8f add8(vec8f a, vec8f b) {
  for (int i = 0; i < kLanes; ++i) a.l[i] += b.l[i];
  return a;
}
inline vec8f sub8(vec8f a, vec8f b) {
  for (int i = 0; i < kLanes; ++i) a.l[i] -= b.l[i];
  return a;
}
inline vec8f mul8(vec8f a, vec8f b) {
  for (int i = 0; i < kLanes; ++i) a.l[i] *= b.l[i];
  return a;
}
inline vec8f max8(vec8f a, vec8f b) {
  for (int i = 0; i < kLanes; ++i) a.l[i] = a.l[i] > b.l[i] ? a.l[i] : b.l[i];
  return a;
}
inline vec8f min8(vec8f a, vec8f b) {
  for (int i = 0; i < kLanes; ++i) a.l[i] = a.l[i] < b.l[i] ? a.l[i] : b.l[i];
  return a;
}
inline vec8f fmadd8(vec8f a, vec8f b, vec8f c) {
  for (int i = 0; i < kLanes; ++i) c.l[i] = std::fma(a.l[i], b.l[i], c.l[i]);
  return c;
}
inline vec8f fnmadd8(vec8f a, vec8f b, vec8f c) {
  for (int i = 0; i < kLanes; ++i) c.l[i] = std::fma(-a.l[i], b.l[i], c.l[i]);
  return c;
}

namespace bitdetail {
inline std::uint32_t bits(float x) {
  std::uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}
inline float fbits(std::uint32_t u) {
  float x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}
}  // namespace bitdetail

inline vec8f and8(vec8f a, vec8f b) {
  for (int i = 0; i < kLanes; ++i) {
    a.l[i] = bitdetail::fbits(bitdetail::bits(a.l[i]) & bitdetail::bits(b.l[i]));
  }
  return a;
}
inline vec8f andnot8(vec8f a, vec8f b) {
  for (int i = 0; i < kLanes; ++i) {
    a.l[i] = bitdetail::fbits(~bitdetail::bits(a.l[i]) & bitdetail::bits(b.l[i]));
  }
  return a;
}
inline vec8f xor8(vec8f a, vec8f b) {
  for (int i = 0; i < kLanes; ++i) {
    a.l[i] = bitdetail::fbits(bitdetail::bits(a.l[i]) ^ bitdetail::bits(b.l[i]));
  }
  return a;
}
inline vec8f select8(vec8f mask, vec8f a, vec8f b) {
  for (int i = 0; i < kLanes; ++i) {
    if ((bitdetail::bits(mask.l[i]) & 0x80000000u) == 0u) a.l[i] = b.l[i];
  }
  return a;
}

inline vec8i cvtt8(vec8f a) {
  vec8i r;
  for (int i = 0; i < kLanes; ++i) r.l[i] = static_cast<std::int32_t>(a.l[i]);
  return r;
}
inline vec8f cvt8(vec8i a) {
  vec8f r;
  for (int i = 0; i < kLanes; ++i) r.l[i] = static_cast<float>(a.l[i]);
  return r;
}
inline vec8i addi8(vec8i a, int b) {
  for (int i = 0; i < kLanes; ++i) a.l[i] += b;
  return a;
}
inline vec8i andi8(vec8i a, int b) {
  for (int i = 0; i < kLanes; ++i) a.l[i] &= b;
  return a;
}
inline vec8i andnoti8(vec8i a, int b) {
  for (int i = 0; i < kLanes; ++i) a.l[i] = ~a.l[i] & b;
  return a;
}
inline vec8i slli8(vec8i a, int count) {
  for (int i = 0; i < kLanes; ++i) {
    a.l[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(a.l[i])
                                       << count);
  }
  return a;
}
inline vec8f casti8(vec8i a) {
  vec8f r;
  std::memcpy(r.l, a.l, sizeof(r.l));
  return r;
}
inline vec8f cmpeq0_8(vec8i a) {
  vec8f r;
  for (int i = 0; i < kLanes; ++i) {
    r.l[i] = bitdetail::fbits(a.l[i] == 0 ? 0xffffffffu : 0u);
  }
  return r;
}
inline vec8f cmpgt8(vec8f a, vec8f b) {
  vec8f r;
  for (int i = 0; i < kLanes; ++i) {
    r.l[i] = bitdetail::fbits(a.l[i] > b.l[i] ? 0xffffffffu : 0u);
  }
  return r;
}
inline bool any8(vec8f mask) {
  for (int i = 0; i < kLanes; ++i) {
    if ((bitdetail::bits(mask.l[i]) & 0x80000000u) != 0u) return true;
  }
  return false;
}

inline float hsum8(vec8f a) {
  // Same pairwise order as the AVX variants.
  float p0 = a.l[0] + a.l[4], p1 = a.l[1] + a.l[5];
  float p2 = a.l[2] + a.l[6], p3 = a.l[3] + a.l[7];
  return (p0 + p2) + (p1 + p3);
}
inline float hmax8(vec8f a) {
  float m = a.l[0];
  for (int i = 1; i < kLanes; ++i) m = a.l[i] > m ? a.l[i] : m;
  return m;
}

#endif  // portable scalar

// ---- transcendental helpers ------------------------------------------------

// e^x, Cephes expf polynomial: inputs clamped to the float-representable
// range, 2^n reconstruction through the exponent bits. ~1 ulp inside
// [-87.3, 88.7]; monotone saturation outside.
inline vec8f exp8(vec8f x) {
  const vec8f hi = broadcast8(88.3762626647949f);
  const vec8f lo = broadcast8(-88.3762626647949f);
  x = min8(max8(x, lo), hi);

  // n = round(x / ln2), as floor(x*log2e + 0.5)
  vec8f fx = fmadd8(x, broadcast8(1.44269504088896341f), broadcast8(0.5f));
  vec8f flr = cvt8(cvtt8(fx));  // trunc
  // trunc rounds toward 0: fix lanes where trunc > value (negative inputs)
  vec8f too_big = cmpgt8(flr, fx);
  flr = sub8(flr, and8(too_big, broadcast8(1.0f)));

  // r = x - n*ln2 in two steps (hi/lo split of ln2)
  x = fnmadd8(flr, broadcast8(0.693359375f), x);
  x = fnmadd8(flr, broadcast8(-2.12194440e-4f), x);

  const vec8f z = mul8(x, x);
  vec8f y = broadcast8(1.9875691500e-4f);
  y = fmadd8(y, x, broadcast8(1.3981999507e-3f));
  y = fmadd8(y, x, broadcast8(8.3334519073e-3f));
  y = fmadd8(y, x, broadcast8(4.1665795894e-2f));
  y = fmadd8(y, x, broadcast8(1.6666665459e-1f));
  y = fmadd8(y, x, broadcast8(5.0000001201e-1f));
  y = fmadd8(y, z, add8(x, broadcast8(1.0f)));

  // 2^n via exponent bits
  vec8i n = cvtt8(flr);
  const vec8f pow2n = casti8(slli8(addi8(n, 127), 23));
  return mul8(y, pow2n);
}

// Simultaneous sin/cos, Cephes sincosf with the standard extended-precision
// pi/4 range reduction. Accurate to ~1-2 ulp for |x| < kSincosMaxRange; the
// dispatch-level kernel falls back to libm per lane beyond that.
constexpr float kSincosMaxRange = 8192.0f;

inline void sincos8(vec8f x, vec8f* s_out, vec8f* c_out) {
  const vec8f sign_mask = broadcast8(-0.0f);
  vec8f sign_sin = and8(x, sign_mask);
  x = andnot8(sign_mask, x);  // |x|

  // Octant index j = (trunc(|x| * 4/pi) + 1) & ~1, forced even.
  vec8i j = cvtt8(mul8(x, broadcast8(1.27323954473516f)));  // 4/pi
  j = addi8(j, 1);
  j = andi8(j, -2);
  const vec8f y = cvt8(j);

  // sin sign flips on octants 4..7; polynomial swaps on octants 2,3,6,7.
  const vec8f swap_sign_sin = casti8(slli8(andi8(j, 4), 29));
  const vec8f poly_mask = cmpeq0_8(andi8(j, 2));
  // cos sign: ((~(j - 2)) & 4) << 29
  const vec8f sign_cos = casti8(slli8(andnoti8(addi8(j, -2), 4), 29));
  sign_sin = xor8(sign_sin, swap_sign_sin);

  // Extended-precision reduction: x - y*pi/4 in three parts.
  x = fnmadd8(y, broadcast8(0.78515625f), x);
  x = fnmadd8(y, broadcast8(2.4187564849853515625e-4f), x);
  x = fnmadd8(y, broadcast8(3.77489497744594108e-8f), x);

  const vec8f z = mul8(x, x);
  // cos polynomial on z
  vec8f pc = broadcast8(2.443315711809948e-5f);
  pc = fmadd8(pc, z, broadcast8(-1.388731625493765e-3f));
  pc = fmadd8(pc, z, broadcast8(4.166664568298827e-2f));
  pc = mul8(mul8(pc, z), z);
  pc = fnmadd8(broadcast8(0.5f), z, add8(pc, broadcast8(1.0f)));
  // sin polynomial on z, times x
  vec8f ps = broadcast8(-1.9515295891e-4f);
  ps = fmadd8(ps, z, broadcast8(8.3321608736e-3f));
  ps = fmadd8(ps, z, broadcast8(-1.6666654611e-1f));
  ps = fmadd8(mul8(ps, z), x, x);

  const vec8f ysin = select8(poly_mask, ps, pc);
  const vec8f ycos = select8(poly_mask, pc, ps);
  *s_out = xor8(ysin, sign_sin);
  *c_out = xor8(ycos, sign_cos);
}

}  // inline namespace ADEPT_SIMD_ABI
}  // namespace adept::backend::simd
