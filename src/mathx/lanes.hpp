// Vector lanes for element-wise special-function kernels (private to
// gsx_mathx).
//
// A lane type L gives one algorithm three builds: PortableLanes (one double,
// plain C++), Avx2Lanes (4 doubles) and Avx512Lanes (8 doubles). It provides
//   L::V       a vector of L::W doubles, with + - * / and a broadcast
//              constructor from double;
//   L::M       a lane mask, from lt/gt, combined by and_not, tested by any;
//   L::load/store, L::select(m, a, b) (m ? a : b per lane), L::fma (a*b + c,
//   fused where the ISA has it), L::abs, L::sqrt, L::pow2i and L::frexp1.
// exp_lanes and log_lanes below are written once against that interface.
// Every operation is per lane, so a lane's bits depend only on its input and
// the ISA, never on its position in the vector.
//
// The AVX2/AVX-512 operations carry target attributes. Generic code that
// uses them must be reached from a function with the same target and the
// `flatten` attribute, which inlines the whole call tree into it; compiled
// on its own, such code would call each operation out of line. No vector
// crosses a call boundary, so GCC's note that passing AVX vectors changes the
// ABI of non-AVX functions (-Wpsabi) does not apply; src/mathx/CMakeLists.txt
// turns it off.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/isa.hpp"

#if GSX_X86_DISPATCH
#include <immintrin.h>
#endif

namespace gsx::mathx::lanes {

/// x + kShifter - kShifter rounds x to the nearest integer for |x| < 2^51.
inline constexpr double kShifter = 0x1.8p52;
/// Adding it to an integer-valued k leaves k + 1023 in the low bits of the
/// mantissa, which a left shift by 52 moves into the exponent field: 2^k.
inline constexpr double kPow2Bias = 0x1.8p52 + 1023.0;
/// OR-ing a biased exponent into the mantissa of 2^52 and subtracting this
/// yields the unbiased exponent as a double.
inline constexpr double kExpBias = 0x1p52 + 1023.0;
inline constexpr std::uint64_t kMantissaBits = 0x000FFFFFFFFFFFFFull;
inline constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;  // 1.0
inline constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ull;  // 2^52

struct PortableLanes {
  using V = double;
  using M = bool;
  static constexpr std::size_t W = 1;

  static V load(const double* p) { return *p; }
  static void store(double* p, V v) { *p = v; }
  static V fma(V a, V b, V c) { return a * b + c; }
  static V abs(V a) { return std::fabs(a); }
  static V sqrt(V a) { return std::sqrt(a); }
  static M lt(V a, V b) { return a < b; }
  static M gt(V a, V b) { return a > b; }
  static M and_not(M a, M b) { return a && !b; }
  static bool any(M m) { return m; }
  static V select(M m, V a, V b) { return m ? a : b; }
  /// 2^k for integer-valued k in [-1022, 1023].
  static V pow2i(V k) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(k + kPow2Bias) << 52);
  }
  /// x = m 2^e with m in [1, 2), for finite normal x > 0.
  static V frexp1(V x, V& e) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    e = std::bit_cast<double>((bits >> 52) | kTwo52Bits) - kExpBias;
    return std::bit_cast<double>((bits & kMantissaBits) | kOneBits);
  }
};

#if GSX_X86_DISPATCH

struct Avx2Lanes {
  struct V {
    __m256d v;
    V() = default;
    GSX_TARGET_AVX2 V(__m256d a) : v(a) {}
    GSX_TARGET_AVX2 V(double a) : v(_mm256_set1_pd(a)) {}
    GSX_TARGET_AVX2 friend V operator+(V a, V b) { return _mm256_add_pd(a.v, b.v); }
    GSX_TARGET_AVX2 friend V operator-(V a, V b) { return _mm256_sub_pd(a.v, b.v); }
    GSX_TARGET_AVX2 friend V operator*(V a, V b) { return _mm256_mul_pd(a.v, b.v); }
    GSX_TARGET_AVX2 friend V operator/(V a, V b) { return _mm256_div_pd(a.v, b.v); }
    GSX_TARGET_AVX2 friend V operator-(V a) { return _mm256_xor_pd(a.v, _mm256_set1_pd(-0.0)); }
  };
  using M = __m256d;
  static constexpr std::size_t W = 4;

  GSX_TARGET_AVX2 static V load(const double* p) { return _mm256_loadu_pd(p); }
  GSX_TARGET_AVX2 static void store(double* p, V v) { _mm256_storeu_pd(p, v.v); }
  GSX_TARGET_AVX2 static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a.v, b.v, c.v); }
  GSX_TARGET_AVX2 static V abs(V a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v); }
  GSX_TARGET_AVX2 static V sqrt(V a) { return _mm256_sqrt_pd(a.v); }
  GSX_TARGET_AVX2 static M lt(V a, V b) { return _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ); }
  GSX_TARGET_AVX2 static M gt(V a, V b) { return _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ); }
  GSX_TARGET_AVX2 static M and_not(M a, M b) { return _mm256_andnot_pd(b, a); }
  GSX_TARGET_AVX2 static bool any(M m) { return _mm256_movemask_pd(m) != 0; }
  GSX_TARGET_AVX2 static V select(M m, V a, V b) { return _mm256_blendv_pd(b.v, a.v, m); }
  GSX_TARGET_AVX2 static V pow2i(V k) {
    const __m256i t = _mm256_castpd_si256(_mm256_add_pd(k.v, _mm256_set1_pd(kPow2Bias)));
    return _mm256_castsi256_pd(_mm256_slli_epi64(t, 52));
  }
  GSX_TARGET_AVX2 static V frexp1(V x, V& e) {
    const __m256i bits = _mm256_castpd_si256(x.v);
    const __m256i eb = _mm256_or_si256(_mm256_srli_epi64(bits, 52),
                                       _mm256_set1_epi64x(static_cast<long long>(kTwo52Bits)));
    e = _mm256_sub_pd(_mm256_castsi256_pd(eb), _mm256_set1_pd(kExpBias));
    const __m256i mant =
        _mm256_and_si256(bits, _mm256_set1_epi64x(static_cast<long long>(kMantissaBits)));
    const __m256i mb = _mm256_or_si256(mant, _mm256_set1_epi64x(static_cast<long long>(kOneBits)));
    return _mm256_castsi256_pd(mb);
  }
};

// sqrt and the shifts use the maskz forms with a full mask: GCC 12 flags
// the unmasked forms' undefined pass-through operand as maybe-uninitialized.
struct Avx512Lanes {
  struct V {
    __m512d v;
    V() = default;
    GSX_TARGET_AVX512 V(__m512d a) : v(a) {}
    GSX_TARGET_AVX512 V(double a) : v(_mm512_set1_pd(a)) {}
    GSX_TARGET_AVX512 friend V operator+(V a, V b) { return _mm512_add_pd(a.v, b.v); }
    GSX_TARGET_AVX512 friend V operator-(V a, V b) { return _mm512_sub_pd(a.v, b.v); }
    GSX_TARGET_AVX512 friend V operator*(V a, V b) { return _mm512_mul_pd(a.v, b.v); }
    GSX_TARGET_AVX512 friend V operator/(V a, V b) { return _mm512_div_pd(a.v, b.v); }
    GSX_TARGET_AVX512 friend V operator-(V a) { return _mm512_xor_pd(a.v, _mm512_set1_pd(-0.0)); }
  };
  using M = __mmask8;
  static constexpr std::size_t W = 8;

  GSX_TARGET_AVX512 static V load(const double* p) { return _mm512_loadu_pd(p); }
  GSX_TARGET_AVX512 static void store(double* p, V v) { _mm512_storeu_pd(p, v.v); }
  GSX_TARGET_AVX512 static V fma(V a, V b, V c) { return _mm512_fmadd_pd(a.v, b.v, c.v); }
  GSX_TARGET_AVX512 static V abs(V a) { return _mm512_abs_pd(a.v); }
  GSX_TARGET_AVX512 static V sqrt(V a) { return _mm512_maskz_sqrt_pd(0xFF, a.v); }
  GSX_TARGET_AVX512 static M lt(V a, V b) { return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ); }
  GSX_TARGET_AVX512 static M gt(V a, V b) { return _mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ); }
  GSX_TARGET_AVX512 static M and_not(M a, M b) { return static_cast<M>(a & ~b); }
  GSX_TARGET_AVX512 static bool any(M m) { return m != 0; }
  GSX_TARGET_AVX512 static V select(M m, V a, V b) { return _mm512_mask_blend_pd(m, b.v, a.v); }
  GSX_TARGET_AVX512 static V pow2i(V k) {
    const __m512i t = _mm512_castpd_si512(_mm512_add_pd(k.v, _mm512_set1_pd(kPow2Bias)));
    return _mm512_castsi512_pd(_mm512_maskz_slli_epi64(0xFF, t, 52));
  }
  GSX_TARGET_AVX512 static V frexp1(V x, V& e) {
    const __m512i bits = _mm512_castpd_si512(x.v);
    const __m512i eb = _mm512_or_si512(_mm512_maskz_srli_epi64(0xFF, bits, 52),
                                       _mm512_set1_epi64(static_cast<long long>(kTwo52Bits)));
    e = _mm512_sub_pd(_mm512_castsi512_pd(eb), _mm512_set1_pd(kExpBias));
    const __m512i mant =
        _mm512_and_si512(bits, _mm512_set1_epi64(static_cast<long long>(kMantissaBits)));
    const __m512i mb = _mm512_or_si512(mant, _mm512_set1_epi64(static_cast<long long>(kOneBits)));
    return _mm512_castsi512_pd(mb);
  }
};

#endif  // GSX_X86_DISPATCH

// ------------------------------------------------- elementary functions

inline constexpr double kLog2e = 1.44269504088896340736;
// ln 2 split so that k * kLn2Hi is exact for |k| < 2^20.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

/// exp(a) = 2^k (1 + pm) with k integer-valued and pm = expm1(a - k ln 2),
/// for |a| <= 1100. pm keeps full relative accuracy as a -> 0, so
/// 2^k pm + (2^k - 1) is expm1(a) without cancellation.
template <class L>
struct ExpParts {
  typename L::V k, pm;
};

template <class L>
ExpParts<L> exp_reduce(typename L::V a) {
  using V = typename L::V;
  const V k = L::fma(a, V(kLog2e), V(kShifter)) - V(kShifter);
  V r = L::fma(-k, V(kLn2Hi), a);
  r = L::fma(-k, V(kLn2Lo), r);
  // expm1 on |r| <= ln2/2 by its Taylor series through r^13: the first
  // omitted term is below 1.2e-17 relative. q holds the series from r^2 on,
  // divided by r^2.
  V q = L::fma(V(1.0 / 6227020800.0), r, V(1.0 / 479001600.0));
  q = L::fma(q, r, V(1.0 / 39916800.0));
  q = L::fma(q, r, V(1.0 / 3628800.0));
  q = L::fma(q, r, V(1.0 / 362880.0));
  q = L::fma(q, r, V(1.0 / 40320.0));
  q = L::fma(q, r, V(1.0 / 5040.0));
  q = L::fma(q, r, V(1.0 / 720.0));
  q = L::fma(q, r, V(1.0 / 120.0));
  q = L::fma(q, r, V(1.0 / 24.0));
  q = L::fma(q, r, V(1.0 / 6.0));
  q = L::fma(q, r, V(0.5));
  return {k, L::fma(r * r, q, r)};
}

/// exp(a) for any a: 0 below -1100 (after gradual underflow), +inf above 710,
/// NaN for NaN. 2^k is applied as two factors, each in the normal range, so
/// that a result in the subnormal range is rounded once.
template <class L>
typename L::V exp_lanes(typename L::V a) {
  using V = typename L::V;
  a = L::select(L::lt(a, V(-1100.0)), V(-1100.0), a);
  a = L::select(L::gt(a, V(710.0)), V(710.0), a);
  const ExpParts<L> p = exp_reduce<L>(a);
  const V k1 = (V(0.5) * p.k + V(kShifter)) - V(kShifter);
  return ((V(1.0) + p.pm) * L::pow2i(k1)) * L::pow2i(p.k - k1);
}

/// Natural logarithm for finite x > 0 (subnormals included), by fdlibm's
/// reduction to m in [sqrt(2)/2, sqrt(2)) and its minimax series in
/// s = (m - 1)/(m + 1); below 1 ulp.
template <class L>
typename L::V log_lanes(typename L::V x) {
  using V = typename L::V;
  const typename L::M tiny = L::lt(x, V(std::numeric_limits<double>::min()));
  x = L::select(tiny, x * V(0x1p54), x);
  V e;
  V m = L::frexp1(x, e);
  e = L::select(tiny, e - V(54.0), e);
  const typename L::M big = L::gt(m, V(1.41421356237309504880));
  m = L::select(big, V(0.5) * m, m);
  e = L::select(big, e + V(1.0), e);
  const V f = m - V(1.0);
  const V s = f / (V(2.0) + f);
  const V z = s * s;
  const V w = z * z;
  const V t1 = w * (V(3.999999999940941908e-01) +
                    w * (V(2.222219843214978396e-01) + w * V(1.531383769920937332e-01)));
  const V t2 =
      z * (V(6.666666666666735130e-01) +
           w * (V(2.857142874366239149e-01) +
                w * (V(1.818357216161805012e-01) + w * V(1.479819860511658591e-01))));
  const V hfsq = V(0.5) * f * f;
  return e * V(kLn2Hi) - ((hfsq - (s * (hfsq + (t1 + t2)) + e * V(kLn2Lo))) - f);
}

}  // namespace gsx::mathx::lanes
