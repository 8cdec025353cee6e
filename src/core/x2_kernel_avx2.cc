// AVX2 implementation of the batched k = 2 X² twin. This translation
// unit is the only one in the library compiled with -mavx2 (see
// CMakeLists.txt), so AVX2 instructions cannot leak into code that runs
// before the runtime CPU check: the X2Kernel constructor hands the twin
// out only when SimdAvailable(). Its lanes reproduce the scalar order, so
// it changes speed, not bits. The TU gets -mavx2 and no -mfma: a fused
// multiply-add would round y·y·w once instead of twice, and the batched
// twin must reproduce the per-end function bit for bit.
//
// Counts are converted int64 → double with the 2^52 bias trick
// (AVX2 has no native int64 → double conversion; that arrived with
// AVX-512DQ): for 0 <= v < 2^52, OR-ing v into the mantissa of the double
// 2^52 and subtracting 2^52 yields exactly double(v). Substring counts are
// bounded by the sequence length, so the precondition only excludes
// petabyte-scale inputs (documented on X2EndsAvx2K2).

#if defined(SIGSUB_X2_AVX2)

#include <cstdint>
#include <immintrin.h>

namespace sigsub {
namespace core {
namespace internal {
namespace {

inline __m256d CountsToDouble(__m256i v) {
  const __m256i kBias = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v, kBias)),
                       _mm256_castsi256_pd(kBias));
}

/// Zeroes the lanes whose length is 0 (ends[j] == start), where the
/// per-end form short-circuits to 0.0 instead of dividing by l.
inline __m256d ZeroEmptyLanes(__m256d x2, __m256i lengths) {
  __m256i empty = _mm256_cmpeq_epi64(lengths, _mm256_setzero_si256());
  return _mm256_andnot_pd(_mm256_castsi256_pd(empty), x2);
}

inline __m128i LoadBlock2(const int64_t* block) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(block));
}

}  // namespace

void X2EndsAvx2K2(const int64_t* base, int64_t start, const int64_t* ends,
                  int64_t count, const double* inv_probs, double* out) {
  const __m256i lo = _mm256_broadcastsi128_si256(LoadBlock2(base + 2 * start));
  const __m256d w0 = _mm256_set1_pd(inv_probs[0]);
  const __m256d w1 = _mm256_set1_pd(inv_probs[1]);
  for (int64_t j = 0; j < count; j += 4) {
    const int64_t* e = ends + j;
    __m256i a = _mm256_inserti128_si256(
        _mm256_castsi128_si256(LoadBlock2(base + 2 * e[0])),
        LoadBlock2(base + 2 * e[2]), 1);
    __m256i b = _mm256_inserti128_si256(
        _mm256_castsi128_si256(LoadBlock2(base + 2 * e[1])),
        LoadBlock2(base + 2 * e[3]), 1);
    __m256i lengths = _mm256_sub_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(e)),
        _mm256_set1_epi64x(start));
    // Unpacking the ends-0|2 and ends-1|3 pairs puts every end's y0 and y1
    // in lane order; each lane then runs the scalar order
    // ((0 + y0·y0·w0) + y1·y1·w1)/l − l.
    __m256d ya = CountsToDouble(_mm256_sub_epi64(a, lo));
    __m256d yb = CountsToDouble(_mm256_sub_epi64(b, lo));
    __m256d y0 = _mm256_unpacklo_pd(ya, yb);
    __m256d y1 = _mm256_unpackhi_pd(ya, yb);
    __m256d sum = _mm256_add_pd(_mm256_setzero_pd(),
                                _mm256_mul_pd(_mm256_mul_pd(y0, y0), w0));
    sum = _mm256_add_pd(sum, _mm256_mul_pd(_mm256_mul_pd(y1, y1), w1));
    __m256d l = CountsToDouble(lengths);
    __m256d x2 = _mm256_sub_pd(_mm256_div_pd(sum, l), l);
    _mm256_storeu_pd(out + j, ZeroEmptyLanes(x2, lengths));
  }
}

}  // namespace internal
}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_X2_AVX2
