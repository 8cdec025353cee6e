#include "core/x2_kernel.h"

namespace sigsub {
namespace core {
namespace {

/// Generic scalar fused kernel. The accumulation order (c = 0..k−1, one
/// multiply-add per symbol) matches ChiSquareContext::Evaluate exactly, so
/// the result is bit-identical to the legacy FillCounts + Evaluate pair:
/// the int64 subtraction commutes with the double cast, and IEEE
/// arithmetic is deterministic for a fixed operation sequence.
double X2RangeScalar(const int64_t* lo, const int64_t* hi,
                     const double* inv_probs, int k, double l) {
  double sum = 0.0;
  for (int c = 0; c < k; ++c) {
    double y = static_cast<double>(hi[c] - lo[c]);
    sum += y * y * inv_probs[c];
  }
  return sum / l - l;
}

/// Fixed-k scalar specialization: the trip count is a compile-time
/// constant, so the compiler fully unrolls and keeps the accumulation
/// chain in registers. Same operation order as the generic loop —
/// bit-identical results.
template <int K>
double X2RangeScalarFixed(const int64_t* lo, const int64_t* hi,
                          const double* inv_probs, int /*k*/, double l) {
  double sum = 0.0;
  for (int c = 0; c < K; ++c) {
    double y = static_cast<double>(hi[c] - lo[c]);
    sum += y * y * inv_probs[c];
  }
  return sum / l - l;
}

X2RangeFn ScalarFnForK(int k) {
  switch (k) {
    case 2:
      return &X2RangeScalarFixed<2>;
    case 4:
      return &X2RangeScalarFixed<4>;
    case 8:
      return &X2RangeScalarFixed<8>;
    default:
      return &X2RangeScalar;
  }
}

#if defined(SIGSUB_X2_AVX2)
X2RangeFn SimdFnForK(int k) {
  switch (k) {
    case 4:
      return &internal::X2RangeAvx2K4;
    case 8:
      return &internal::X2RangeAvx2K8;
    default:
      return &internal::X2RangeAvx2;
  }
}
#endif

}  // namespace

const int64_t* X2Kernel::ZeroBlock() {
  static const int64_t kZeros[kMaxAlphabet] = {};
  return kZeros;
}

const char* X2DispatchName(X2Dispatch dispatch) {
  switch (dispatch) {
    case X2Dispatch::kAuto:
      return "auto";
    case X2Dispatch::kScalar:
      return "scalar";
    case X2Dispatch::kSimd:
      return "simd";
  }
  return "auto";
}

bool ParseX2Dispatch(std::string_view name, X2Dispatch* out) {
  if (name == "auto") {
    *out = X2Dispatch::kAuto;
  } else if (name == "scalar") {
    *out = X2Dispatch::kScalar;
  } else if (name == "simd") {
    *out = X2Dispatch::kSimd;
  } else {
    return false;
  }
  return true;
}

bool SimdAvailable() {
#if defined(SIGSUB_X2_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace internal {

X2RangeFn ResolveX2RangeFn(int k, X2Dispatch dispatch, bool* simd_active) {
  // kAuto picks the fastest available path. Below k = 4 a vector holds
  // the whole count block and the lane setup outweighs the reduction, so
  // auto keeps the (bit-stable) scalar specialization for binary/ternary
  // alphabets.
  bool want_simd = dispatch == X2Dispatch::kSimd ||
                   (dispatch == X2Dispatch::kAuto && k >= 4);
#if defined(SIGSUB_X2_AVX2)
  if (want_simd && SimdAvailable()) {
    if (simd_active != nullptr) *simd_active = true;
    return SimdFnForK(k);
  }
#else
  (void)want_simd;
#endif
  if (simd_active != nullptr) *simd_active = false;
  return ScalarFnForK(k);
}

X2EndsFn ResolveX2BatchFn(int k) {
#if defined(SIGSUB_X2_AVX2)
  if (k == 2 && SimdAvailable()) return &X2EndsAvx2K2;
#else
  (void)k;
#endif
  return nullptr;
}

}  // namespace internal

}  // namespace core
}  // namespace sigsub
