#include "core/x2_kernel.h"

namespace sigsub {
namespace core {

const int64_t* X2Kernel::ZeroBlock() {
  static const int64_t kZeros[kMaxAlphabet] = {};
  return kZeros;
}

bool SimdAvailable() {
#if defined(SIGSUB_X2_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

X2Kernel::X2Kernel(const ChiSquareContext& context)
    : inv_probs_(context.inv_probs().data()),
      k_(context.alphabet_size()) {
#if defined(SIGSUB_X2_AVX2)
  // The scalar specialization and the twin share one order,
  // ((0 + y0²·w0) + y1²·w1)/l − l, so the twin changes speed, not bits.
  if (k_ == 2 && SimdAvailable()) batch_ = &internal::X2EndsAvx2K2;
#endif
}

}  // namespace core
}  // namespace sigsub
