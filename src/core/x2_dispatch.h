#ifndef SIGSUB_CORE_X2_DISPATCH_H_
#define SIGSUB_CORE_X2_DISPATCH_H_

#include <cstdint>
#include <string_view>

namespace sigsub {
namespace core {

/// Which implementation of the fused X² range kernel a ChiSquareContext
/// resolves at build time (see x2_kernel.h for the kernel itself):
///
///   kAuto   — the fastest available path: AVX2 when the binary and CPU
///             support it and k >= 4, else the scalar path.
///   kScalar — the scalar fused order, bit-identical to the legacy
///             FillCounts + Evaluate pair. Pin this for reproducibility
///             audits that must match archived X² values bit for bit.
///             The pin fixes the bits, not the instructions: at k = 2 the
///             batched X2Kernel::EvaluateEnds runs that same order four
///             ends per AVX2 vector under kAuto and kScalar alike (see
///             ResolveX2BatchFn).
///   kSimd   — the SIMD path when compiled in and supported by the CPU
///             (silently falls back to scalar otherwise). X² values can
///             differ from scalar in the last bits (different summation
///             order); relative error is <= 1e-12.
enum class X2Dispatch {
  kAuto = 0,
  kScalar = 1,
  kSimd = 2,
};

/// Stable lowercase name: "auto", "scalar", "simd".
const char* X2DispatchName(X2Dispatch dispatch);

/// Inverse of X2DispatchName; returns false on unknown names.
bool ParseX2Dispatch(std::string_view name, X2Dispatch* out);

/// True when the SIMD kernel is compiled into this binary AND the CPU
/// supports it (AVX2 on x86-64).
bool SimdAvailable();

/// Fused X² range kernel over two position-major k-blocks of prefix
/// counts: returns sum_c ((hi[c] − lo[c])² · inv_probs[c]) / l − l.
/// Preconditions: l = end − start >= 1 (callers short-circuit l == 0) and
/// every count < 2^52 (the AVX2 path converts int64 counts to double with
/// the 2^52 bias trick; counts are bounded by the sequence length, so this
/// only excludes petabyte-scale sequences).
using X2RangeFn = double (*)(const int64_t* lo, const int64_t* hi,
                             const double* inv_probs, int k, double l);

/// Batched twin of an X2RangeFn, four ends per vector: out[j] =
/// X²(S[start, ends[j])) for j in [0, count), count a multiple of 4, and
/// 0.0 where ends[j] == start. `base` is the block of position 0
/// (counts.BlockAt(0)), so end e's block is base + e·k. Each lane runs the
/// exact operation sequence of the X2RangeFn it twins, so every out[j] is
/// bit-identical to it.
using X2EndsFn = void (*)(const int64_t* base, int64_t start,
                          const int64_t* ends, int64_t count,
                          const double* inv_probs, double* out);

namespace internal {

/// Resolves the kernel for alphabet size `k` under `dispatch`: fixed-k
/// specializations for k ∈ {2, 4, 8}, SIMD when requested/available, the
/// generic scalar loop otherwise. Sets *simd_active to whether the chosen
/// function is the SIMD path. Defined in x2_kernel.cc.
X2RangeFn ResolveX2RangeFn(int k, X2Dispatch dispatch, bool* simd_active);

/// The batched twin of the function ResolveX2RangeFn chose for `k`, or
/// nullptr where none exists. There is one: k = 2, where the scalar
/// specialization and the generic AVX2 function (all tail) share one
/// order, ((0 + y0²·w0) + y1²·w1)/l − l, so it serves both dispatches.
/// It needs AVX2 on the CPU, so non-AVX2 builds and CPUs get nullptr.
X2EndsFn ResolveX2BatchFn(int k);

}  // namespace internal

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_X2_DISPATCH_H_
