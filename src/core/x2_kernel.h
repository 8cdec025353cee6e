#ifndef SIGSUB_CORE_X2_KERNEL_H_
#define SIGSUB_CORE_X2_KERNEL_H_

#include <cstdint>
#include <span>

#include "common/check.h"
#include "core/chi_square.h"
#include "seq/grid.h"
#include "seq/prefix_counts.h"

namespace sigsub {
namespace core {

/// Fused X² evaluation over seq::PrefixCounts — the per-candidate kernel
/// of every scanner (paper Algorithm 1 / Eq. 5 cost model: read two
/// prefix blocks, reduce Σ Y_c²/p_c).
///
/// The legacy shape, counts.FillCounts(i, end, scratch) followed by
/// context.Evaluate(scratch, l), pays two k-wide loads, a k-wide store
/// into heap scratch, then a k-wide reload and reduce. This kernel fuses
/// the subtraction and reduction into one pass over the two position-major
/// blocks: no scratch vector exists anywhere in the scan.
///
/// There is one summation order, the scalar left-to-right one of
/// ChiSquareContext::Evaluate (see Reduce), so every X² value is
/// bit-identical on every host. The only vector code is the batched
/// k = 2 form of EvaluateEnds, whose lanes run that same order.
///
/// Scratch-buffer convention: scanner kernels must not allocate per-call
/// heap scratch on their hot paths. Count vectors are never materialized —
/// evaluation goes through this kernel and skip solving through the
/// SkipSolver block/rect overloads, both reading prefix blocks directly.
/// Where a scan genuinely needs an output-sized buffer (e.g. the batched
/// EvaluateEnds below), the buffer is owned by the caller and reused
/// across the scan, sized once up front — never reallocated per position.
class X2Kernel {
 public:
  /// Picks the batched k = 2 twin on an AVX2 CPU. Cheap: no allocation.
  explicit X2Kernel(const ChiSquareContext& context);

  /// X² from two raw position-major blocks (counts.BlockAt). The inner-
  /// loop entry point: scanners hoist the start block pointer and stream
  /// endpoint blocks through this.
  double EvaluateBlocks(const int64_t* start_block, const int64_t* end_block,
                        int64_t l) const {
    if (l == 0) return 0.0;
    return Reduce(start_block, end_block, static_cast<double>(l));
  }

  /// X² of a raw window-count block (counts[c] = occurrences of symbol c
  /// in a window of length l) — the streaming-detector entry point, where
  /// windows are maintained as live counters rather than prefix
  /// differences. Implemented as EvaluateBlocks against a shared all-zero
  /// start block, so it runs the same function as the offline scanners
  /// and is bit-identical to ChiSquareContext::Evaluate(counts, l). Symbol
  /// alphabets are byte-coded, so k <= 256 by construction (DCHECKed).
  double EvaluateCounts(const int64_t* counts, int64_t l) const {
    SIGSUB_DCHECK(k_ <= kMaxAlphabet);
    return EvaluateBlocks(ZeroBlock(), counts, l);
  }

  /// X² of S[start, end).
  double EvaluateRange(const seq::PrefixCounts& counts, int64_t start,
                       int64_t end) const {
    SIGSUB_DCHECK(counts.alphabet_size() == k_);
    return EvaluateBlocks(counts.BlockAt(start), counts.BlockAt(end),
                          end - start);
  }

  /// Batched form: pins the start block once and streams the endpoint
  /// blocks — the shape of the ARLM scan (every later run boundary is an
  /// end) and of the blocked scan's dense blocks (consecutive ends).
  /// out[i] = X²(S[start, ends[i])), 0.0 where ends[i] == start. `out` is
  /// a caller-owned buffer (see the scratch convention above) with
  /// out.size() >= ends.size().
  ///
  /// At k = 2 on an AVX2 CPU four ends share one vector (X2EndsAvx2K2);
  /// the 0–3 ends past the last full vector, and every end elsewhere, go
  /// through the per-end function. Each lane runs the per-end function's
  /// exact operation order, with no FMA contraction, so out[i] is
  /// bit-identical to EvaluateRange(counts, start, ends[i]) on every
  /// host.
  void EvaluateEnds(const seq::PrefixCounts& counts, int64_t start,
                    std::span<const int64_t> ends,
                    std::span<double> out) const {
    SIGSUB_DCHECK(counts.alphabet_size() == k_);
    SIGSUB_DCHECK(out.size() >= ends.size());
    const int64_t size = static_cast<int64_t>(ends.size());
    int64_t i = 0;
    if (batch_ != nullptr) {
      i = size & ~int64_t{3};
      batch_(counts.BlockAt(0), start, ends.data(), i, inv_probs_,
             out.data());
    }
    const int64_t* lo = counts.BlockAt(start);
    for (; i < size; ++i) {
      int64_t l = ends[i] - start;
      out[i] = l == 0 ? 0.0
                      : Reduce(lo, counts.BlockAt(ends[i]),
                               static_cast<double>(l));
    }
  }

  /// X² of the rectangle [r0, r1) × [c0, c1) of a grid, fused over the
  /// per-symbol planes (no scratch). The grid layout is plane-per-symbol,
  /// so this is always the scalar reduction; it exists so the 2-D scan
  /// follows the same no-scratch convention as the 1-D scans.
  double EvaluateRect(const seq::GridPrefixCounts& counts, int64_t r0,
                      int64_t r1, int64_t c0, int64_t c1) const {
    SIGSUB_DCHECK(counts.alphabet_size() == k_);
    int64_t l = (r1 - r0) * (c1 - c0);
    if (l == 0) return 0.0;
    double sum = 0.0;
    for (int c = 0; c < k_; ++c) {
      double y = static_cast<double>(counts.CountInRect(c, r0, r1, c0, c1));
      sum += y * y * inv_probs_[c];
    }
    double dl = static_cast<double>(l);
    return sum / dl - dl;
  }

  /// As above, but also stores the gathered count vector into the
  /// caller-owned `counts_out` (size k; see the scratch convention above)
  /// in the same pass. For scans that feed the counts to the SkipSolver
  /// afterwards: the 4-lookup-per-symbol rectangle gather happens once
  /// per candidate instead of once per consumer.
  double EvaluateRect(const seq::GridPrefixCounts& counts, int64_t r0,
                      int64_t r1, int64_t c0, int64_t c1,
                      std::span<int64_t> counts_out) const {
    SIGSUB_DCHECK(counts.alphabet_size() == k_);
    SIGSUB_DCHECK(static_cast<int>(counts_out.size()) == k_);
    int64_t l = (r1 - r0) * (c1 - c0);
    double sum = 0.0;
    for (int c = 0; c < k_; ++c) {
      int64_t y = counts.CountInRect(c, r0, r1, c0, c1);
      counts_out[c] = y;
      double dy = static_cast<double>(y);
      sum += dy * dy * inv_probs_[c];
    }
    if (l == 0) return 0.0;
    double dl = static_cast<double>(l);
    return sum / dl - dl;
  }

  int alphabet_size() const { return k_; }

 private:
  static constexpr int kMaxAlphabet = 256;  // Byte-coded symbols.

  /// (Σ_c (hi[c] − lo[c])² · inv_probs[c]) / l − l over two
  /// position-major k-blocks, for l = end − start >= 1. The accumulation
  /// order (c = 0..k−1, one multiply-add per symbol) is
  /// ChiSquareContext::Evaluate's, so the result is bit-identical to it:
  /// the int64 subtraction commutes with the double cast, and IEEE
  /// arithmetic is deterministic for a fixed operation sequence. K > 0
  /// fixes the trip count, so the compiler unrolls the loop and keeps the
  /// chain in registers (k ∈ {2, 4, 8}: binary stock/sports encodings,
  /// DNA, bytes-in-octal); K = 0 reads k_. Every K runs the same order.
  template <int K>
  double ReduceFixed(const int64_t* lo, const int64_t* hi, double l) const {
    const int k = K > 0 ? K : k_;
    double sum = 0.0;
    for (int c = 0; c < k; ++c) {
      double y = static_cast<double>(hi[c] - lo[c]);
      sum += y * y * inv_probs_[c];
    }
    return sum / l - l;
  }

  double Reduce(const int64_t* lo, const int64_t* hi, double l) const {
    switch (k_) {
      case 2:
        return ReduceFixed<2>(lo, hi, l);
      case 4:
        return ReduceFixed<4>(lo, hi, l);
      case 8:
        return ReduceFixed<8>(lo, hi, l);
      default:
        return ReduceFixed<0>(lo, hi, l);
    }
  }

  /// Four ends per vector: out[j] = X²(S[start, ends[j])) for j in
  /// [0, count), count a multiple of 4, and 0.0 where ends[j] == start.
  /// `base` is counts.BlockAt(0), so end e's block is base + e·k.
  using EndsFn = void (*)(const int64_t* base, int64_t start,
                          const int64_t* ends, int64_t count,
                          const double* inv_probs, double* out);

  /// Shared k-wide (<= 256) block of zeros backing EvaluateCounts.
  static const int64_t* ZeroBlock();

  const double* inv_probs_;
  int k_;
  EndsFn batch_ = nullptr;  // Set only where a batched twin runs.
};

/// True when the batched k = 2 twin is compiled into this binary AND the
/// CPU supports it (AVX2 on x86-64). It changes speed, never bits.
bool SimdAvailable();

namespace internal {

/// The batched twin of X2Kernel::ReduceFixed<2> (an X2Kernel::EndsFn),
/// defined in x2_kernel_avx2.cc only when the build enables
/// SIGSUB_X2_AVX2 (CMake probes the compiler for -mavx2). Callers must
/// first check SimdAvailable(): the TU is compiled for AVX2, so it may
/// only execute on a CPU that reports the feature. Counts must be < 2^52
/// (the int64 → double conversion uses the 2^52 bias trick; counts are
/// bounded by the sequence length).
void X2EndsAvx2K2(const int64_t* base, int64_t start, const int64_t* ends,
                  int64_t count, const double* inv_probs, double* out);

}  // namespace internal

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_X2_KERNEL_H_
