#ifndef SIGSUB_SEQ_PREFIX_COUNTS_H_
#define SIGSUB_SEQ_PREFIX_COUNTS_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "seq/sequence.h"

namespace sigsub {
namespace seq {

/// The k count arrays of the paper (Section 2): PrefixCount(c, i) is the
/// number of occurrences of symbol c in S[0, i). Built in O(k·n), answers
/// any substring count query in O(1) per character, which is what makes
/// each examined position of the MSS scan O(k) instead of O(length).
///
/// Storage is a single flat position-major buffer, counts_[pos * k + c]:
/// the k counts of one prefix are adjacent, so a FillCounts(start, end)
/// touches exactly two contiguous k-wide blocks (two cache lines for
/// k <= 8) and the subtraction loop vectorizes. The former layout — k
/// separate rows of n+1 entries — cost k strided cache misses per fill.
class PrefixCounts {
 public:
  explicit PrefixCounts(const Sequence& sequence);

  /// Chunk-streamed construction over raw (e.g. memory-mapped) bytes:
  /// `decode` maps each byte to its symbol id, with 0xFF marking bytes
  /// outside the alphabet (io::kInvalidByte; rejected with the offending
  /// offset). Equivalent to decoding the bytes into a Sequence and using
  /// the constructor above, but never materializes the decoded copy —
  /// the transient working set is one chunk of the source plus the counts
  /// buffer being filled.
  static Result<PrefixCounts> FromBytes(std::span<const uint8_t> bytes,
                                        const std::array<uint8_t, 256>& decode,
                                        int alphabet_size);

  int alphabet_size() const { return alphabet_size_; }
  int64_t sequence_size() const { return n_; }

  /// Occurrences of `symbol` in S[0, pos), 0 <= pos <= n.
  int64_t PrefixCount(int symbol, int64_t pos) const {
    SIGSUB_DCHECK(symbol >= 0 && symbol < alphabet_size_);
    SIGSUB_DCHECK(pos >= 0 && pos <= n_);
    return counts_[static_cast<size_t>(pos) *
                       static_cast<size_t>(alphabet_size_) +
                   static_cast<size_t>(symbol)];
  }

  /// Occurrences of `symbol` in S[start, end).
  int64_t CountInRange(int symbol, int64_t start, int64_t end) const {
    SIGSUB_DCHECK(start >= 0 && start <= end && end <= n_);
    return PrefixCount(symbol, end) - PrefixCount(symbol, start);
  }

  /// Fills `out` (size k) with the count vector of S[start, end).
  ///
  /// Reference/API surface: hot scan loops no longer call this — they read
  /// the two blocks directly through BlockAt via core::X2Kernel and the
  /// SkipSolver block overloads, fusing the subtraction into the reduction.
  void FillCounts(int64_t start, int64_t end, std::span<int64_t> out) const;

  /// Raw position-major block: BlockAt(pos)[c] == PrefixCount(c, pos),
  /// valid for c in [0, k). The count vector of S[start, end) is the
  /// element-wise difference BlockAt(end) − BlockAt(start); fused kernels
  /// consume the two pointers without materializing the difference.
  const int64_t* BlockAt(int64_t pos) const {
    SIGSUB_DCHECK(pos >= 0 && pos <= n_);
    return counts_.data() +
           static_cast<size_t>(pos) * static_cast<size_t>(alphabet_size_);
  }

 private:
  PrefixCounts(int alphabet_size, int64_t n)
      : alphabet_size_(alphabet_size), n_(n) {}

  int alphabet_size_;
  int64_t n_;
  std::vector<int64_t> counts_;  // (n+1) position-major blocks of k.
};

}  // namespace seq
}  // namespace sigsub

#endif  // SIGSUB_SEQ_PREFIX_COUNTS_H_
