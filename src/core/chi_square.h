#ifndef SIGSUB_CORE_CHI_SQUARE_H_
#define SIGSUB_CORE_CHI_SQUARE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// Precomputed evaluation context for the Pearson X² statistic of
/// substrings under a fixed multinomial null model P. Holds 1/p_i so the
/// hot loop is multiply-only. Scanners evaluate through core::X2Kernel
/// (x2_kernel.h), which runs this class's summation order bit for bit.
///
/// X²(S[i..j)) = Σ_c Y_c² / (l·p_c) − l,  l = j − i  (paper Eq. 5).
class ChiSquareContext {
 public:
  /// Builds from a validated model.
  explicit ChiSquareContext(const seq::MultinomialModel& model);

  /// Builds from raw probabilities (validated).
  static Result<ChiSquareContext> Make(std::vector<double> probs);

  int alphabet_size() const { return static_cast<int>(probs_.size()); }
  std::span<const double> probs() const { return probs_; }
  std::span<const double> inv_probs() const { return inv_probs_; }

  /// X² of a count vector with total length l = Σ counts. Requires
  /// counts.size() == alphabet_size(). Returns 0 when l == 0.
  ///
  /// Reference implementation: together with PrefixCounts::FillCounts this
  /// is the legacy two-pass evaluation the fused kernel is gated against
  /// (bench/x2_kernel.cc). Hot paths use core::X2Kernel instead.
  double Evaluate(std::span<const int64_t> counts, int64_t l) const;

  /// X² of the substring [start, end) using prefix counts; O(k).
  /// Reference implementation — see Evaluate.
  double EvaluateRange(const seq::PrefixCounts& counts, int64_t start,
                       int64_t end) const;

  /// Incremental left-to-right evaluator: fix a start position, then extend
  /// the end one symbol at a time in O(1) per step. Used by the trivial
  /// scanner and the blocked scanner.
  ///
  /// Maintains ws = Σ_c Y_c²/p_c, so X² = ws/l − l, and the update for
  /// appending symbol c is ws += (2·Y_c + 1)/p_c.
  class Incremental {
   public:
    explicit Incremental(const ChiSquareContext& context)
        : context_(&context),
          counts_(context.alphabet_size(), 0) {}

    /// Resets to the empty substring.
    void Reset();

    /// Extends the substring by one occurrence of `symbol`.
    void Extend(uint8_t symbol);

    int64_t length() const { return length_; }
    double chi_square() const {
      if (length_ == 0) return 0.0;
      double dl = static_cast<double>(length_);
      return weighted_sum_ / dl - dl;
    }
    std::span<const int64_t> counts() const { return counts_; }

   private:
    const ChiSquareContext* context_;
    std::vector<int64_t> counts_;
    double weighted_sum_ = 0.0;
    int64_t length_ = 0;
  };

 private:
  explicit ChiSquareContext(std::vector<double> probs);

  std::vector<double> probs_;
  std::vector<double> inv_probs_;
};

/// The check every (sequence, model) entry point runs first: the sequence
/// is non-empty and its alphabet size matches the model's.
Status ValidateSequenceModel(const seq::Sequence& sequence,
                             const seq::MultinomialModel& model);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_CHI_SQUARE_H_
