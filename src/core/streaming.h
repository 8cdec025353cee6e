#ifndef SIGSUB_CORE_STREAMING_H_
#define SIGSUB_CORE_STREAMING_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/chi_square.h"
#include "core/x2_kernel.h"
#include "seq/model.h"

namespace sigsub {
namespace core {

/// The widest Options::max_window, a 16 MiB ring: Make() allocates
/// max_window + 1 bytes, so a hostile window cannot exhaust the process.
inline constexpr int64_t kMaxWindow = int64_t{1} << 24;

/// Online anomaly monitor for the intrusion-detection / monitoring
/// applications the paper motivates (Section 1): symbols arrive in chunks
/// (or one at a time) and the detector flags suffix windows whose X²
/// exceeds a statistically calibrated threshold.
///
/// After each symbol the detector evaluates the suffix windows of dyadic
/// lengths 1, 2, 4, ..., max_window (plus max_window itself), O(k·log W)
/// work per symbol with O(W + k·log W) memory (a byte ring of the last W
/// symbols plus one k-wide counter block per scale). Coverage rationale:
/// any anomalous interval of length L is contained in the dyadic suffix of
/// length 2^⌈lg L⌉ evaluated at the interval's last position, which dilutes
/// its composition by at most a factor ~2 in length — so a planted anomaly
/// strong enough to clear ~2× dilution is guaranteed to be seen. For exact
/// offline mining use FindAboveThreshold.
///
/// Calibration: `Options::alpha` is the per-position family-wise false-
/// alarm probability across all monitored scales. It is converted once at
/// Make() time into a per-scale X² threshold via the χ²(k−1) quantile
/// (paper Theorem 3: X² of an l-window converges to χ²(k−1)) with a Šidák
/// correction across the m ≈ log₂ W scales: α_scale = 1 − (1−α)^{1/m}.
/// Overlapping windows at successive positions are positively dependent,
/// so the realized alarm rate on a null stream is at or below α per
/// position; the very short scales are discrete and cannot reach deep
/// thresholds at all, which makes the calibration conservative.
///
/// Hysteresis: a sustained anomaly would otherwise alarm at every position
/// while it stays inside a window. After a scale alarms it is silenced
/// until its X² falls below `rearm_fraction · threshold`, so one excursion
/// yields one alarm per scale. `rearm_fraction >= 1` effectively disables
/// hysteresis (every above-threshold position alarms), which is what a
/// false-positive-rate measurement wants.
///
/// Hot path: each scale's window counts live in one position-major k-block
/// of a flat buffer and are scored through the fused X² kernel the
/// offline scanners use (core::X2Kernel::EvaluateCounts), so per-symbol
/// scoring is bit-identical to ChiSquareContext::Evaluate.
///
/// AppendChunk() amortizes ring maintenance and walks the chunk one scale
/// at a time. Within a chunk each scale maintains its weighted sum
/// ws = Σ Y_c²/p_c incrementally — O(1) per slide (append symbol a:
/// ws += (2Y_a+1)/p_a; expire b: ws −= (2Y_b−1)/p_b; X² = ws/l − l with
/// 1/l precomputed) instead of the O(k) full reduction per position — and
/// reseeds ws from the counter block through the fused kernel at each
/// chunk boundary, so floating-point drift never spans more than one
/// chunk. Consequence: AppendChunk X² values agree with per-symbol
/// Append to ~1e-12 relative (not bit-exactly); counter state, and hence
/// CurrentChiSquares(), is bit-identical for any chunking.
class StreamingDetector {
 public:
  struct Options {
    int64_t max_window = 4096;  // Longest window monitored, <= kMaxWindow.
    /// Per-position family-wise significance level across all monitored
    /// scales; converted to per-scale X² thresholds at Make() time. The
    /// default is deliberately deep: a production stream appends millions
    /// of symbols, so a per-position α of 1e-6 keeps a null stream quiet
    /// for ~10⁶ positions. (The former `alpha0 = 0.0` raw-X² default
    /// alarmed on essentially every append.)
    double alpha = 1e-6;
    /// Raw X² threshold override applied to every scale when >= 0:
    /// bypasses the calibrated quantile path. For research loops and
    /// exact-parity tests against offline scans.
    double x2_threshold = -1.0;
    /// Hysteresis rearm level as a fraction of the alarm threshold; see
    /// the class comment. Must be >= 0 (may exceed 1, or be +infinity to
    /// alarm on every above-threshold position).
    double rearm_fraction = 0.5;
  };

  /// An alarm raised at stream position `end` (exclusive; i.e. after
  /// `end` symbols total) for the suffix window [end - length, end).
  struct Alarm {
    int64_t end = 0;
    int64_t length = 0;
    double chi_square = 0.0;
    double p_value = 1.0;  // Asymptotic χ²(k−1) tail of chi_square.
  };

  /// The detector's mutable state — everything Make() does not rederive
  /// from the model and Options. SaveState/RestoreState round-trip a
  /// detector bit-identically within one build: restore into a detector
  /// made with the same model and Options, and every subsequent Append
  /// produces the same counters, X² values, and alarms as the original
  /// would have. persist/snapshot.{h,cc} serializes this struct.
  struct State {
    int64_t position = 0;
    int64_t alarms_raised = 0;
    std::vector<int64_t> counts;    // scales × k, position-major.
    std::vector<uint8_t> in_alarm;  // Per-scale hysteresis flags (0/1).
    std::vector<uint8_t> recent;    // Symbol ring, max_window + 1 wide.
  };

  /// Fails if max_window is outside [1, kMaxWindow], alpha outside (0, 1)
  /// (when the calibrated path is active), or rearm_fraction < 0 / NaN.
  static Result<StreamingDetector> Make(const seq::MultinomialModel& model,
                                        Options options);

  /// As above over a prebuilt (shared) evaluation context — how
  /// engine::StreamManager amortizes one ChiSquareContext across every
  /// stream monitored under the same model.
  static Result<StreamingDetector> Make(
      std::shared_ptr<const ChiSquareContext> context, Options options);

  /// Feeds one symbol; returns the strongest alarm newly raised here, if
  /// any scale crossed its threshold (hysteresis-filtered). Aborts
  /// (SIGSUB_CHECK, every build mode) if `symbol` is outside the model's
  /// alphabet.
  std::optional<Alarm> Append(uint8_t symbol);

  /// Feeds a chunk of symbols and returns every alarm raised inside it,
  /// ordered by (end, length). Bit-identical to feeding the symbols
  /// through Append one at a time (same kernel, same per-scale operation
  /// order), but amortizes ring maintenance and evaluates the chunk one
  /// scale at a time — the batched-ingestion hot path. Aborts on an
  /// out-of-range symbol (checked up front, before any state changes).
  std::vector<Alarm> AppendChunk(std::span<const uint8_t> symbols);

  /// AppendChunk for untrusted streams: validates every symbol first and
  /// returns InvalidArgument (state unchanged) instead of aborting.
  Result<std::vector<Alarm>> TryAppendChunk(std::span<const uint8_t> symbols);

  /// Copies out the mutable state for persistence (see State).
  State SaveState() const;

  /// Adopts `state` into a detector built with the same model and
  /// Options. On-disk state is untrusted after a crash, so this
  /// validates before touching anything: buffer shapes must match this
  /// detector's geometry, counters must be non-negative and sum to
  /// min(scale, position) per scale, ring symbols must be inside the
  /// alphabet. InvalidArgument (detector unchanged) otherwise — corrupt
  /// state is named, never silently adopted.
  Status RestoreState(const State& state);

  /// The options the detector was built with (what a snapshot must
  /// persist to rebuild it).
  const Options& options() const { return options_; }

  /// Total symbols consumed.
  int64_t position() const { return position_; }

  int alphabet_size() const { return context_->alphabet_size(); }

  /// The window lengths evaluated at each step (dyadic + max).
  const std::vector<int64_t>& scales() const { return scales_; }

  /// Per-scale X² alarm thresholds resolved at Make() time (parallel to
  /// scales()).
  std::span<const double> scale_thresholds() const { return thresholds_; }

  /// Total alarms raised over the detector's lifetime (every scale's
  /// threshold crossings, not just the strongest-per-position ones
  /// Append() returns).
  int64_t alarms_raised() const { return alarms_raised_; }

  /// Current X² of every monitored scale, evaluated over the last
  /// min(scale, position()) symbols (0 when the stream is empty).
  /// Snapshot/inspection path — allocates.
  std::vector<double> CurrentChiSquares() const;

 private:
  StreamingDetector(std::shared_ptr<const ChiSquareContext> context,
                    Options options);

  std::shared_ptr<const ChiSquareContext> context_;
  Options options_;
  X2Kernel kernel_;  // Per-position window scoring.
  std::vector<int64_t> scales_;
  std::vector<double> thresholds_;  // Per-scale alarm level.
  std::vector<double> rearm_;       // Per-scale hysteresis rearm level.
  std::vector<uint8_t> in_alarm_;   // Per-scale hysteresis state.
  // counts_[si*k + c] = occurrences of symbol c among the last
  // min(scales_[si], position_) symbols — one position-major k-block per
  // scale, maintained incrementally (O(1) add/expire per scale per
  // symbol) and scored in place by the fused kernel.
  std::vector<int64_t> counts_;
  // Ring of the last max_window + 1 symbols, so each window knows which
  // symbol slides out of it.
  std::vector<uint8_t> recent_;
  int64_t position_ = 0;
  int64_t alarms_raised_ = 0;
};

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_STREAMING_H_
