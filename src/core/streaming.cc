#include "core/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"
#include "core/x2_kernel.h"
#include "stats/chi_squared.h"
#include "stats/count_statistics.h"

namespace sigsub {
namespace core {
namespace {

/// Šidák correction: the per-scale significance level that makes the
/// family-wise level across `scales` independent tests equal `alpha`.
/// Computed as −expm1(log1p(−α)/m) so deep levels (α ~ 1e-12) keep full
/// relative precision.
double SidakPerScaleAlpha(double alpha, size_t scales) {
  return -std::expm1(std::log1p(-alpha) / static_cast<double>(scales));
}

}  // namespace

StreamingDetector::StreamingDetector(
    std::shared_ptr<const ChiSquareContext> context, Options options)
    : context_(std::move(context)),
      options_(options),
      kernel_(*context_) {
  for (int64_t scale = 1; scale < options_.max_window; scale *= 2) {
    scales_.push_back(scale);
  }
  scales_.push_back(options_.max_window);

  const int k = context_->alphabet_size();
  // One k-wide counter block per monitored scale — O(k·log W) memory —
  // plus a byte ring of the last W+1 symbols so expiring symbols can be
  // subtracted. The blocks live in one flat buffer so the chunked pass
  // streams them without pointer chasing.
  counts_.assign(scales_.size() * static_cast<size_t>(k), 0);
  in_alarm_.assign(scales_.size(), 0);
  recent_.assign(static_cast<size_t>(options_.max_window) + 1, 0);

  thresholds_.resize(scales_.size());
  if (options_.x2_threshold >= 0.0) {
    std::fill(thresholds_.begin(), thresholds_.end(), options_.x2_threshold);
  } else {
    // Paper Theorem 3: X² of a window converges to χ²(k−1); the alarm
    // level with family-wise false-alarm probability alpha per position
    // is the Šidák-corrected upper quantile. All scales share one dof, so
    // one quantile evaluation covers them.
    stats::ChiSquaredDistribution dist(std::max(1, k - 1));
    const double threshold =
        dist.CriticalValue(SidakPerScaleAlpha(options_.alpha, scales_.size()));
    std::fill(thresholds_.begin(), thresholds_.end(), threshold);
  }
  rearm_.resize(scales_.size());
  for (size_t si = 0; si < scales_.size(); ++si) {
    double level = options_.rearm_fraction * thresholds_[si];
    // 0 · inf (zero threshold, hysteresis disabled) must mean "rearm
    // level above everything", not NaN.
    if (std::isnan(level)) level = std::numeric_limits<double>::infinity();
    rearm_[si] = level;
  }
}

Result<StreamingDetector> StreamingDetector::Make(
    const seq::MultinomialModel& model, Options options) {
  return Make(std::make_shared<const ChiSquareContext>(model), options);
}

Result<StreamingDetector> StreamingDetector::Make(
    std::shared_ptr<const ChiSquareContext> context, Options options) {
  if (context == nullptr) {
    return Status::InvalidArgument("context must not be null");
  }
  if (options.max_window < 1 || options.max_window > kMaxWindow) {
    return Status::InvalidArgument(StrCat("max_window must be in [1, ",
                                          kMaxWindow, "], got ",
                                          options.max_window));
  }
  if (options.x2_threshold < 0.0 &&
      !(options.alpha > 0.0 && options.alpha < 1.0)) {
    return Status::InvalidArgument(
        StrCat("alpha must be in (0, 1), got ", options.alpha,
               " (or set x2_threshold >= 0 for a raw X² alarm level)"));
  }
  if (std::isnan(options.rearm_fraction) || options.rearm_fraction < 0.0) {
    return Status::InvalidArgument(
        StrCat("rearm_fraction must be >= 0, got ", options.rearm_fraction));
  }
  return StreamingDetector(std::move(context), options);
}

std::optional<StreamingDetector::Alarm> StreamingDetector::Append(
    uint8_t symbol) {
  // Checked in every build mode: an out-of-range symbol would otherwise
  // be an out-of-bounds counter write in release builds. Untrusted
  // streams should use TryAppendChunk, which reports instead of aborting.
  SIGSUB_CHECK_MSG(symbol < context_->alphabet_size(),
                   "symbol %d out of range for alphabet size %d",
                   static_cast<int>(symbol), context_->alphabet_size());
  const int k = context_->alphabet_size();
  const int64_t ring = options_.max_window + 1;
  recent_[static_cast<size_t>(position_ % ring)] = symbol;
  ++position_;

  std::optional<Alarm> strongest;
  for (size_t si = 0; si < scales_.size(); ++si) {
    const int64_t scale = scales_[si];
    int64_t* counts = counts_.data() + si * static_cast<size_t>(k);
    ++counts[symbol];
    if (position_ > scale) {
      // The symbol that just slid out of this window.
      --counts[recent_[static_cast<size_t>((position_ - 1 - scale) % ring)]];
    } else if (scale > position_) {
      continue;  // Window not yet full; counts keep accumulating.
    }
    const double x2 = kernel_.EvaluateCounts(counts, scale);
    if (in_alarm_[si] && x2 < rearm_[si]) in_alarm_[si] = 0;
    if (!in_alarm_[si] && x2 > thresholds_[si]) {
      in_alarm_[si] = 1;
      ++alarms_raised_;
      if (!strongest.has_value() || x2 > strongest->chi_square) {
        strongest = Alarm{position_, scale, x2, stats::ChiSquarePValue(x2, k)};
      }
    }
  }
  return strongest;
}

std::vector<StreamingDetector::Alarm> StreamingDetector::AppendChunk(
    std::span<const uint8_t> symbols) {
  const int k = context_->alphabet_size();
  for (size_t i = 0; i < symbols.size(); ++i) {
    SIGSUB_CHECK_MSG(symbols[i] < k,
                     "symbol %d (chunk offset %lld) out of range for "
                     "alphabet size %d",
                     static_cast<int>(symbols[i]),
                     static_cast<long long>(i), k);
  }

  std::vector<Alarm> alarms;
  // Raw __restrict views for the scale passes: `symbols` and the ring are
  // byte arrays, and char-typed loads may legally alias the int64 counter
  // stores — without the annotation every counter store forces the symbol
  // loads to be re-issued.
  const double* __restrict inv_probs = context_->inv_probs().data();
  const uint8_t* __restrict chunk = symbols.data();
  const uint8_t* __restrict ring_data = recent_.data();
  const int64_t start = position_;  // Stream position before this chunk.
  const int64_t length = static_cast<int64_t>(symbols.size());
  const int64_t ring = options_.max_window + 1;

  // Scale-major: one pass over the chunk per scale, so the scale's
  // counter block, running sum, threshold, and hysteresis state stay hot
  // for the whole chunk. The expiring symbol at chunk offset i (global
  // position start+i+1) has global index start+i−scale: inside the chunk
  // itself once i >= scale (the common case for long chunks — a
  // contiguous read, no modulo), otherwise still in the pre-chunk ring,
  // which is untouched until the chunk has been fully processed.
  for (size_t si = 0; si < scales_.size(); ++si) {
    const int64_t scale = scales_[si];
    int64_t* __restrict counts =
        counts_.data() + si * static_cast<size_t>(k);
    const double threshold = thresholds_[si];
    const double rearm = rearm_[si];
    bool in_alarm = in_alarm_[si] != 0;

    // Seed the running weighted sum ws = Σ Y_c²/p_c from the counter
    // block through the fused kernel (ws = (X² + l)·l inverts the
    // kernel's normalization; drift therefore resets at every chunk
    // boundary), then slide it in O(1) per position instead of
    // re-reducing O(k) — the chunked pass's algorithmic win. Alarm tests
    // also happen in ws-space (X² > t ⇔ ws > (t + l)·l, monotone), so
    // the steady-state step does no floating-point normalization at all.
    const double dscale = static_cast<double>(scale);
    const double inv_scale = 1.0 / dscale;
    const double ws_threshold = (threshold + dscale) * dscale;
    const double ws_rearm = (rearm + dscale) * dscale;
    const int64_t seeded = std::min(start, scale);
    double ws_base = 0.0;
    if (seeded > 0) {
      const double dl = static_cast<double>(seeded);
      ws_base = (kernel_.EvaluateCounts(counts, seeded) + dl) * dl;
    }
    // Incoming and expiring deltas accumulate separately so the two
    // loop-carried chains run in parallel (a single ws accumulator costs
    // two *dependent* adds per position — twice the latency);
    // ws = ws_base + ws_add − ws_sub is formed off the critical path at
    // the alarm test.
    double ws_add = 0.0;
    double ws_sub = 0.0;

    // Y_incoming just rose by one: Δws = (2·Y_new − 1)/p.
    auto add = [&](uint8_t incoming) {
      ++counts[incoming];
      ws_add += static_cast<double>(2 * counts[incoming] - 1) *
                inv_probs[incoming];
    };
    // Y_expiring just fell by one: Δws = −(2·Y_new + 1)/p.
    auto expire = [&](uint8_t expiring) {
      --counts[expiring];
      ws_sub += static_cast<double>(2 * counts[expiring] + 1) *
                inv_probs[expiring];
    };
    auto check_alarm = [&](int64_t pos) {
      const double ws = ws_base + (ws_add - ws_sub);
      if (!in_alarm) {
        if (ws > ws_threshold) {
          in_alarm = true;
          const double x2 = ws * inv_scale - dscale;
          alarms.push_back(
              Alarm{pos, scale, x2, stats::ChiSquarePValue(x2, k)});
        }
      } else if (ws < ws_rearm) {
        in_alarm = false;
      }
    };

    // The per-position work is phase-split so the steady-state loop has
    // no position branches: (1) window filling (no expiry, no test),
    // (2) expiring symbols still in the pre-chunk ring, (3) expiring
    // symbols inside the chunk itself (contiguous, the long phase).
    int64_t i = 0;
    const int64_t fill_end =
        std::min<int64_t>(length, std::max<int64_t>(0, scale - start - 1));
    for (; i < fill_end; ++i) add(chunk[i]);
    if (i < length && start + i + 1 == scale) {
      add(chunk[i]);  // Window exactly full: test,
      check_alarm(start + i + 1);            // nothing expires yet.
      ++i;
    }
    const int64_t from_ring_end = std::min<int64_t>(length, scale);
    if (i < from_ring_end) {
      int64_t ring_index = (start + i - scale) % ring;
      for (; i < from_ring_end; ++i) {
        add(chunk[i]);
        expire(ring_data[ring_index]);
        if (++ring_index == ring) ring_index = 0;
        check_alarm(start + i + 1);
      }
    }
    for (; i < length; ++i) {
      add(chunk[i]);
      expire(chunk[i - scale]);
      check_alarm(start + i + 1);
    }
    in_alarm_[si] = in_alarm ? 1 : 0;
  }

  // Ring maintenance, amortized: only the last ring-many chunk symbols
  // can still be expiring symbols for future appends.
  for (int64_t i = std::max<int64_t>(0, length - ring); i < length; ++i) {
    recent_[static_cast<size_t>((start + i) % ring)] =
        symbols[static_cast<size_t>(i)];
  }
  position_ += length;
  alarms_raised_ += static_cast<int64_t>(alarms.size());

  // The per-scale passes emit alarms grouped by scale; report them in
  // stream order like repeated Append calls would.
  std::sort(alarms.begin(), alarms.end(), [](const Alarm& a, const Alarm& b) {
    return a.end != b.end ? a.end < b.end : a.length < b.length;
  });
  return alarms;
}

Result<std::vector<StreamingDetector::Alarm>>
StreamingDetector::TryAppendChunk(std::span<const uint8_t> symbols) {
  const int k = context_->alphabet_size();
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (symbols[i] >= k) {
      return Status::InvalidArgument(
          StrCat("symbol ", static_cast<int>(symbols[i]), " (chunk offset ",
                 i, ") out of range for alphabet size ", k));
    }
  }
  return AppendChunk(symbols);
}

StreamingDetector::State StreamingDetector::SaveState() const {
  State state;
  state.position = position_;
  state.alarms_raised = alarms_raised_;
  state.counts = counts_;
  state.in_alarm = in_alarm_;
  state.recent = recent_;
  return state;
}

Status StreamingDetector::RestoreState(const State& state) {
  const int k = context_->alphabet_size();
  if (state.position < 0 || state.alarms_raised < 0) {
    return Status::InvalidArgument(
        "detector state: negative position or alarm count");
  }
  if (state.counts.size() != counts_.size() ||
      state.in_alarm.size() != in_alarm_.size() ||
      state.recent.size() != recent_.size()) {
    return Status::InvalidArgument(StrCat(
        "detector state shape mismatch: counts ", state.counts.size(),
        "/", counts_.size(), ", in_alarm ", state.in_alarm.size(), "/",
        in_alarm_.size(), ", recent ", state.recent.size(), "/",
        recent_.size(),
        " — snapshot does not match this stream's options"));
  }
  for (uint8_t flag : state.in_alarm) {
    if (flag > 1) {
      return Status::InvalidArgument(
          "detector state: hysteresis flag outside {0, 1}");
    }
  }
  for (uint8_t symbol : state.recent) {
    if (symbol >= k) {
      return Status::InvalidArgument(
          StrCat("detector state: ring symbol ", static_cast<int>(symbol),
                 " out of range for alphabet size ", k));
    }
  }
  // Each scale's counter block must describe exactly the last
  // min(scale, position) symbols: non-negative counts summing to the
  // window's fill. A corrupt or fabricated snapshot fails here by name
  // instead of poisoning every later X² evaluation.
  for (size_t si = 0; si < scales_.size(); ++si) {
    int64_t sum = 0;
    for (int c = 0; c < k; ++c) {
      int64_t count = state.counts[si * static_cast<size_t>(k) +
                                   static_cast<size_t>(c)];
      if (count < 0) {
        return Status::InvalidArgument(
            StrCat("detector state: negative count at scale ",
                   scales_[si]));
      }
      sum += count;
    }
    const int64_t want = std::min(state.position, scales_[si]);
    if (sum != want) {
      return Status::InvalidArgument(
          StrCat("detector state: scale ", scales_[si], " counters sum to ",
                 sum, ", want ", want));
    }
  }
  position_ = state.position;
  alarms_raised_ = state.alarms_raised;
  counts_ = state.counts;
  in_alarm_ = state.in_alarm;
  recent_ = state.recent;
  return Status::OK();
}

std::vector<double> StreamingDetector::CurrentChiSquares() const {
  const int k = context_->alphabet_size();
  std::vector<double> out(scales_.size(), 0.0);
  for (size_t si = 0; si < scales_.size(); ++si) {
    const int64_t l = std::min(position_, scales_[si]);
    out[si] = kernel_.EvaluateCounts(
        counts_.data() + si * static_cast<size_t>(k), l);
  }
  return out;
}

}  // namespace core
}  // namespace sigsub
