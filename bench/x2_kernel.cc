// Fused X² kernel bench + correctness gates (mirrors how micro_core
// gated the PR-2 layout change):
//
//   1. Scalar gate (fatal): the fused kernel must be BIT-identical to the
//      legacy FillCounts + Evaluate scratch round-trip on the gating
//      corpus — every range, every k, every model.
//   2. Perf trajectory: the MSS inner-loop microbench (pin a start block,
//      stream endpoint blocks) fused vs legacy, per k. Target >= 1.5x
//      for k <= 8. Timings land in BENCH_x2_kernel.json.
//   3. Batched form (fatal gate): EvaluateEnds must be bit-identical to
//      the per-end loop it replaces, over ARLM's ends and over the
//      blocked scan's consecutive ends; its speedups over that loop are
//      rows (the ARLM one tracked).

#include <algorithm>
#include <bit>
#include <cstdio>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/harness.h"
#include "core/chain_cover.h"
#include "core/x2_kernel.h"
#include "io/table_writer.h"
#include "sigsub.h"

using namespace sigsub;

namespace {

seq::Sequence MakeString(int k, int64_t n) {
  seq::Rng rng(515151 + k + n);
  return seq::GenerateNull(k, n, rng);
}

seq::MultinomialModel MakeSkewedModel(int k) {
  std::vector<double> probs(static_cast<size_t>(k));
  double total = 0.0;
  for (int c = 0; c < k; ++c) {
    probs[static_cast<size_t>(c)] = 1.0 + 0.37 * c;
    total += probs[static_cast<size_t>(c)];
  }
  for (double& p : probs) p /= total;
  auto model = seq::MultinomialModel::Make(std::move(probs));
  if (!model.ok()) std::abort();
  return std::move(model).value();
}

/// Best-of-3 wall clock: the speedup gates compare two timings from the
/// same run, and a single sample on a loaded shared runner can wobble a
/// few percent — taking each path's minimum keeps the ratio a property of
/// the code, not of scheduler noise.
double MinTimeMs(const std::function<void()>& fn) {
  double best = bench::TimeMs(fn);
  for (int rep = 1; rep < 3; ++rep) {
    double ms = bench::TimeMs(fn);
    if (ms < best) best = ms;
  }
  return best;
}

/// Deterministic (start, end) query stream; xorshift so the access
/// pattern defeats the prefetcher the way a skip scan does.
std::vector<std::pair<int64_t, int64_t>> MakeRanges(int64_t n, size_t count) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ranges.reserve(count);
  uint64_t state = 0x2545f4914f6cdd1dULL;
  for (size_t i = 0; i < count; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    int64_t a = static_cast<int64_t>(state % static_cast<uint64_t>(n + 1));
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    int64_t b = static_cast<int64_t>(state % static_cast<uint64_t>(n + 1));
    if (a > b) std::swap(a, b);
    ranges.emplace_back(a, b);
  }
  return ranges;
}

/// Gate 1: fused scalar == legacy pair, bit for bit, across alphabets and
/// both uniform and skewed models.
bool RunScalarIdentityGate() {
  int64_t mismatches = 0;
  const int64_t n = 4096;
  for (int k : {2, 3, 4, 8, 26}) {
    seq::Sequence s = MakeString(k, n);
    seq::PrefixCounts counts(s);
    for (bool skewed : {false, true}) {
      core::ChiSquareContext ctx(skewed ? MakeSkewedModel(k)
                                        : seq::MultinomialModel::Uniform(k));
      core::X2Kernel kernel(ctx);
      std::vector<int64_t> scratch(static_cast<size_t>(k));
      for (const auto& [start, end] : MakeRanges(n, 20000)) {
        counts.FillCounts(start, end, scratch);
        double legacy = ctx.Evaluate(scratch, end - start);
        double fused = kernel.EvaluateRange(counts, start, end);
        if (legacy != fused) ++mismatches;
      }
    }
  }
  std::printf("scalar gate (fused vs FillCounts+Evaluate): %s\n",
              mismatches == 0 ? "bit-identical" : "MISMATCH — BUG");
  return mismatches == 0;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "fused X² range kernel — bit-identity gates + MSS inner-loop speedup",
      "EvaluateBlocks (x2_kernel.h) vs the legacy FillCounts+Evaluate "
      "scratch round-trip; timings land in BENCH_x2_kernel.json");
  bench::JsonBench json("x2_kernel");

  const bool scalar_ok = RunScalarIdentityGate();
  json.AddGate("scalar_bit_identical", scalar_ok);
  std::printf("batched k=2 twin: %s\n",
              core::SimdAvailable() ? "available (avx2)" : "unavailable");
  if (!scalar_ok) {
    json.Write();
    return 1;
  }

  io::TableWriter table({"bench", "time", "speedup"});
  bool perf_ok = true;

  // MSS inner-loop microbench: pin a start block, stream every endpoint
  // block — the paper Algorithm 1 inner loop with skips disabled so both
  // paths evaluate the identical candidate set. Legacy pays the k-wide
  // store into scratch plus the reload; fused reduces in one pass.
  const int64_t n = bench::FastMode() ? (1 << 14) : (1 << 16);
  const int64_t starts_stride = n / 48;
  for (int k : {2, 4, 8, 26}) {
    seq::Sequence s = MakeString(k, n);
    seq::PrefixCounts counts(s);
    core::ChiSquareContext ctx(seq::MultinomialModel::Uniform(k));
    core::X2Kernel kernel(ctx);
    std::vector<int64_t> scratch(static_cast<size_t>(k));

    double sink_legacy = 0.0, sink_fused = 0.0;
    double legacy_ms = MinTimeMs([&] {
      sink_legacy = 0.0;
      for (int64_t i = 0; i < n; i += starts_stride) {
        for (int64_t end = i + 1; end <= n; ++end) {
          counts.FillCounts(i, end, scratch);
          sink_legacy += ctx.Evaluate(scratch, end - i);
        }
      }
    });
    double fused_ms = MinTimeMs([&] {
      sink_fused = 0.0;
      for (int64_t i = 0; i < n; i += starts_stride) {
        const int64_t* lo = counts.BlockAt(i);
        const int64_t* hi = lo;
        for (int64_t end = i + 1; end <= n; ++end) {
          hi += k;
          sink_fused += kernel.EvaluateBlocks(lo, hi, end - i);
        }
      }
    });
    // The two sweeps cover the same candidates in the same order, so
    // their sums are bit-identical — also keeps the sinks alive.
    if (sink_legacy != sink_fused) {
      std::printf("sink mismatch at k=%d — BUG\n", k);
      perf_ok = false;
    }

    double speedup = legacy_ms / fused_ms;
    std::printf(
        "mss inner loop k=%-2d: legacy %s, fused %s, %.2fx\n", k,
        bench::FormatMs(legacy_ms).c_str(), bench::FormatMs(fused_ms).c_str(),
        speedup);
    table.AddRow({StrCat("mss_inner_k", k, "_legacy"),
                  bench::FormatMs(legacy_ms), "-"});
    table.AddRow({StrCat("mss_inner_k", k, "_fused"),
                  bench::FormatMs(fused_ms), StrFormat("%.2fx", speedup)});
    json.AddResult(StrCat("mss_inner_k", k, "_legacy"), legacy_ms);
    json.AddResult(StrCat("mss_inner_k", k, "_fused"), fused_ms, speedup);
    if (k <= 8) {
      json.AddGate(StrCat("fused_speedup_target_1_5x_k", k),
                   speedup >= 1.5);
      if (speedup < 1.5) perf_ok = false;
    }
  }

  // Batched endpoint streaming (the ARLM/EvaluateEnds shape) for the
  // trajectory file: one pinned start, every later position an endpoint.
  {
    const int k = 4;
    seq::Sequence s = MakeString(k, n);
    seq::PrefixCounts counts(s);
    core::ChiSquareContext ctx(seq::MultinomialModel::Uniform(k));
    core::X2Kernel kernel(ctx);
    std::vector<int64_t> ends;
    for (int64_t e = 1; e <= n; ++e) ends.push_back(e);
    std::vector<double> out(ends.size());
    const int reps = bench::FastMode() ? 20 : 200;
    double batched_ms = bench::TimeMs([&] {
      for (int rep = 0; rep < reps; ++rep) {
        kernel.EvaluateEnds(counts, 0, ends, out);
      }
    });
    table.AddRow({StrCat("evaluate_ends_k4_x", reps),
                  bench::FormatMs(batched_ms), "-"});
    json.AddResult(StrCat("evaluate_ends_k4_x", reps), batched_ms);
  }

  // The batched form against the per-end loop it replaces, at k = 2:
  // EvaluateEnds over the ARLM scan's endpoints (every later run boundary
  // of a null string) and over the blocked scan's dense blocks (runs of
  // 63 consecutive ends, filled into an ends buffer as FindMssBlocked
  // does). Gate: bit-identical to the per-end function.
  {
    const int k = 2;
    const int64_t len = bench::FastMode() ? (1 << 13) : (1 << 15);
    const int64_t stride = 8;
    seq::Sequence s = MakeString(k, len);
    seq::PrefixCounts counts(s);
    core::ChiSquareContext ctx(seq::MultinomialModel::Uniform(k));
    core::X2Kernel kernel(ctx);
    const std::vector<int64_t> boundaries = core::ArlmCandidateBoundaries(s);
    const size_t m = boundaries.size();
    std::vector<double> per_end(m), batched(m);
    auto ends_from = [&](size_t bi) {
      return std::span<const int64_t>(boundaries.data() + bi + 1, m - bi - 1);
    };
    auto per_end_ends = [&](size_t bi) {
      const int64_t start = boundaries[bi];
      const int64_t* lo = counts.BlockAt(start);
      std::span<const int64_t> ends = ends_from(bi);
      for (size_t j = 0; j < ends.size(); ++j) {
        per_end[j] = kernel.EvaluateBlocks(lo, counts.BlockAt(ends[j]),
                                           ends[j] - start);
      }
    };
    constexpr int64_t kRun = 63;
    std::vector<int64_t> run_ends(kRun);
    auto batched_run = [&](int64_t start, int64_t first_end, int64_t count) {
      std::iota(run_ends.begin(), run_ends.begin() + count, first_end);
      kernel.EvaluateEnds(
          counts, start,
          std::span<const int64_t>(run_ends.data(), static_cast<size_t>(count)),
          batched);
    };
    auto per_end_run = [&](int64_t start, int64_t first_end, int64_t count) {
      const int64_t* lo = counts.BlockAt(start);
      for (int64_t j = 0; j < count; ++j) {
        per_end[j] = kernel.EvaluateBlocks(
            lo, counts.BlockAt(first_end + j), first_end + j - start);
      }
    };
    // Calls fn(start, first_end, count) for every dense block of every
    // stride-th start.
    auto for_each_run = [&](const auto& fn) {
      for (int64_t i = 0; i + 2 <= len; i += stride) {
        for (int64_t e = i + 2; e <= len; e += kRun) {
          fn(i, e, std::min(kRun, len - e + 1));
        }
      }
    };

    int64_t mismatches = 0;
    auto count_mismatches = [&](size_t size) {
      for (size_t j = 0; j < size; ++j) {
        if (std::bit_cast<uint64_t>(per_end[j]) !=
            std::bit_cast<uint64_t>(batched[j])) {
          ++mismatches;
        }
      }
    };
    for (size_t bi = 0; bi + 1 < m; bi += stride) {
      per_end_ends(bi);
      kernel.EvaluateEnds(counts, boundaries[bi], ends_from(bi), batched);
      count_mismatches(m - bi - 1);
    }
    for_each_run([&](int64_t start, int64_t first_end, int64_t count) {
      per_end_run(start, first_end, count);
      batched_run(start, first_end, count);
      count_mismatches(static_cast<size_t>(count));
    });
    const bool identical = mismatches == 0;
    std::printf("batched gate (EvaluateEnds vs per-end, k=2): %s\n",
                identical ? "bit-identical" : "MISMATCH — BUG");
    json.AddGate("batched_bit_identical_k2", identical);
    if (!identical) perf_ok = false;

    // Each speedup is the median ratio of per-end and batched runs timed
    // next to each other: the per-end loop's time swings between two
    // levels from one process to the next, which separate minima turned
    // into swings of the ratio.
    const int batches = bench::FastMode() ? 9 : 15;
    double sink = 0.0;
    const bench::InterleavedTiming ends = bench::InterleavedAB(
        [&] {
          for (size_t bi = 0; bi + 1 < m; bi += stride) {
            per_end_ends(bi);
            sink += per_end[0];
          }
        },
        [&] {
          for (size_t bi = 0; bi + 1 < m; bi += stride) {
            kernel.EvaluateEnds(counts, boundaries[bi], ends_from(bi),
                                batched);
            sink += batched[0];
          }
        },
        batches);
    const bench::InterleavedTiming runs = bench::InterleavedAB(
        [&] {
          for_each_run([&](int64_t start, int64_t first_end, int64_t count) {
            per_end_run(start, first_end, count);
            sink += per_end[0];
          });
        },
        [&] {
          for_each_run([&](int64_t start, int64_t first_end, int64_t count) {
            batched_run(start, first_end, count);
            sink += batched[0];
          });
        },
        batches);
    if (!(sink >= 0.0)) std::printf("sink %f\n", sink);
    for (const auto& [name, timing] :
         {std::pair{"evaluate_ends_k2", ends},
          std::pair{"evaluate_ends_dense_k2", runs}}) {
      const double loop_ms = timing.reference_ms;
      const double ms = timing.candidate_ms;
      const double speedup = timing.ratio;
      std::printf("%s: per-end %s, batched %s, %.2fx\n", name,
                  bench::FormatMs(loop_ms).c_str(),
                  bench::FormatMs(ms).c_str(), speedup);
      table.AddRow({StrCat(name, "_per_end"), bench::FormatMs(loop_ms), "-"});
      table.AddRow(
          {name, bench::FormatMs(ms), StrFormat("%.2fx", speedup)});
      json.AddResult(StrCat(name, "_per_end"), loop_ms);
      json.AddResult(name, ms, speedup);
    }
  }

  std::printf("\n%s", table.Render().c_str());
  if (!json.Write()) return 1;
  if (!perf_ok) {
    std::printf("FUSED SPEEDUP TARGET MISSED (>= 1.5x for k <= 8)\n");
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
