// Microbenchmarks for the hot kernels — X² evaluation, prefix-count
// fills, skip solving, and the end-to-end scans — with two jobs beyond
// timing:
//
//   1. Layout gate: the flat position-major seq::PrefixCounts
//      (counts[pos·k + c]) must produce bit-identical count vectors and
//      bit-identical X² values to the previous layout (k separate
//      row-major vectors), reimplemented here as the reference. The gate
//      is fatal: a mismatch exits nonzero.
//   2. Perf trajectory: every timing lands in BENCH_core.json, including
//      the FillCounts-dominated scan where the flat layout's target is
//      >= 1.5x over the row-major reference. Each row is the median of 5
//      runs (3 under SIGSUB_BENCH_FAST), since single runs of these
//      kernels swing by ±8% on a loaded host; the chain_cover rows
//      instead time the scan against its serial reference batch by batch
//      (bench::InterleavedAB) and record the median ratio as the speedup.

#include <cstdio>
#include <functional>
#include <vector>

#include "common/harness.h"
#include "core/chain_cover.h"
#include "io/table_writer.h"
#include "sigsub.h"
#include "testing/chain_cover_reference.h"

using namespace sigsub;

namespace {

/// The pre-refactor PrefixCounts layout, kept verbatim as the gate
/// reference: k separate rows of n+1 entries, so one FillCounts pays k
/// strided loads.
class RowMajorPrefixCounts {
 public:
  explicit RowMajorPrefixCounts(const seq::Sequence& sequence)
      : alphabet_size_(sequence.alphabet_size()), n_(sequence.size()) {
    counts_.resize(static_cast<size_t>(alphabet_size_));
    for (int c = 0; c < alphabet_size_; ++c) {
      counts_[static_cast<size_t>(c)].assign(static_cast<size_t>(n_) + 1, 0);
    }
    std::span<const uint8_t> symbols = sequence.symbols();
    for (int64_t i = 0; i < n_; ++i) {
      for (int c = 0; c < alphabet_size_; ++c) {
        counts_[static_cast<size_t>(c)][static_cast<size_t>(i) + 1] =
            counts_[static_cast<size_t>(c)][static_cast<size_t>(i)];
      }
      ++counts_[symbols[i]][static_cast<size_t>(i) + 1];
    }
  }

  void FillCounts(int64_t start, int64_t end, std::span<int64_t> out) const {
    for (int c = 0; c < alphabet_size_; ++c) {
      out[c] = counts_[static_cast<size_t>(c)][static_cast<size_t>(end)] -
               counts_[static_cast<size_t>(c)][static_cast<size_t>(start)];
    }
  }

 private:
  int alphabet_size_;
  int64_t n_;
  std::vector<std::vector<int64_t>> counts_;
};

seq::Sequence MakeString(int k, int64_t n) {
  seq::Rng rng(424242 + k + n);
  return seq::GenerateNull(k, n, rng);
}

/// Deterministic (start, end) query stream over [0, n]; xorshift so the
/// access pattern defeats the prefetcher the way a skip scan does.
std::vector<std::pair<int64_t, int64_t>> MakeRanges(int64_t n, size_t count) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ranges.reserve(count);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
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

/// Bit-identity of the two layouts: every count vector and every X² value
/// must match exactly — FindMss & friends consume counts only through
/// FillCounts + Evaluate, so fill identity implies scan identity.
bool RunLayoutGate() {
  int64_t mismatches = 0;
  for (int k : {2, 4, 20}) {
    seq::Sequence s = MakeString(k, 4096);
    seq::PrefixCounts flat(s);
    RowMajorPrefixCounts reference(s);
    core::ChiSquareContext ctx(seq::MultinomialModel::Uniform(k));
    std::vector<int64_t> a(k), b(k);
    for (const auto& [start, end] : MakeRanges(s.size(), 20000)) {
      flat.FillCounts(start, end, a);
      reference.FillCounts(start, end, b);
      if (a != b) ++mismatches;
      if (ctx.Evaluate(a, end - start) != ctx.Evaluate(b, end - start)) {
        ++mismatches;
      }
    }
    // The scan itself, both built from the same sequence, for good
    // measure (exercises the flat build path end to end).
    core::MssResult scan = core::FindMss(flat, ctx);
    core::MssResult again = core::FindMss(seq::PrefixCounts(s), ctx);
    if (scan.best.chi_square != again.best.chi_square) ++mismatches;
  }
  std::printf("layout gate (flat vs row-major): %s\n",
              mismatches == 0 ? "bit-identical" : "MISMATCH — BUG");
  return mismatches == 0;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "core microbenchmarks — flat PrefixCounts layout gate + hot kernels",
      "counts[pos*k + c] vs the former k row-major vectors; timings land "
      "in BENCH_core.json");
  bench::JsonBench json("core");

  const bool gate_ok = RunLayoutGate();
  json.AddGate("layout_bit_identical", gate_ok);
  if (!gate_ok) {
    json.Write();
    return 1;
  }

  const int runs = bench::FastMode() ? 3 : 5;
  auto time_ms = [runs](const std::function<void()>& fn) {
    return bench::MedianTimeMs(fn, runs);
  };
  io::TableWriter table({"bench", "time", "speedup"});
  auto record = [&](const std::string& name, double ms) {
    table.AddRow({name, bench::FormatMs(ms), "-"});
    json.AddResult(name, ms);
  };

  // ---------------------------------------------------------- fill scan
  // The FillCounts-dominated microbench: a large-alphabet count structure
  // far bigger than L2, hit with random ranges. The old layout pays k
  // strided misses per query; the flat layout two contiguous k-wide
  // loads. Target >= 1.5x.
  {
    const int k = 16;
    const int64_t n = bench::FastMode() ? (1 << 16) : (1 << 19);
    const size_t queries = bench::FastMode() ? 200000 : 1000000;
    seq::Sequence s = MakeString(k, n);
    seq::PrefixCounts flat(s);
    RowMajorPrefixCounts reference(s);
    auto ranges = MakeRanges(n, queries);
    std::vector<int64_t> scratch(k);
    int64_t sink = 0;
    auto sweep = [&](auto& counts) {
      for (const auto& [start, end] : ranges) {
        counts.FillCounts(start, end, scratch);
        sink += scratch[0] + scratch[k - 1];
      }
    };
    double row_ms = time_ms([&] { sweep(reference); });
    double flat_ms = time_ms([&] { sweep(flat); });
    double speedup = row_ms / flat_ms;
    std::printf("fill scan (k=%d, n=%lld, %zu queries): row-major %s, "
                "flat %s, %.2fx (sink %lld)\n",
                k, static_cast<long long>(n), queries,
                bench::FormatMs(row_ms).c_str(),
                bench::FormatMs(flat_ms).c_str(), speedup,
                static_cast<long long>(sink));
    table.AddRow({"fill_scan_row_major_k16", bench::FormatMs(row_ms), "-"});
    table.AddRow({"fill_scan_flat_k16", bench::FormatMs(flat_ms),
                  StrFormat("%.2fx", speedup)});
    json.AddResult("fill_scan_row_major_k16", row_ms);
    json.AddResult("fill_scan_flat_k16", flat_ms, speedup);
    json.AddGate("fill_scan_speedup_target_1_5x", speedup >= 1.5);
  }

  // ------------------------------------------------------- build + scans
  {
    const int64_t n = bench::FastMode() ? (1 << 15) : (1 << 17);
    seq::Sequence s4 = MakeString(4, n);
    double build_ms = time_ms([&] {
      for (int rep = 0; rep < 8; ++rep) {
        seq::PrefixCounts counts(s4);
        if (counts.sequence_size() != n) std::abort();
      }
    });
    record("prefix_build_k4_x8", build_ms);

    seq::Sequence s2 = MakeString(2, n);
    core::ChiSquareContext ctx2(seq::MultinomialModel::Uniform(2));
    seq::PrefixCounts counts2(s2);
    record("find_mss_k2", time_ms([&] { core::FindMss(counts2, ctx2); }));
    record("find_top_t_100_k2",
           time_ms([&] { core::FindTopT(counts2, ctx2, 100); }));
    record("find_threshold_k2", time_ms([&] {
             core::FindAboveThreshold(counts2, ctx2, /*alpha0=*/15.0);
           }));
    record("find_min_length_k2",
           time_ms([&] { core::FindMssMinLength(counts2, ctx2, n / 8); }));
    record("find_length_bounded_k2", time_ms([&] {
             core::FindMssLengthBounded(counts2, ctx2, 16, 4096);
           }));
    record("find_mss_parallel_hw", time_ms([&] {
             core::FindMssParallel(counts2, ctx2, /*num_threads=*/0);
           }));

    // k=4 under a uniform null: one probability class, so the skip
    // solves one cover quadratic where it once solved four.
    core::ChiSquareContext ctx4(seq::MultinomialModel::Uniform(4));
    seq::PrefixCounts counts4(s4);
    record("find_mss_k4", time_ms([&] { core::FindMss(counts4, ctx4); }));
    record("find_threshold_k4", time_ms([&] {
             core::FindAboveThreshold(counts4, ctx4, /*alpha0=*/20.0);
           }));
  }

  // ------------------------------------------ chain cover vs serial loop
  // The lockstep ChainCoverScan against the serial loop it replaced
  // (tests/testing/chain_cover_reference.h), timed in one process batch
  // by batch; each row's speedup is the median per-batch ratio. Records
  // are the size of perfbench cli_mining's long k=4 records. The constant
  // record raises the MSS floor in every row, the worst case for lockstep
  // speculation.
  {
    const int64_t n = 16000;
    const int batches = bench::FastMode() ? 7 : 15;
    seq::Sequence random4 = MakeString(4, n);
    seq::PrefixCounts counts4(random4);
    seq::Sequence constant4 =
        seq::Sequence::FromSymbols(4, std::vector<uint8_t>(n, 0)).value();
    seq::PrefixCounts constant_counts(constant4);
    core::ChiSquareContext ctx4(seq::MultinomialModel::Uniform(4));
    const double alpha0 = stats::ChiSquareThresholdForPValue(1e-6, 4);
    auto compare = [&](const std::string& name,
                       const std::function<void()>& reference,
                       const std::function<void()>& lockstep) {
      const bench::InterleavedTiming timing =
          bench::InterleavedAB(reference, lockstep, batches);
      table.AddRow({StrCat(name, "_reference"),
                    bench::FormatMs(timing.reference_ms), "-"});
      table.AddRow({name, bench::FormatMs(timing.candidate_ms),
                    StrFormat("%.2fx", timing.ratio)});
      json.AddResult(StrCat(name, "_reference"), timing.reference_ms);
      json.AddResult(name, timing.candidate_ms, timing.ratio);
    };
    compare(
        "chain_cover_mss_k4",
        [&] { testing::ReferenceFindMssInRange(counts4, ctx4, 0, n, 1, n); },
        [&] { core::FindMss(counts4, ctx4); });
    compare(
        "chain_cover_topt_k4",
        [&] { testing::ReferenceFindTopT(counts4, ctx4, 10); },
        [&] { core::FindTopT(counts4, ctx4, 10); });
    compare(
        "chain_cover_threshold_k4",
        [&] {
          testing::ReferenceFindAboveThreshold(counts4, ctx4, alpha0, 1000);
        },
        [&] {
          core::FindAboveThreshold(counts4, ctx4, alpha0, {.max_matches = 1000});
        });
    compare(
        "chain_cover_minlen_k4",
        [&] {
          testing::ReferenceFindMssInRange(counts4, ctx4, 0, n, 1000, n);
        },
        [&] { core::FindMssMinLength(counts4, ctx4, 1000); });
    compare(
        "chain_cover_mss_k4_constant",
        [&] {
          testing::ReferenceFindMssInRange(constant_counts, ctx4, 0, n, 1, n);
        },
        [&] { core::FindMss(constant_counts, ctx4); });
  }

  // ------------------------------------- the query batch's costly kinds
  // Top-disjoint, ARLM and blocked at the size of one corpus record of
  // the end-to-end CLI workload (perfbench cli_mining): ARLM is
  // quadratic in the run count, so the 2^17 string above is far too long
  // for it.
  {
    const int64_t n = bench::FastMode() ? 4000 : 10000;
    seq::Sequence s2 = MakeString(2, n);
    seq::PrefixCounts counts2(s2);
    core::ChiSquareContext ctx2(seq::MultinomialModel::Uniform(2));
    seq::Sequence s4 = MakeString(4, 2 * n);
    seq::PrefixCounts counts4(s4);
    core::ChiSquareContext ctx4(seq::MultinomialModel::Uniform(4));
    record("find_top_disjoint_k4", time_ms([&] {
             core::FindTopDisjoint(counts4, ctx4,
                                   {.t = 4, .min_length = 8,
                                    .min_chi_square = 0.0});
           }));
    record("find_mss_arlm_k2",
           time_ms([&] { core::FindMssArlm(s2, counts2, ctx2); }));
    record("find_mss_blocked_k2", time_ms([&] {
             core::FindMssBlocked(s2, counts2, ctx2, /*block_size=*/64);
           }));
  }

  // ------------------------------------------------------- tight kernels
  {
    const int k = 20;
    core::ChiSquareContext ctx(seq::MultinomialModel::Uniform(k));
    std::vector<int64_t> counts(k, 100);
    const int reps = bench::FastMode() ? 2000000 : 20000000;
    double eval_ms = time_ms([&] {
      double acc = 0.0;
      for (int i = 0; i < reps; ++i) acc += ctx.Evaluate(counts, 100 * k);
      if (acc < 0.0) std::abort();
    });
    record(StrCat("chi_square_evaluate_k20_x", reps), eval_ms);

    // The skip solver on one balanced count vector, under the uniform
    // null (one probability class) and under the harmonic null (20
    // classes: every symbol's quadratic is solved).
    const int skip_reps = bench::FastMode() ? 200000 : 2000000;
    auto time_skip = [&](const core::ChiSquareContext& context) {
      std::vector<int64_t> skip_counts(k);
      int64_t l = 0;
      for (int c = 0; c < k; ++c) {
        skip_counts[c] = static_cast<int64_t>(1000.0 * context.probs()[c]);
        l += skip_counts[c];
      }
      const double x2 = context.Evaluate(skip_counts, l);
      core::SkipSolver solver(context);
      return time_ms([&] {
        int64_t acc = 0;
        for (int i = 0; i < skip_reps; ++i) {
          acc += solver.MaxSafeExtension(skip_counts, l, x2, x2 + 25.0);
        }
        if (acc < 0) std::abort();
      });
    };
    record(StrCat("skip_solver_k20_x", skip_reps), time_skip(ctx));
    core::ChiSquareContext harmonic(seq::MultinomialModel::Harmonic(k));
    record(StrCat("skip_solver_k20_harmonic_x", skip_reps),
           time_skip(harmonic));
  }

  std::printf("\n%s", table.Render().c_str());
  if (!json.Write()) return 1;
  return json.AllGatesPass() ? 0 : 1;
}
