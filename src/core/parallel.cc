#include "core/parallel.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/chain_cover.h"

namespace sigsub {
namespace core {

MssResult MssShardScan(const seq::PrefixCounts& counts,
                       const ChiSquareContext& context, int shard,
                       int num_shards, AtomicMax* shared_best) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  SIGSUB_CHECK(shard >= 0 && shard < num_shards);
  const int64_t n = counts.sequence_size();
  MssResult local;
  local.best = Substring{0, 0, 0.0};
  bool found = false;
  // The floor is the shard's own best; the skips use the maximum shared
  // by all shards, which is never below it.
  local.stats = ChainCoverScan(
      counts, context, 0, n, /*min_length=*/1, n, shard, num_shards,
      [&](int64_t i, int64_t end, double x2) {
        if (x2 > local.best.chi_square || !found) {
          found = true;
          local.best = Substring{i, end, x2};
          shared_best->Update(x2);
        }
        return local.best.chi_square;
      },
      [&] { return shared_best->load(); });
  return local;
}

MssResult MergeShardResults(std::span<const MssResult> shards) {
  SIGSUB_CHECK(!shards.empty());
  MssResult result = shards[0];
  for (size_t s = 1; s < shards.size(); ++s) {
    if (shards[s].best.chi_square > result.best.chi_square) {
      result.best = shards[s].best;
    }
    result.stats.Merge(shards[s].stats);
  }
  return result;
}

MssResult FindMssParallel(const seq::PrefixCounts& counts,
                          const ChiSquareContext& context, int num_threads) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  const int64_t n = counts.sequence_size();
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  num_threads = static_cast<int>(
      std::min<int64_t>(num_threads, std::max<int64_t>(1, n)));

  AtomicMax shared_best;
  if (num_threads == 1) {
    return MssShardScan(counts, context, 0, 1, &shared_best);
  }

  std::vector<MssResult> per_shard(num_threads);
  ThreadPool pool(num_threads);
  for (int shard = 0; shard < num_threads; ++shard) {
    MssResult* slot = &per_shard[static_cast<size_t>(shard)];
    pool.Submit([&counts, &context, shard, num_threads, &shared_best, slot] {
      *slot = MssShardScan(counts, context, shard, num_threads, &shared_best);
    });
  }
  pool.Wait();
  return MergeShardResults(per_shard);
}

Result<MssResult> FindMssParallel(const seq::Sequence& sequence,
                                  const seq::MultinomialModel& model,
                                  int num_threads) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindMssParallel(counts, context, num_threads);
}

}  // namespace core
}  // namespace sigsub
