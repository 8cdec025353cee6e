#ifndef SIGSUB_CORE_PARALLEL_H_
#define SIGSUB_CORE_PARALLEL_H_

#include <cstdint>
#include <span>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/atomic_max.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// Multi-threaded MSS (Problem 1). Start positions are strided across
/// threads; each thread runs the same chain-cover skip scan (MssShardScan)
/// against a shared atomic X²_max, so a discovery by any thread immediately
/// widens every thread's skips. Exact: a substring is only ever skipped
/// when its cover bound is at most the shared maximum at that instant,
/// which never exceeds the final maximum.
///
/// The returned X² value equals the sequential algorithm's; when several
/// substrings tie at the maximum, which one is reported may vary across
/// runs (thread interleaving picks the witness).
///
/// `num_threads` <= 0 selects std::thread::hardware_concurrency().
Result<MssResult> FindMssParallel(const seq::Sequence& sequence,
                                  const seq::MultinomialModel& model,
                                  int num_threads = 0);

/// Kernel variant (see FindMss). Runs the shards on a transient
/// ThreadPool of `num_threads` workers (inline when num_threads == 1).
MssResult FindMssParallel(const seq::PrefixCounts& counts,
                          const ChiSquareContext& context,
                          int num_threads = 0);

/// One strided shard of the parallel scan: ChainCoverScan over start
/// positions n-1-shard, n-1-shard-num_shards, ..., publishing each new
/// shard-local best to `shared_best` and taking its skips against that
/// shared maximum, read after each new local best and whenever a row of
/// the scan is committed. Exposed so external executors — engine::Engine
/// splitting one oversized record across its ThreadPool — can schedule
/// shards themselves; FindMssParallel is the packaged composition. Pure
/// apart from `shared_best`; shards of one scan may run concurrently in
/// any order.
MssResult MssShardScan(const seq::PrefixCounts& counts,
                       const ChiSquareContext& context, int shard,
                       int num_shards, AtomicMax* shared_best);

/// Folds per-shard results into the scan result: the highest-X² witness
/// (first shard wins ties) and summed ScanStats.
MssResult MergeShardResults(std::span<const MssResult> shards);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_PARALLEL_H_
