#include "core/suffix_scan.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/significance.h"
#include "core/x2_kernel.h"
#include "seq/prefix_counts.h"
#include "stats/chi_squared.h"

namespace sigsub {
namespace core {
namespace {

constexpr int32_t kEmpty = -1;

/// Tracks transient allocation high water through the SA-IS recursion so
/// SuffixScanStats::peak_index_bytes reports honest numbers for the
/// memory gate in bench/suffix_scan.cc.
class MemTracker {
 public:
  void Add(int64_t bytes) {
    current_ += bytes;
    peak_ = std::max(peak_, current_);
  }
  void Sub(int64_t bytes) { current_ -= bytes; }
  int64_t current() const { return current_; }
  int64_t peak() const { return peak_; }

 private:
  int64_t current_ = 0;
  int64_t peak_ = 0;
};

/// A zero-filled build buffer. One of at least 1 MiB gets its own
/// anonymous mapping, unmapped when the buffer dies: from the heap, once
/// glibc's dynamic mmap threshold has risen past its size, it would leave
/// an untrimmed heap top behind that lifts the resident set of every later
/// build. Smaller buffers stay on the heap.
template <typename T>
class Scratch {
 public:
  explicit Scratch(int64_t size) {
    const size_t bytes = static_cast<size_t>(size) * sizeof(T);
    if (bytes >= kPageBackedBytes) {
      void* pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (pages != MAP_FAILED) {
        data_ = static_cast<T*>(pages);
        mapped_bytes_ = bytes;
        return;
      }
    }
    heap_.resize(static_cast<size_t>(size));
    data_ = heap_.data();
  }
  ~Scratch() {
    if (mapped_bytes_ > 0) ::munmap(data_, mapped_bytes_);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T* data() const { return data_; }
  T& operator[](int64_t i) const { return data_[i]; }

 private:
  static constexpr size_t kPageBackedBytes = size_t{1} << 20;

  T* data_ = nullptr;
  size_t mapped_bytes_ = 0;
  std::vector<T> heap_;
};

/// Records of at least 2·kParallelChunk symbols build and sweep on a
/// worker pool. A parallel pass splits its range into contiguous chunks
/// of at least kParallelChunk entries: up to kChunksPerWorker per worker,
/// so the pool's stealing evens out uneven chunks, and at most
/// kMaxChunks, so per-chunk tallies fit a fixed array and a build task
/// allocates nothing.
constexpr int64_t kParallelChunk = int64_t{1} << 16;
constexpr int64_t kChunksPerWorker = 4;
constexpr int kMaxChunks = 64;

using ChunkTallies = std::array<int64_t, kMaxChunks>;

class ChunkWorkers {
 public:
  /// One transient pool per build or sweep: either may run inside an
  /// Engine worker, which must never Wait() on the engine's own pool. The
  /// calling thread runs chunks too while it waits, so the pool has one
  /// thread fewer than the hardware.
  explicit ChunkWorkers(int64_t n) {
    if (n < 2 * kParallelChunk) return;
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 1) pool_ = std::make_unique<ThreadPool>(static_cast<int>(hw) - 1);
  }

  /// Splits every range into exactly `chunks` (clamped to [1,
  /// kMaxChunks]) chunks, empty ones included, run on at least one pool
  /// thread besides the caller: the sweep's test seam, which forces chunk
  /// boundaries onto small records.
  static ChunkWorkers Forced(int chunks) {
    ChunkWorkers workers(0);
    workers.forced_chunks_ = std::clamp(chunks, 1, kMaxChunks);
    if (workers.forced_chunks_ > 1) {
      const int hw = static_cast<int>(std::thread::hardware_concurrency());
      workers.pool_ = std::make_unique<ThreadPool>(std::max(hw - 1, 1));
    }
    return workers;
  }

  int workers() const { return pool_ ? pool_->num_threads() + 1 : 1; }

  /// The number of chunks ForChunks splits a range of `size` into.
  int Chunks(int64_t size) const {
    if (forced_chunks_ > 0) return forced_chunks_;
    if (!pool_ || size < 2 * kParallelChunk) return 1;
    return static_cast<int>(std::min<int64_t>(
        {size / kParallelChunk, workers() * kChunksPerWorker, kMaxChunks}));
  }

  /// The first index of chunk c of [0, size) split into `chunks`.
  static int64_t ChunkBegin(int64_t size, int chunks, int c) {
    return size * c / chunks;
  }

  /// Runs fn(c, begin, end) over the Chunks(size) contiguous chunks of
  /// [0, size) and returns when all have finished.
  template <typename Fn>
  void ForChunks(int64_t size, const Fn& fn) const {
    const int chunks = Chunks(size);
    if (chunks == 1) {
      fn(0, int64_t{0}, size);
      return;
    }
    for (int c = 0; c < chunks; ++c) {
      pool_->Submit([&fn, size, chunks, c] {
        fn(c, ChunkBegin(size, chunks, c), ChunkBegin(size, chunks, c + 1));
      });
    }
    pool_->Wait();
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
  int forced_chunks_ = 0;  // 0: chunks follow the range size.
};

/// Turns per-chunk tallies into their exclusive prefix sums; returns the
/// total.
int64_t ExclusivePrefix(int chunks, ChunkTallies* tallies) {
  int64_t total = 0;
  for (int c = 0; c < chunks; ++c) {
    const int64_t tally = (*tallies)[c];
    (*tallies)[c] = total;
    total += tally;
  }
  return total;
}

void FillEmpty(const ChunkWorkers& workers, int32_t* a, int64_t size) {
  workers.ForChunks(size, [a](int, int64_t begin, int64_t end) {
    std::fill(a + begin, a + end, kEmpty);
  });
}

/// types[i] = 1 iff suffix i is S-type. A chunk settles every position
/// before its trailing run of equal symbols on its own; each run takes the
/// type of the position after it, settled right to left once every chunk
/// is done (s ends with a unique sentinel, so the last run is just it).
template <typename CharT>
void ClassifyTypes(const CharT* s, int64_t n, const ChunkWorkers& workers,
                   uint8_t* types) {
  ChunkTallies run_start{};
  // A byte store may alias any object, the closure's captures included, so
  // the loop reads its pointers from locals the compiler keeps in
  // registers.
  workers.ForChunks(n, [s, types, &run_start](int c, int64_t begin,
                                              int64_t end) {
    const CharT* const text = s;
    uint8_t* const out = types;
    int64_t r = end - 1;
    while (r > begin && text[r - 1] == text[end - 1]) --r;
    run_start[c] = r;
    // s[r − 1] != s[r]: position r − 1 never reads the unsettled run.
    for (int64_t i = r - 1; i >= begin; --i) {
      out[i] = (text[i] < text[i + 1] ||
                (text[i] == text[i + 1] && out[i + 1]))
                   ? 1
                   : 0;
    }
  });
  const int chunks = workers.Chunks(n);
  for (int c = chunks - 1; c >= 0; --c) {
    const int64_t end = ChunkWorkers::ChunkBegin(n, chunks, c + 1);
    const bool s_type = end == n || s[end - 1] < s[end] ||
                        (s[end - 1] == s[end] && types[end]);
    std::fill(types + run_start[c], types + end, s_type ? 1 : 0);
  }
}

/// Bucket boundaries per symbol, from the level's `tails` (one past the
/// last slot of each symbol's bucket): heads (first slot) or tails.
void LoadBuckets(const int32_t* tails, int64_t k, bool heads, int32_t* bkt) {
  if (heads) {
    bkt[0] = 0;
    std::copy(tails, tails + k - 1, bkt + 1);
  } else {
    std::copy(tails, tails + k, bkt);
  }
}

/// The induce loops read no type array: scanning left to right, every
/// suffix j InduceL meets is LMS or L-type, so j − 1 is L-type iff
/// s[j − 1] >= s[j]; scanning right to left, InduceS meets j in bucket
/// c = s[j] at slot i, and j is S-type iff i has already been filled by
/// this pass, i.e. i >= bkt[c] (an L-type j sits below the bucket's S
/// region, which bkt[c] never leaves; a placed LMS entry not yet
/// overwritten has s[j − 1] > s[j] and induces nothing either way). Each
/// step then reads only the adjacent symbols s[j − 1] and s[j]; the loops
/// prefetch them kInducePrefetch slots ahead, since they are a random
/// read once the record outgrows the cache. A slot not yet induced makes a
/// useless but harmless prefetch.
constexpr int64_t kInducePrefetch = 32;

template <typename CharT>
void PrefetchPredecessor(const CharT* s, const int32_t* sa, int64_t slot) {
  const int64_t j = sa[slot];
  if (j > 0) __builtin_prefetch(s + j - 1);
}

template <typename CharT>
void InduceL(const CharT* s, int64_t n, int64_t k, const int32_t* tails,
             int32_t* bkt, int32_t* sa) {
  LoadBuckets(tails, k, /*heads=*/true, bkt);
  for (int64_t i = 0; i < n; ++i) {
    if (i + kInducePrefetch < n) {
      PrefetchPredecessor(s, sa, i + kInducePrefetch);
    }
    const int64_t j = sa[i];
    if (j > 0 && s[j - 1] >= s[j]) {
      sa[bkt[s[j - 1]]++] = static_cast<int32_t>(j - 1);
    }
  }
}

template <typename CharT>
void InduceS(const CharT* s, int64_t n, int64_t k, const int32_t* tails,
             int32_t* bkt, int32_t* sa) {
  LoadBuckets(tails, k, /*heads=*/false, bkt);
  for (int64_t i = n - 1; i >= 0; --i) {
    if (i >= kInducePrefetch) {
      PrefetchPredecessor(s, sa, i - kInducePrefetch);
    }
    const int64_t j = sa[i];
    if (j <= 0) continue;
    const CharT c = s[j];
    if (s[j - 1] < c || (s[j - 1] == c && i >= bkt[c])) {
      sa[--bkt[s[j - 1]]] = static_cast<int32_t>(j - 1);
    }
  }
}

/// SA-IS (Nong, Zhang & Chan, "Two Efficient Algorithms for Linear Time
/// Suffix Array Construction"): induced sorting of LMS substrings,
/// recursion on their names, then induction of the full array. Requires
/// s[n-1] to be a unique smallest sentinel; writes ranks into sa[0..n).
/// The induce loops and the bucket placements are serial; every other
/// pass runs in chunks on `workers`.
template <typename CharT>
void SaIs(const CharT* s, int32_t* sa, int64_t n, int64_t k,
          const ChunkWorkers& workers, MemTracker* mem) {
  SIGSUB_DCHECK(n >= 1);
  if (n == 1) {
    sa[0] = 0;
    return;
  }

  Scratch<uint8_t> types(n);
  mem->Add(n);
  ClassifyTypes(s, n, workers, types.data());
  auto is_lms = [&types](int64_t i) {
    return i > 0 && types[i] && !types[i - 1];
  };

  // The symbol counts, as bucket tails, are taken once per level; `bkt`
  // is the working copy each placement or induce round starts from.
  Scratch<int32_t> tails(k);
  Scratch<int32_t> bkt(k);
  mem->Add(k * 8);
  for (int64_t i = 0; i < n; ++i) ++tails[s[i]];
  for (int64_t c = 1; c < k; ++c) tails[c] += tails[c - 1];

  // Stage 1: sort the LMS substrings by one induction round.
  FillEmpty(workers, sa, n);
  LoadBuckets(tails.data(), k, /*heads=*/false, bkt.data());
  for (int64_t i = 1; i < n; ++i) {
    if (is_lms(i)) sa[--bkt[s[i]]] = static_cast<int32_t>(i);
  }
  InduceL(s, n, k, tails.data(), bkt.data(), sa);
  InduceS(s, n, k, tails.data(), bkt.data(), sa);

  // Compact the sorted LMS positions into sa[0..n1): each chunk packs its
  // own to its front, then the packed runs move down in chunk order, each
  // to at or below where it is, over runs already moved.
  ChunkTallies packed{};
  workers.ForChunks(n, [&](int c, int64_t begin, int64_t end) {
    int64_t j = begin;
    for (int64_t i = begin; i < end; ++i) {
      if (is_lms(sa[i])) sa[j++] = sa[i];
    }
    packed[c] = j - begin;
  });
  int64_t n1 = 0;
  const int compact_chunks = workers.Chunks(n);
  for (int c = 0; c < compact_chunks; ++c) {
    const int64_t begin = ChunkWorkers::ChunkBegin(n, compact_chunks, c);
    std::memmove(sa + n1, sa + begin,
                 static_cast<size_t>(packed[c]) * sizeof(int32_t));
    n1 += packed[c];
  }

  // Name the LMS substrings (equal name iff equal substring) into the
  // upper half of sa, indexed by position/2 (LMS positions are >= 2
  // apart, and n1 <= n/2, so the slots never collide). The first pass
  // writes a 0/1 "differs from the previous rank" flag into each slot and
  // counts the flags per chunk; the second turns the flags into names,
  // starting each chunk from the flags of the chunks before it.
  FillEmpty(workers, sa + n1, n - n1);
  auto differs = [&](int64_t pos, int64_t prev) {
    for (int64_t d = 0;; ++d) {
      if (s[pos + d] != s[prev + d] || types[pos + d] != types[prev + d]) {
        return true;
      }
      if (d > 0 && (is_lms(pos + d) || is_lms(prev + d))) {
        return !(is_lms(pos + d) && is_lms(prev + d));
      }
    }
  };
  ChunkTallies firsts{};
  workers.ForChunks(n1, [&](int c, int64_t begin, int64_t end) {
    int64_t count = 0;
    for (int64_t r = begin; r < end; ++r) {
      const int64_t pos = sa[r];
      const bool first = r == 0 || differs(pos, sa[r - 1]);
      sa[n1 + pos / 2] = first ? 1 : 0;
      count += first ? 1 : 0;
    }
    firsts[c] = count;
  });
  const int64_t names = ExclusivePrefix(workers.Chunks(n1), &firsts);
  workers.ForChunks(n1, [&](int c, int64_t begin, int64_t end) {
    int64_t name = firsts[c] - 1;
    for (int64_t r = begin; r < end; ++r) {
      int32_t& slot = sa[n1 + sa[r] / 2];
      name += slot;
      slot = static_cast<int32_t>(name);
    }
  });
  for (int64_t i = n - 1, j = n - 1; i >= n1; --i) {
    if (sa[i] != kEmpty) sa[j--] = sa[i];
  }

  // The reduced string (one name per LMS substring, text order) ends with
  // the sentinel's name 0, itself a unique smallest sentinel — recurse
  // unless the names are already distinct.
  int32_t* s1 = sa + (n - n1);
  if (names < n1) {
    SaIs<int32_t>(s1, sa, n1, names, workers, mem);
  } else {
    workers.ForChunks(n1, [&](int, int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        sa[s1[i]] = static_cast<int32_t>(i);
      }
    });
  }

  // Turn LMS ranks back into text positions: list the LMS positions in
  // text order in the s1 slots (each chunk from its exclusive prefix of
  // the LMS counts; a lone chunk starts from 0 and counts nothing), then
  // gather.
  ChunkTallies lms_before{};
  if (workers.Chunks(n) > 1) {
    workers.ForChunks(n, [&](int c, int64_t begin, int64_t end) {
      int64_t count = 0;
      for (int64_t i = begin; i < end; ++i) count += is_lms(i) ? 1 : 0;
      lms_before[c] = count;
    });
    ExclusivePrefix(workers.Chunks(n), &lms_before);
  }
  workers.ForChunks(n, [&](int c, int64_t begin, int64_t end) {
    int64_t j = lms_before[c];
    for (int64_t i = begin; i < end; ++i) {
      if (is_lms(i)) s1[j++] = static_cast<int32_t>(i);
    }
  });
  workers.ForChunks(n1, [&](int, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sa[i] = s1[sa[i]];
  });

  // Stage 2: place the now fully sorted LMS suffixes at their bucket
  // tails and induce the rest.
  FillEmpty(workers, sa + n1, n - n1);
  LoadBuckets(tails.data(), k, /*heads=*/false, bkt.data());
  for (int64_t i = n1 - 1; i >= 0; --i) {
    int64_t j = sa[i];
    sa[i] = kEmpty;
    sa[--bkt[s[j]]] = static_cast<int32_t>(j);
  }
  InduceL(s, n, k, tails.data(), bkt.data(), sa);
  InduceS(s, n, k, tails.data(), bkt.data(), sa);

  mem->Sub(n);
  mem->Sub(k * 8);
}

/// Copies the record into a sentinel-terminated working array (symbols
/// shifted by +1 so 0 is the unique smallest sentinel), runs SA-IS, and
/// drops the sentinel's rank-0 entry. The copy doubles as the alphabet
/// check: a chunk stops at its first symbol >= k, and the first chunk that
/// stopped names the record's first such position, which is returned
/// (nothing is built); otherwise it returns -1.
template <typename CharT, typename SymAt>
int64_t BuildSuffixArray(SymAt sym_at, int64_t n, int64_t k,
                         const ChunkWorkers& workers,
                         std::vector<int32_t>* sa, MemTracker* mem) {
  // Zero-filled, so work[n] is already the sentinel.
  Scratch<CharT> work(n + 1);
  ChunkTallies first_bad{};
  workers.ForChunks(n, [&](int c, int64_t begin, int64_t end) {
    CharT* const out = work.data();  // As in ClassifyTypes.
    first_bad[c] = -1;
    for (int64_t i = begin; i < end; ++i) {
      const int64_t symbol = sym_at(i);
      if (symbol >= k) {
        first_bad[c] = i;
        return;
      }
      out[i] = static_cast<CharT>(symbol + 1);
    }
  });
  for (int c = 0; c < workers.Chunks(n); ++c) {
    if (first_bad[c] >= 0) return first_bad[c];
  }
  mem->Add((n + 1) * static_cast<int64_t>(sizeof(CharT)));
  std::vector<int32_t> full(static_cast<size_t>(n) + 1);
  mem->Add((n + 1) * 4);
  SaIs<CharT>(work.data(), full.data(), n + 1, k + 1, workers, mem);
  SIGSUB_DCHECK(full[0] == static_cast<int32_t>(n));
  // Shift the sentinel's entry out in place: `full` becomes the array.
  std::copy(full.begin() + 1, full.end(), full.begin());
  full.pop_back();
  *sa = std::move(full);
  mem->Sub((n + 1) * static_cast<int64_t>(sizeof(CharT)));
  mem->Sub((n + 1) * 4);
  return -1;
}

}  // namespace

Result<SuffixScan> SuffixScan::Build(std::span<const uint8_t> symbols,
                                     int alphabet_size) {
  if (alphabet_size < 2 || alphabet_size > 256) {
    return Status::InvalidArgument(
        StrCat("suffix scan alphabet size must be in [2, 256], got ",
               alphabet_size));
  }
  SuffixScan scan;
  scan.data_ = symbols.data();
  scan.n_ = static_cast<int64_t>(symbols.size());
  scan.k_ = alphabet_size;
  for (int b = 0; b < 256; ++b) {
    scan.decode_[b] = static_cast<uint8_t>(b);
  }
  SIGSUB_RETURN_IF_ERROR(scan.BuildIndex());
  return scan;
}

Result<SuffixScan> SuffixScan::BuildMapped(std::span<const uint8_t> bytes,
                                           std::span<const uint8_t, 256> decode,
                                           int alphabet_size) {
  if (alphabet_size < 2 || alphabet_size > 255) {
    return Status::InvalidArgument(
        StrCat("mapped suffix scan alphabet size must be in [2, 255], got ",
               alphabet_size));
  }
  SuffixScan scan;
  scan.data_ = bytes.data();
  scan.n_ = static_cast<int64_t>(bytes.size());
  scan.k_ = alphabet_size;
  std::copy(decode.begin(), decode.end(), scan.decode_.begin());
  SIGSUB_RETURN_IF_ERROR(scan.BuildIndex());
  return scan;
}

Status SuffixScan::BuildIndex() {
  constexpr int64_t kMaxRecord =
      static_cast<int64_t>(std::numeric_limits<int32_t>::max()) - 2;
  if (n_ > kMaxRecord) {
    return Status::InvalidArgument(
        StrCat("record of ", n_, " symbols exceeds the 32-bit suffix index ",
               "limit of ", kMaxRecord));
  }
  if (n_ == 0) return Status::OK();

  MemTracker mem;
  ChunkWorkers workers(n_);
  build_workers_ = workers.workers();
  auto sym_at = [this](int64_t i) { return static_cast<int64_t>(Sym(i)); };
  const int64_t bad =
      k_ + 1 <= 256
          ? BuildSuffixArray<uint8_t>(sym_at, n_, k_, workers, &sa_, &mem)
          : BuildSuffixArray<uint16_t>(sym_at, n_, k_, workers, &sa_, &mem);
  if (bad >= 0) {
    return Status::InvalidArgument(
        StrCat("byte value ", static_cast<int>(data_[bad]), " at position ",
               bad, " is outside the ", k_, "-symbol alphabet"));
  }
  mem.Add(n_ * 4);  // sa_ itself.

  // LCP by Φ/PLCP (Kärkkäinen, Manzini & Puglisi, "Permuted Longest-Common-
  // Prefix Array"): Φ[i] is the start of the suffix ranked just before
  // suffix i. Walking i in text order, PLCP[i] = lcp(i, Φ[i]) overwrites
  // Φ[i] in place, and PLCP[i+1] >= PLCP[i] − 1 keeps the walk O(n). A
  // last pass permutes PLCP into rank order: lcp_[r] = PLCP[sa_[r]].
  // The comparing pass reads and writes Φ in text order; the random
  // accesses sit in the Φ and permutation passes, where they are
  // independent of each other, which makes this faster than a rank-array
  // (Kasai) pass once the index outgrows the cache. All three passes run
  // in chunks: the Φ writes are disjoint (SA is a permutation), and a
  // PLCP chunk starts its walk from h = 0, which is exact and costs at
  // most one extra full comparison per chunk. The PLCP pass also takes
  // the largest LCP, which tells a scan up front whether it can meet a
  // class deep enough for the sampled label counts.
  {
    Scratch<int32_t> plcp(n_);
    mem.Add(n_ * 4);
    workers.ForChunks(n_, [&](int, int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) {
        plcp[sa_[r]] = r == 0 ? -1 : sa_[r - 1];
      }
    });
    ChunkTallies deepest{};
    workers.ForChunks(n_, [&](int c, int64_t begin, int64_t end) {
      int64_t h = 0;
      int64_t chunk_max = 0;
      for (int64_t i = begin; i < end; ++i) {
        const int64_t j = plcp[i];
        if (j < 0) {
          plcp[i] = 0;
          h = 0;
          continue;
        }
        while (i + h < n_ && j + h < n_ && Sym(i + h) == Sym(j + h)) ++h;
        plcp[i] = static_cast<int32_t>(h);
        chunk_max = std::max(chunk_max, h);
        if (h > 0) --h;
      }
      deepest[c] = chunk_max;
    });
    max_lcp_ = *std::max_element(deepest.begin(), deepest.end());
    lcp_.resize(static_cast<size_t>(n_));
    mem.Add(n_ * 4);
    workers.ForChunks(n_, [&](int, int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) lcp_[r] = plcp[sa_[r]];
    });
    mem.Sub(n_ * 4);
  }

  index_bytes_ = n_ * 8;  // sa_ + lcp_.
  peak_index_bytes_ = mem.peak();
  return Status::OK();
}

namespace {

/// Scores the current prefix under the multinomial null with the fused X²
/// kernel — the same function every interval scanner uses, so
/// the value is bit-identical to scoring the substring's count vector out
/// of a PrefixCounts layout (the naive reference).
class MultinomialScorer {
 public:
  explicit MultinomialScorer(const ChiSquareContext& context)
      : kernel_(context),
        k_(context.alphabet_size()),
        counts_(static_cast<size_t>(context.alphabet_size()), 0) {}

  // A substring's cells are its symbols: the cell of record position i is
  // Sym(i), and a substring [p, p + d) covers the positions [p, p + d).
  int cells() const { return k_; }
  static constexpr int64_t kLead = 0;
  template <typename SymAt>
  static int64_t CellAt(SymAt sym, int64_t i) { return sym(i); }

  void Reset() { std::fill(counts_.begin(), counts_.end(), 0); }
  void Extend(uint8_t symbol) { ++counts_[symbol]; }
  // Hands out the count vector for the caller to overwrite whole.
  int64_t* Load(uint8_t /*last*/) { return counts_.data(); }
  double Score(int64_t length) const {
    return kernel_.EvaluateCounts(counts_.data(), length);
  }
  double PValue(double x2) const { return SubstringPValue(x2, k_); }

 private:
  X2Kernel kernel_;
  int k_;
  std::vector<int64_t> counts_;
};

/// Markov X²_M over the prefix's transition counts. Reset clears only the
/// touched cells so short classes do not pay k² per class.
class MarkovScorer {
 public:
  explicit MarkovScorer(const MarkovChiSquare& context)
      : context_(&context),
        k_(context.alphabet_size()),
        dist_(context.alphabet_size() * (context.alphabet_size() - 1)),
        pairs_(static_cast<size_t>(context.alphabet_size()) *
                   static_cast<size_t>(context.alphabet_size()),
               0) {}

  // A substring's cells are its transitions: the cell of record position
  // i >= 1 is the pair (Sym(i − 1), Sym(i)), and a substring [p, p + d)
  // covers the positions [p + 1, p + d).
  int cells() const { return k_ * k_; }
  static constexpr int64_t kLead = 1;
  template <typename SymAt>
  int64_t CellAt(SymAt sym, int64_t i) const {
    return static_cast<int64_t>(sym(i - 1)) * k_ + sym(i);
  }

  void Reset() {
    if (dense_) {
      std::fill(pairs_.begin(), pairs_.end(), 0);
      dense_ = false;
    } else {
      for (int64_t index : touched_) pairs_[static_cast<size_t>(index)] = 0;
    }
    touched_.clear();
    has_previous_ = false;
  }
  void Extend(uint8_t symbol) {
    if (has_previous_) {
      int64_t index = static_cast<int64_t>(previous_) * k_ + symbol;
      if (pairs_[static_cast<size_t>(index)] == 0) touched_.push_back(index);
      ++pairs_[static_cast<size_t>(index)];
    }
    previous_ = symbol;
    has_previous_ = true;
  }
  // Hands out the count vector for the caller to overwrite whole; `last`
  // is the final symbol of the counted prefix, where Extend continues.
  int64_t* Load(uint8_t last) {
    touched_.clear();
    dense_ = true;
    previous_ = last;
    has_previous_ = true;
    return pairs_.data();
  }
  double Score(int64_t /*length*/) const { return context_->Evaluate(pairs_); }
  double PValue(double x2) const { return dist_.Sf(x2); }

 private:
  const MarkovChiSquare* context_;
  int k_;
  stats::ChiSquaredDistribution dist_;
  std::vector<int64_t> pairs_;
  std::vector<int64_t> touched_;
  bool dense_ = false;  // Set by Load: every cell may be non-zero.
  bool has_previous_ = false;
  uint8_t previous_ = 0;
};

/// Sampled prefix counts of a record's cells (symbols under the
/// multinomial null, transitions under the Markov one). Row j holds the
/// int32 tally of the cells at positions [lead, min(j·step, n)); a range's
/// counts are the difference of the rows nearest its two ends, each
/// corrected by the at most step/2 positions between row and end.
class LabelCheckpoints {
 public:
  LabelCheckpoints(int64_t n, int64_t step, int cells, int64_t lead)
      : n_(n), step_(step), cells_(cells), lead_(lead) {}

  /// Row j >= 1 is row j − 1 plus the cells of positions
  /// [RowStart(j − 1), RowStart(j)), its segment. Each chunk of [0, n)
  /// tallies the rows whose segment starts in it, counting from zero;
  /// then, in chunk order, the last row of each chunk adds the (final)
  /// row before the chunk, and every other row of the chunk adds it in a
  /// second chunked pass.
  template <typename CellAt>
  void Build(CellAt cell_at, const ChunkWorkers& workers) {
    const int64_t num_rows = (n_ + step_ - 1) / step_ + 1;
    rows_.assign(static_cast<size_t>(num_rows * cells_), 0);
    // The first row whose segment starts at or after position x.
    auto first_row = [this](int64_t x) { return (x + step_ - 1) / step_ + 1; };
    workers.ForChunks(n_, [&](int, int64_t begin, int64_t end) {
      const int64_t first = first_row(begin);
      for (int64_t j = first; j < first_row(end); ++j) {
        int32_t* row = Row(j);
        if (j > first) std::copy(row - cells_, row, row);
        for (int64_t i = std::max(RowStart(j - 1), lead_); i < RowStart(j);
             ++i) {
          ++row[cell_at(i)];
        }
      }
    });
    const int chunks = workers.Chunks(n_);
    if (chunks == 1) return;
    auto add_row = [this](int64_t from, int64_t to) {
      const int32_t* carry = Row(from);
      int32_t* row = Row(to);
      for (int64_t c = 0; c < cells_; ++c) row[c] += carry[c];
    };
    for (int c = 1; c < chunks; ++c) {
      const int64_t first = first_row(ChunkWorkers::ChunkBegin(n_, chunks, c));
      const int64_t last =
          first_row(ChunkWorkers::ChunkBegin(n_, chunks, c + 1)) - 1;
      if (first <= last) add_row(first - 1, last);
    }
    workers.ForChunks(n_, [&](int c, int64_t begin, int64_t end) {
      if (c == 0) return;
      const int64_t first = first_row(begin);
      for (int64_t j = first; j < first_row(end) - 1; ++j) {
        add_row(first - 1, j);
      }
    });
  }

  /// Overwrites out[0, cells) with the cell counts of positions
  /// [begin, end) (lead <= begin <= end <= n); returns the number of
  /// positions read besides the rows.
  template <typename CellAt>
  int64_t Tally(int64_t begin, int64_t end, CellAt cell_at,
                int64_t* out) const {
    const int64_t jb = NearestRow(begin);
    const int64_t je = NearestRow(end);
    const int32_t* rb = Row(jb);
    const int32_t* re = Row(je);
    for (int c = 0; c < cells_; ++c) out[c] = int64_t{re[c]} - rb[c];
    return Correct(RowStart(je), end, 1, cell_at, out) +
           Correct(RowStart(jb), begin, -1, cell_at, out);
  }

 private:
  int64_t RowStart(int64_t j) const { return std::min(j * step_, n_); }
  int32_t* Row(int64_t j) { return rows_.data() + j * cells_; }
  const int32_t* Row(int64_t j) const { return rows_.data() + j * cells_; }

  int64_t NearestRow(int64_t x) const {
    const int64_t below = x / step_;
    return RowStart(below + 1) - x < x - below * step_ ? below + 1 : below;
  }

  /// Turns `sign`·P(row_start) in `out` into `sign`·P(x), where P(y) is
  /// the tally of positions [lead, y).
  template <typename CellAt>
  int64_t Correct(int64_t row_start, int64_t x, int64_t sign, CellAt cell_at,
                  int64_t* out) const {
    if (row_start > x) {
      sign = -sign;
      std::swap(row_start, x);
    }
    const int64_t from = std::max(row_start, lead_);
    for (int64_t i = from; i < x; ++i) out[cell_at(i)] += sign;
    return std::max<int64_t>(x - from, 0);
  }

  int64_t n_;
  int64_t step_;
  int64_t cells_;
  int64_t lead_;
  std::vector<int32_t> rows_;
};

Status ValidateOptions(const SuffixScanOptions& options) {
  if (options.top_n < 0) {
    return Status::InvalidArgument(
        StrCat("top_n must be >= 0, got ", options.top_n));
  }
  if (options.min_length < 1) {
    return Status::InvalidArgument(
        StrCat("min_length must be >= 1, got ", options.min_length));
  }
  if (options.max_length < 0 ||
      (options.max_length > 0 && options.max_length < options.min_length)) {
    return Status::InvalidArgument(
        StrCat("max_length must be 0 (unbounded) or >= min_length, got ",
               options.max_length));
  }
  if (options.min_count < 1) {
    return Status::InvalidArgument(
        StrCat("min_count must be >= 1, got ", options.min_count));
  }
  return Status::OK();
}

/// An open LCP interval on the sweep's stack: its string depth and left
/// bound. Both fit 32 bits (BuildIndex caps n at 2^31 − 2), which halves
/// the stack: on a^n it grows to n entries.
struct OpenInterval {
  int32_t depth;
  int32_t lb;
};

/// The interval stack the serial sweep holds once it has passed position
/// `begin`, as much of it as a chunk owning positions (begin, end] can
/// reach: every interval deeper than the chunk's minimum LCP m (position
/// n closes everything, so m is 0 there), over a floor that is never
/// popped. Those intervals are the strict right-to-left minima of
/// lcp[1, begin] above m, and each one's left bound is the position of
/// the next minimum to its left; a backward scan finds them and stops at
/// the first rank with LCP <= m, which is the floor (rank 0, LCP 0, at
/// the latest). The first chunk starts from the serial sweep's bottom.
std::vector<OpenInterval> StackAt(std::span<const int32_t> lcp, int64_t begin,
                                  int64_t end) {
  if (begin == 0) return {OpenInterval{0, 0}};
  const int64_t n = static_cast<int64_t>(lcp.size());
  int32_t floor_depth = 0;
  if (end < n) {
    floor_depth = lcp[begin + 1];
    for (int64_t i = begin + 2; i <= end; ++i) {
      floor_depth = std::min(floor_depth, lcp[i]);
    }
  }
  // Top first, each entry holding its own rank until the bounds shift.
  std::vector<OpenInterval> stack;
  int32_t below = std::numeric_limits<int32_t>::max();
  int64_t r = begin;
  for (; lcp[r] > floor_depth; --r) {
    if (lcp[r] < below) {
      below = lcp[r];
      stack.push_back(OpenInterval{below, static_cast<int32_t>(r)});
    }
  }
  stack.push_back(OpenInterval{lcp[r], static_cast<int32_t>(r)});
  std::reverse(stack.begin(), stack.end());
  for (size_t t = stack.size() - 1; t > 0; --t) stack[t].lb = stack[t - 1].lb;
  return stack;
}

}  // namespace

template <typename Context>
Result<SuffixScanResult> SuffixScan::ScanModel(const Context& context,
                                               const SuffixScanOptions& options,
                                               int sweep_chunks) const {
  if (context.alphabet_size() != k_) {
    return Status::InvalidArgument(
        StrCat("model alphabet size ", context.alphabet_size(),
               " != record alphabet size ", k_));
  }
  SIGSUB_RETURN_IF_ERROR(ValidateOptions(options));
  using Scorer =
      std::conditional_t<std::is_same_v<Context, MarkovChiSquare>,
                         MarkovScorer, MultinomialScorer>;
  Scorer scorer(context);

  // A candidate remembers its SA interval instead of its positions: the
  // representative (minimum) start and the position list are resolved only
  // for the survivors, after top-N selection.
  struct Candidate {
    double x2 = 0.0;
    int64_t length = 0;
    int64_t sa_lo = 0;
    int64_t sa_hi = 0;  // Inclusive.
  };

  // Total order: X² descending, then length ascending, then substring
  // text ascending — independent of enumeration order, so the top-N cut
  // is deterministic, and the same whichever chunk kept a candidate.
  // Distinct substrings never compare equal.
  auto better = [this](const Candidate& a, const Candidate& b) {
    if (a.x2 != b.x2) return a.x2 > b.x2;
    if (a.length != b.length) return a.length < b.length;
    int64_t sa = sa_[a.sa_lo];
    int64_t sb = sa_[b.sa_lo];
    for (int64_t d = 0; d < a.length; ++d) {
      uint8_t ca = Sym(sa + d);
      uint8_t cb = Sym(sb + d);
      if (ca != cb) return ca < cb;
    }
    return false;
  };

  const ChunkWorkers workers = sweep_chunks > 0
                                   ? ChunkWorkers::Forced(sweep_chunks)
                                   : ChunkWorkers(n_);

  // Label counts of classes deeper than 2·step come from sampled prefix
  // counts, built before the sweep when such a class can be scored: a
  // leaf (min_count 1) spans up to its whole suffix, an internal class at
  // most the largest LCP.
  const int64_t step = LabelCheckpointStep(scorer.cells());
  constexpr int64_t kLead = Scorer::kLead;
  auto sym_at = [this](int64_t i) { return Sym(i); };
  auto cell_at = [&](int64_t i) { return scorer.CellAt(sym_at, i); };
  LabelCheckpoints checkpoints(n_, step, scorer.cells(), kLead);
  int64_t deepest = options.min_count <= 1 ? n_ : max_lcp_;
  if (options.max_length > 0) deepest = std::min(deepest, options.max_length);
  if (deepest > 2 * step) checkpoints.Build(cell_at, workers);

  // What one chunk of the sweep found: its own top-N heap, match count and
  // counters, merged once every chunk is done.
  struct ChunkResult {
    std::vector<Candidate> kept;
    int64_t match_count = 0;
    SuffixScanStats stats;
  };
  const int64_t cap = options.top_n;

  // Sweeps the leaves of ranks [begin, end) and the internal classes
  // popped at positions (begin, end] with its own scorer into `out`. The
  // chunk works on a local, whose counters no other memory can alias, and
  // moves it out when done.
  auto sweep_chunk = [&](Scorer& chunk_scorer, int64_t begin, int64_t end,
                         ChunkResult* out) {
    ChunkResult part;
    // Min-heap under `better` (root = worst kept candidate) for the top-N
    // cut; unbounded collection when top_n == 0.
    std::vector<Candidate>& kept = part.kept;
    constexpr int64_t kReserve = int64_t{1} << 12;
    if (cap > 0) kept.reserve(static_cast<size_t>(std::min(cap, kReserve)) + 1);
    auto offer = [&](const Candidate& candidate) {
      ++part.match_count;
      if (cap == 0) {
        kept.push_back(candidate);
        return;
      }
      if (static_cast<int64_t>(kept.size()) < cap) {
        kept.push_back(candidate);
        std::push_heap(kept.begin(), kept.end(), better);
        return;
      }
      if (better(candidate, kept.front())) {
        std::pop_heap(kept.begin(), kept.end(), better);
        kept.back() = candidate;
        std::push_heap(kept.begin(), kept.end(), better);
      }
    };

    // Scores one class: the suffix-tree node with SA interval [lb, rb],
    // parent string depth `parent_depth` and string depth `depth`, whose
    // members are the path prefixes with lengths in (parent_depth, depth].
    // Out of line: inlined into both loops below, it made the sweep of a
    // 32 k-symbol record about 10% slower.
    auto process_class = [&](int64_t lb, int64_t rb, int64_t parent_depth,
                             int64_t depth) __attribute__((noinline)) {
      ++part.stats.classes_enumerated;
      // Empty class: every prefix up to `depth` is shared with a
      // neighboring suffix, so this node contributes no members of its own
      // (only leaves whose whole suffix recurs elsewhere hit this).
      if (depth <= parent_depth) return;
      int64_t count = rb - lb + 1;
      if (count < options.min_count) return;
      int64_t lo_len = std::max(parent_depth + 1, options.min_length);
      int64_t hi_len = depth;
      if (options.maximal_only) {
        // Only the longest member is class-maximal; a truncation at
        // max_length would have a same-count right extension.
        if (options.max_length > 0 && depth > options.max_length) return;
        lo_len = depth;
      } else if (options.max_length > 0) {
        hi_len = std::min(hi_len, options.max_length);
      }
      if (lo_len > hi_len || hi_len < options.min_length) return;
      // Every member spells the same label; read it from sa_[rb], the
      // suffix the sweep has just passed, whose text the sweep prefetched.
      const int64_t start = sa_[rb];
      auto score = [&](int64_t len) {
        ++part.stats.candidates_scored;
        double x2 = chunk_scorer.Score(len);
        if (x2 >= options.min_x2) offer(Candidate{x2, len, lb, rb});
      };
      int64_t len = 0;  // Label symbols the scorer has counted.
      if (lo_len > 2 * step) {
        len = lo_len;
        part.stats.label_symbols += checkpoints.Tally(
            start + kLead, start + len, cell_at,
            chunk_scorer.Load(Sym(start + len - 1)));
        score(len);
      } else {
        chunk_scorer.Reset();
      }
      part.stats.label_symbols += hi_len - len;
      for (++len; len <= hi_len; ++len) {
        chunk_scorer.Extend(Sym(start + len - 1));
        if (len >= lo_len) score(len);
      }
    };

    // Each loop prefetches the text of the suffix its class will read
    // kPrefetch ranks ahead: on a record whose index outgrows the cache,
    // the label read is otherwise a miss for almost every class.
    constexpr int64_t kPrefetch = 16;
    auto prefetch_label = [this](int64_t r) {
      if (r < n_) __builtin_prefetch(data_ + sa_[r]);
    };

    // The loops read the index through locals, which the compiler need not
    // reload after every process_class call.
    const int64_t n = n_;
    const int32_t* const sa = sa_.data();
    const int32_t* const lcp = lcp_.data();

    // Leaf classes: the substrings unique to one suffix — lengths past the
    // longest prefix shared with any neighbor, i.e. (max adjacent LCP,
    // suffix length]. Count is always 1.
    if (options.min_count <= 1) {
      for (int64_t r = begin; r < end; ++r) {
        prefetch_label(r + kPrefetch);
        int64_t left = lcp[r];
        int64_t right = r + 1 < n ? lcp[r + 1] : 0;
        process_class(r, r, std::max(left, right), n - sa[r]);
      }
    }

    // Internal nodes via the classic LCP-interval stack sweep, each popped
    // at a position the chunk owns. The stack is assigned rather than
    // initialized from StackAt so that its address never leaves this
    // function, and it can stay in registers across process_class calls.
    std::vector<OpenInterval> stack;
    stack = StackAt(lcp_, begin, end);
    for (int64_t i = begin + 1; i <= end; ++i) {
      prefetch_label(i + kPrefetch);
      const int32_t l = i < n ? lcp[i] : 0;
      int32_t lb = static_cast<int32_t>(i - 1);
      while (stack.back().depth > l) {
        OpenInterval node = stack.back();
        stack.pop_back();
        process_class(node.lb, i - 1, std::max(stack.back().depth, l),
                      node.depth);
        lb = node.lb;
      }
      if (stack.back().depth < l) stack.push_back(OpenInterval{l, lb});
    }
    *out = std::move(part);
  };

  // The sweep in rank chunks: chunk c takes the leaves of its ranks
  // [begin, end) and the classes popped at positions (begin, end]. The
  // first chunk works with `scorer`, the others with copies.
  const int chunks = workers.Chunks(n_);
  std::vector<Scorer> chunk_scorers(static_cast<size_t>(chunks - 1), scorer);
  std::vector<ChunkResult> parts(static_cast<size_t>(chunks));
  workers.ForChunks(n_, [&](int c, int64_t begin, int64_t end) {
    if (begin == end) return;
    sweep_chunk(c == 0 ? scorer : chunk_scorers[c - 1], begin, end, &parts[c]);
  });

  // Merge: the union of the chunks' top-N sets holds the overall top N,
  // and the total order makes the cut the serial sweep's.
  SuffixScanResult result;
  result.stats.peak_index_bytes = peak_index_bytes_;
  result.stats.index_bytes = index_bytes_;
  std::vector<Candidate> kept = std::move(parts[0].kept);
  for (int c = 0; c < chunks; ++c) {
    const ChunkResult& part = parts[c];
    if (c > 0) kept.insert(kept.end(), part.kept.begin(), part.kept.end());
    result.match_count += part.match_count;
    result.stats.classes_enumerated += part.stats.classes_enumerated;
    result.stats.candidates_scored += part.stats.candidates_scored;
    result.stats.label_symbols += part.stats.label_symbols;
  }
  std::sort(kept.begin(), kept.end(), better);
  if (cap > 0 && static_cast<int64_t>(kept.size()) > cap) {
    kept.resize(static_cast<size_t>(cap));
  }

  // Resolve survivors: fill the representative (minimum) start, p-value
  // and optional positions.
  result.classes.reserve(kept.size());
  if (options.collect_positions) result.positions.reserve(kept.size());
  for (const Candidate& candidate : kept) {
    int64_t rep = n_;
    for (int64_t r = candidate.sa_lo; r <= candidate.sa_hi; ++r) {
      rep = std::min<int64_t>(rep, sa_[r]);
    }
    SubstringClass entry;
    entry.substring =
        Substring{rep, rep + candidate.length, candidate.x2};
    entry.count = candidate.sa_hi - candidate.sa_lo + 1;
    entry.p_value = scorer.PValue(candidate.x2);
    result.classes.push_back(entry);
    if (options.collect_positions) {
      std::vector<int64_t> where;
      where.reserve(static_cast<size_t>(entry.count));
      for (int64_t r = candidate.sa_lo; r <= candidate.sa_hi; ++r) {
        where.push_back(sa_[r]);
      }
      std::sort(where.begin(), where.end());
      result.positions.push_back(std::move(where));
    }
  }
  return result;
}

template Result<SuffixScanResult> SuffixScan::ScanModel(
    const ChiSquareContext&, const SuffixScanOptions&, int) const;
template Result<SuffixScanResult> SuffixScan::ScanModel(
    const MarkovChiSquare&, const SuffixScanOptions&, int) const;

Result<SuffixScanResult> SuffixScan::Scan(
    const ChiSquareContext& context, const SuffixScanOptions& options) const {
  return ScanModel(context, options, /*sweep_chunks=*/0);
}

Result<SuffixScanResult> SuffixScan::ScanMarkov(
    const MarkovChiSquare& context, const SuffixScanOptions& options) const {
  return ScanModel(context, options, /*sweep_chunks=*/0);
}

namespace {

/// Shared brute-force skeleton: enumerate by position, dedupe by content
/// (the map key is the raw symbol string, so ordering matches the
/// suffix path's symbol-wise comparisons), aggregate counts/positions,
/// then apply the same maximality/filter/ordering contract.
struct NaiveInfo {
  int64_t count = 0;
  std::vector<int64_t> positions;
};

template <typename ScoreFn, typename PValueFn>
Result<SuffixScanResult> NaiveImpl(const seq::Sequence& sequence,
                                   const SuffixScanOptions& options,
                                   ScoreFn&& score, PValueFn&& p_value) {
  SIGSUB_RETURN_IF_ERROR(ValidateOptions(options));
  const int64_t n = sequence.size();
  const int64_t cap =
      options.max_length > 0 ? std::min(options.max_length, n) : n;

  // Counts for lengths up to cap+1: maximality of a length-cap candidate
  // inspects its one-symbol extensions.
  std::map<std::string, NaiveInfo> table;
  for (int64_t start = 0; start < n; ++start) {
    std::string key;
    key.reserve(static_cast<size_t>(std::min(cap + 1, n - start)));
    for (int64_t end = start + 1; end <= std::min(start + cap + 1, n);
         ++end) {
      key.push_back(static_cast<char>(sequence[end - 1]));
      NaiveInfo& info = table[key];
      ++info.count;
      info.positions.push_back(start);
    }
  }

  struct NaiveCandidate {
    double x2 = 0.0;
    const std::string* text = nullptr;
    const NaiveInfo* info = nullptr;
  };
  auto better = [](const NaiveCandidate& a, const NaiveCandidate& b) {
    if (a.x2 != b.x2) return a.x2 > b.x2;
    if (a.text->size() != b.text->size()) {
      return a.text->size() < b.text->size();
    }
    return *a.text < *b.text;
  };

  SuffixScanResult result;
  std::vector<NaiveCandidate> kept;
  for (const auto& [text, info] : table) {
    int64_t length = static_cast<int64_t>(text.size());
    if (length < options.min_length || length > cap) continue;
    if (info.count < options.min_count) continue;
    if (options.maximal_only) {
      // Class-maximal iff every one-symbol right extension occurs
      // strictly fewer times (equal count would mean same start set).
      bool maximal = true;
      std::string extended = text;
      extended.push_back('\0');
      for (int symbol = 0; symbol < sequence.alphabet_size(); ++symbol) {
        extended.back() = static_cast<char>(symbol);
        auto it = table.find(extended);
        if (it != table.end() && it->second.count == info.count) {
          maximal = false;
          break;
        }
      }
      if (!maximal) continue;
    }
    ++result.stats.candidates_scored;
    double x2 = score(info.positions.front(),
                      info.positions.front() + length);
    if (x2 < options.min_x2) continue;
    ++result.match_count;
    kept.push_back(NaiveCandidate{x2, &text, &info});
  }

  std::sort(kept.begin(), kept.end(), better);
  if (options.top_n > 0 &&
      static_cast<int64_t>(kept.size()) > options.top_n) {
    kept.resize(static_cast<size_t>(options.top_n));
  }
  for (const NaiveCandidate& candidate : kept) {
    int64_t length = static_cast<int64_t>(candidate.text->size());
    int64_t rep = candidate.info->positions.front();
    SubstringClass entry;
    entry.substring = Substring{rep, rep + length, candidate.x2};
    entry.count = candidate.info->count;
    entry.p_value = p_value(candidate.x2);
    result.classes.push_back(entry);
    if (options.collect_positions) {
      result.positions.push_back(candidate.info->positions);
    }
  }
  return result;
}

}  // namespace

Result<SuffixScanResult> NaiveAllSubstringsScan(
    const seq::Sequence& sequence, const ChiSquareContext& context,
    const SuffixScanOptions& options) {
  if (context.alphabet_size() != sequence.alphabet_size()) {
    return Status::InvalidArgument("model/record alphabet size mismatch");
  }
  // The naive per-position layout the suffix path avoids: a full
  // PrefixCounts, scored through the same fused kernel.
  seq::PrefixCounts counts(sequence);
  X2Kernel kernel(context);
  int k = context.alphabet_size();
  return NaiveImpl(
      sequence, options,
      [&](int64_t start, int64_t end) {
        return kernel.EvaluateRange(counts, start, end);
      },
      [&](double x2) { return SubstringPValue(x2, k); });
}

Result<SuffixScanResult> NaiveAllSubstringsScanMarkov(
    const seq::Sequence& sequence, const MarkovChiSquare& context,
    const SuffixScanOptions& options) {
  if (context.alphabet_size() != sequence.alphabet_size()) {
    return Status::InvalidArgument("model/record alphabet size mismatch");
  }
  int k = context.alphabet_size();
  stats::ChiSquaredDistribution dist(k * (k - 1));
  std::vector<int64_t> pairs(static_cast<size_t>(k) * static_cast<size_t>(k));
  return NaiveImpl(
      sequence, options,
      [&](int64_t start, int64_t end) {
        std::fill(pairs.begin(), pairs.end(), 0);
        for (int64_t i = start + 1; i < end; ++i) {
          ++pairs[static_cast<size_t>(sequence[i - 1]) *
                      static_cast<size_t>(k) +
                  sequence[i]];
        }
        return context.Evaluate(pairs);
      },
      [&](double x2) { return dist.Sf(x2); });
}

}  // namespace core
}  // namespace sigsub
