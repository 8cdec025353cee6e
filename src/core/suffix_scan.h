#ifndef SIGSUB_CORE_SUFFIX_SCAN_H_
#define SIGSUB_CORE_SUFFIX_SCAN_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/chi_square.h"
#include "core/markov_scan.h"
#include "core/scan_types.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// All-substrings mining over one record (ROADMAP item 2, after
/// Belazzougui & Cunial "Space-efficient detection of unusual words"):
/// instead of asking "which interval is most significant?" this subsystem
/// reports *the significant distinct substrings themselves*, each with its
/// occurrence count, X², and p-value.
///
/// The index is a suffix array (SA-IS, O(n)) plus an LCP array (Φ/PLCP,
/// O(n)). A left-to-right sweep over the LCP array with an interval stack
/// enumerates the suffix-tree nodes; each node is one *right-extension
/// equivalence class*: the set of distinct substrings sharing the same
/// start-position set, which are exactly the path strings with lengths in
/// (parent_depth, depth]. The class's occurrence count is the SA-interval
/// width, its positions are the SA entries of the interval, and its
/// members are scored against the null model with the same fused X²
/// kernel the interval scanners use (X2Kernel::EvaluateCounts) — no
/// per-position PrefixCounts scratch is ever materialized, which is what
/// keeps peak memory at a handful of bytes per symbol (SA + LCP + the
/// record) instead of the 8·k bytes per position of the interval-scan
/// layout.
///
/// Maximality ("maximal-only" reporting contract): a distinct substring w
/// is reported iff it is the longest member of its class — equivalently,
/// iff every one-symbol right extension wa occurs strictly fewer times
/// than w. Nested substrings that occur in exactly the same places as a
/// longer reported one are suppressed; they add no information (same
/// positions, same count) and would otherwise flood the output. With
/// `maximal_only = false` every distinct substring is enumerated (one
/// entry per class member), which is quadratic in the worst case — cap it
/// with `max_length`.
struct SuffixScanOptions {
  /// Keep the `top_n` highest-X² substrings (0 = keep every match; only
  /// sensible together with a threshold or on small records).
  int64_t top_n = 10;

  /// Report only substrings with length in [min_length, max_length];
  /// max_length 0 means unbounded. In maximal-only mode a class whose
  /// longest member exceeds max_length is skipped entirely (its truncation
  /// is not class-maximal), so maximality semantics stay exact.
  int64_t min_length = 1;
  int64_t max_length = 0;

  /// Report only substrings occurring at least this often.
  int64_t min_count = 1;

  /// See the class comment. Default on: report one substring per class.
  bool maximal_only = true;

  /// Collect the sorted occurrence start positions of each reported
  /// substring (SuffixScanResult::positions, parallel to `classes`).
  bool collect_positions = false;

  /// X² threshold: candidates scoring below are neither reported nor
  /// counted in match_count. Default accepts everything.
  double min_x2 = -std::numeric_limits<double>::infinity();
};

/// One reported distinct substring: a representative occurrence (the
/// smallest-index one the sweep saw), its class occurrence count, and the
/// asymptotic p-value of its X² (χ²(k−1) multinomial, χ²(k(k−1)) Markov).
struct SubstringClass {
  Substring substring;
  int64_t count = 0;
  double p_value = 1.0;
};

/// Sweep instrumentation and memory accounting.
struct SuffixScanStats {
  int64_t classes_enumerated = 0;  // Suffix-tree nodes visited.
  int64_t candidates_scored = 0;   // Substrings evaluated against filters.
  // Record symbols read to form class counts: label symbols extended one
  // by one, plus the remainders read next to a sampled prefix count.
  int64_t label_symbols = 0;
  int64_t peak_index_bytes = 0;    // High-water bytes while building SA+LCP.
  int64_t index_bytes = 0;         // Steady-state bytes held by the index.
};

struct SuffixScanResult {
  /// Descending X²; ties broken by length ascending, then substring text
  /// ascending (symbol order) — a total order over distinct substrings
  /// that is independent of enumeration order, so the top-N cut is
  /// deterministic and comparable across the suffix and naive paths.
  std::vector<SubstringClass> classes;

  /// Total candidates passing all filters (>= classes.size(); the excess
  /// was cut by top_n).
  int64_t match_count = 0;

  /// When SuffixScanOptions::collect_positions: positions[i] holds the
  /// ascending occurrence start positions of classes[i].
  std::vector<std::vector<int64_t>> positions;

  SuffixScanStats stats;
};

/// The suffix index over one record. Build() borrows the symbol data — the
/// caller keeps it alive (and unchanged) for the lifetime of the scan;
/// this is what lets a memory-mapped record be indexed without a decoded
/// in-RAM copy (BuildMapped applies a byte→symbol table on access).
///
/// Sweep cost. Every member of a class spells the same label, so a class
/// forms its count vector (k symbol counts, or k² transition counts under
/// the Markov null — its `cells`) once. A class whose first scored length
/// is at most 2·step reads its label symbol by symbol; a deeper one takes
/// the difference of two sampled int32 prefix counts, P(end) − P(begin),
/// each corrected by at most step/2 symbols read next to its sample. The
/// samples (one row of `cells` counts every step = max(64, 8·cells)
/// symbols, at most 0.5 B/symbol) are built before the sweep whenever a
/// class deeper than 2·step can be scored — a leaf at min_count 1, or an
/// internal class when the index's largest LCP (taken by the build)
/// exceeds 2·step, either capped by max_length — and freed when the scan
/// returns. A class therefore costs O(min(depth, 2·step) + cells): the
/// maximal-only sweep over the at most 2n classes is linear in n, and the
/// enumerate-everything mode adds O(1) per scored candidate.
/// SuffixScanStats::label_symbols counts the reads.
///
/// Sweep parallelism. A record of at least 2·64 Ki symbols is swept on a
/// transient pool, under the same policy as the build (below); smaller
/// records sweep as one chunk on the calling thread, with no extra pass.
/// The sweep splits into contiguous rank chunks: chunk c takes the leaves
/// of its ranks [b, e) and every internal class the LCP-interval stack
/// pops at a position i in (b, e] (the interval [lb, i − 1]). It starts
/// from the exact stack the serial sweep holds at b, cut to the intervals
/// deeper than the chunk's minimum LCP m: those are the strict
/// right-to-left minima of lcp[1, b] above m, each with its left bound at
/// the next minimum to its left, found by a backward scan that stops at
/// the first rank with LCP <= m (the never-popped floor). The scan is one
/// enclosing interval long on random records and reads at most
/// chunks·n/2 LCP entries in all, when the chunk minima fall strictly
/// left to right. Each chunk scores with its own scorer copy into its own
/// top-N heap, match count and counters; the heaps are concatenated,
/// sorted by the total order and cut to top_n, which is the serial cut,
/// and the counters are summed. The checkpoint rows are built in the same
/// chunks (each chunk's rows from zero, then the rows before it added).
/// Results and all three sweep counters do not depend on the split.
///
/// Build parallelism. A record of at least 2·64 Ki symbols is indexed on
/// a transient thread pool the build creates and joins itself, using up
/// to std::thread::hardware_concurrency() threads (the calling thread
/// included) whatever pool the caller runs on; smaller records build on
/// the calling thread alone. Every pass without a sequential dependency
/// runs in contiguous chunks: the copy and alphabet check (the first bad
/// position over all chunks is reported), S/L type classification, LMS
/// naming (0/1 "differs" flags, a prefix over per-chunk flag counts, then
/// names), the LMS position lists and gathers, and the three LCP passes
/// (Φ scatter, PLCP with its walk restarted per text chunk, and the
/// permutation into rank order). The induce loops and bucket placements
/// stay serial. The induce loops read no type array (a predecessor's type
/// follows from two adjacent symbols and the bucket pointer) and prefetch
/// the symbols 32 slots ahead. SA and LCP are unique for a text, so the
/// result does not depend on the number of threads. Build scratch of at
/// least 1 MiB (the working copy, the type array, large bucket arrays,
/// the PLCP array) has its own anonymous mapping, returned to the kernel
/// when the buffer dies, so repeated builds do not leave heap behind.
class SuffixScan {
 public:
  /// The sample distance of the sweep's prefix counts (see above), for a
  /// count vector of `cells` entries.
  static constexpr int64_t LabelCheckpointStep(int64_t cells) {
    return std::max<int64_t>(64, 8 * cells);
  }

  /// Builds the index over decoded symbols (each < alphabet_size).
  /// Records are limited to 2^31 − 2 symbols (the index is 32-bit).
  static Result<SuffixScan> Build(std::span<const uint8_t> symbols,
                                  int alphabet_size);

  /// As Build, over raw (e.g. memory-mapped) bytes: `decode` maps each
  /// byte to its symbol id, 0xFF marking bytes outside the alphabet
  /// (rejected). Only alphabets with k <= 255 are mappable.
  static Result<SuffixScan> BuildMapped(std::span<const uint8_t> bytes,
                                        std::span<const uint8_t, 256> decode,
                                        int alphabet_size);

  int64_t size() const { return n_; }
  int alphabet_size() const { return k_; }

  /// Steady-state bytes held by the index (SA + LCP arrays).
  int64_t index_bytes() const { return index_bytes_; }

  /// High-water bytes transiently allocated while building (SA-IS
  /// recursion workspace + the Φ/PLCP array of the LCP pass).
  int64_t peak_index_bytes() const { return peak_index_bytes_; }

  /// Threads that ran the build's parallel passes (1 below the parallel
  /// threshold or on a single-core host); Scan and ScanMarkov sweep on as
  /// many.
  int build_workers() const { return build_workers_; }

  /// The underlying arrays, exposed for validation: suffix_array()[r] is
  /// the start of the rank-r suffix; lcp_array()[r] the longest common
  /// prefix with the rank-(r−1) suffix (lcp_array()[0] == 0).
  std::span<const int32_t> suffix_array() const { return sa_; }
  std::span<const int32_t> lcp_array() const { return lcp_; }

  /// Scores under the multinomial null of `context` with the fused X²
  /// kernel (alphabet sizes must match).
  Result<SuffixScanResult> Scan(const ChiSquareContext& context,
                                const SuffixScanOptions& options) const;

  /// Scores under a first-order Markov null: X²_M of each candidate's
  /// transition counts (core/markov_scan.h). Length-1 substrings carry no
  /// transition and score 0.
  Result<SuffixScanResult> ScanMarkov(const MarkovChiSquare& context,
                                      const SuffixScanOptions& options) const;

 private:
  friend class SuffixScanTestPeer;

  SuffixScan() = default;

  Status BuildIndex();

  uint8_t Sym(int64_t i) const { return decode_[data_[i]]; }

  /// Scan (ChiSquareContext) or ScanMarkov (MarkovChiSquare) with the
  /// sweep split into `sweep_chunks` rank chunks (1..64, however small the
  /// record), or into as many as the record's size calls for when 0. Only
  /// Scan, ScanMarkov and the tests' SuffixScanTestPeer call it.
  template <typename Context>
  Result<SuffixScanResult> ScanModel(const Context& context,
                                     const SuffixScanOptions& options,
                                     int sweep_chunks) const;

  const uint8_t* data_ = nullptr;
  int64_t n_ = 0;
  int k_ = 0;
  std::array<uint8_t, 256> decode_{};
  std::vector<int32_t> sa_;   // sa_[r] = start of rank-r suffix.
  std::vector<int32_t> lcp_;  // lcp_[r] = lcp(suffix sa_[r-1], sa_[r]).
  int64_t index_bytes_ = 0;
  int64_t peak_index_bytes_ = 0;
  int64_t max_lcp_ = 0;  // The largest lcp_ entry.
  int build_workers_ = 1;
};

/// Brute-force reference: enumerates every substring by position, dedupes
/// by content, counts occurrences by map aggregation, applies the same
/// filters/ordering as SuffixScan::Scan, and scores each reported
/// substring over a PrefixCounts built for the record — i.e. exactly the
/// per-position layout the suffix path avoids. O(n²·L) time and O(n·k)
/// memory; exists to gate the suffix path (tests and bench/suffix_scan.cc
/// check bit-identical X² and identical class sets).
Result<SuffixScanResult> NaiveAllSubstringsScan(
    const seq::Sequence& sequence, const ChiSquareContext& context,
    const SuffixScanOptions& options);

/// Markov-null brute-force reference (see NaiveAllSubstringsScan).
Result<SuffixScanResult> NaiveAllSubstringsScanMarkov(
    const seq::Sequence& sequence, const MarkovChiSquare& context,
    const SuffixScanOptions& options);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_SUFFIX_SCAN_H_
