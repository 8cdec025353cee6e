#ifndef SIGSUB_API_QUERY_H_
#define SIGSUB_API_QUERY_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "core/scan_types.h"

namespace sigsub {
namespace api {

/// The typed query surface of the library: one request struct per sequence
/// kernel, a tagged `QuerySpec` union over them, a `ModelSpec` describing
/// the null model, and a `QueryResult` whose payload variant is faithful to
/// what the kernel actually computes. `QuerySpec` has a canonical
/// serialization (api/serde.h) whose bytes drive the engine's result-cache
/// fingerprints, so the serialized form, the cache identity and the typed
/// struct can never drift apart.

// ---------------------------------------------------------------- models

enum class ModelKind {
  kUniform = 0,      // Uniform multinomial over the corpus alphabet.
  kMultinomial = 1,  // Explicit probability vector.
  kMarkov = 2,       // Order-m Markov chain (m = 1 supported today).
};

/// Null model for a query. kUniform carries no numbers (it resolves
/// against the corpus alphabet at execution time); kMultinomial carries the
/// probability vector; kMarkov carries a row-major k×k transition matrix
/// plus an optional initial distribution (empty = uniform start).
///
/// Markov models are consumed by `mss` queries only (they run the exact
/// O(n²) Markov scan, core::FindMssMarkov); every other kernel scores the
/// multinomial X² of the paper and rejects a Markov model at validation
/// with an error naming the `model` field.
struct ModelSpec {
  ModelKind kind = ModelKind::kUniform;
  std::vector<double> probs;        // kMultinomial: k probabilities.
  int order = 1;                    // kMarkov: chain order (1 today).
  std::vector<double> transitions;  // kMarkov: row-major k*k.
  std::vector<double> initial;      // kMarkov: size k, or empty = uniform.

  static ModelSpec Uniform();
  static ModelSpec Multinomial(std::vector<double> probs);
  static ModelSpec Markov(std::vector<double> transitions,
                          std::vector<double> initial = {});

  friend bool operator==(const ModelSpec&, const ModelSpec&) = default;
};

// --------------------------------------------------------------- queries

/// One enumerator per executable sequence kernel.
enum class QueryKind {
  kMss = 0,           // core::FindMss (Problem 1); Markov model -> FindMssMarkov.
  kTopT = 1,          // core::FindTopT (Problem 2).
  kTopDisjoint = 2,   // core::FindTopDisjoint (library extension).
  kThreshold = 3,     // core::FindAboveThreshold (Problem 3).
  kMinLength = 4,     // core::FindMssMinLength (Problem 4).
  kLengthBounded = 5, // core::FindMssLengthBounded (windowed MSS).
  kArlm = 6,          // core::FindMssArlm (PAKDD'10 local-maxima baseline).
  kAgmm = 7,          // core::FindMssAgmm (PAKDD'10 global-extrema baseline).
  kBlocked = 8,       // core::FindMssBlocked (blocking-technique exact scan).
  kSubstrings = 9,    // core::SuffixScan (all-substrings suffix-array scan).
};

/// Stable lowercase name ("mss", "topt", "disjoint", "threshold", "minlen",
/// "lenbound", "arlm", "agmm", "blocked", "substrings") — the vocabulary of
/// the CLI and of the serialized query form.
std::string_view QueryKindToString(QueryKind kind);

/// Inverse of QueryKindToString; InvalidArgument on unknown names.
Result<QueryKind> ParseQueryKind(std::string_view name);

/// Problem 1: the most significant substring. No parameters — under a
/// Markov ModelSpec this runs the Markov-statistic scan instead of the
/// multinomial skip scan.
struct MssQuery {
  friend bool operator==(const MssQuery&, const MssQuery&) = default;
};

/// Problem 2: the t highest-X² substrings, best first.
struct TopTQuery {
  int64_t t = 10;
  friend bool operator==(const TopTQuery&, const TopTQuery&) = default;
};

/// Extension: top-t pairwise-disjoint substrings.
struct TopDisjointQuery {
  int64_t t = 10;
  int64_t min_length = 1;
  double min_chi_square = 0.0;
  friend bool operator==(const TopDisjointQuery&,
                         const TopDisjointQuery&) = default;
};

/// Problem 3: every substring whose X² clears a cutoff. The cutoff can be
/// given directly (`alpha0`, an X² value) or as a per-substring p-value
/// (`alpha_p` in (0, 1), converted once at execution time via
/// stats::ChiSquaredDistribution(k-1).CriticalValue). When both are set,
/// `alpha_p` wins — a significance level is the principled spelling and
/// must not be silently overridden by a stale raw cutoff. Negative values
/// mean "unset"; at least one must be set.
struct ThresholdQuery {
  double alpha0 = -1.0;
  double alpha_p = -1.0;
  int64_t max_matches = std::numeric_limits<int64_t>::max();
  friend bool operator==(const ThresholdQuery&,
                         const ThresholdQuery&) = default;
};

/// Problem 4: MSS among substrings of length >= min_length.
struct MinLengthQuery {
  int64_t min_length = 1;
  friend bool operator==(const MinLengthQuery&,
                         const MinLengthQuery&) = default;
};

/// Windowed MSS: min_length <= length <= max_length. max_length = 0 means
/// "no upper bound" (the record's length).
struct LengthBoundedQuery {
  int64_t min_length = 1;
  int64_t max_length = 0;
  friend bool operator==(const LengthBoundedQuery&,
                         const LengthBoundedQuery&) = default;
};

/// ARLM heuristic baseline (run-boundary candidates, no guarantee).
struct ArlmQuery {
  friend bool operator==(const ArlmQuery&, const ArlmQuery&) = default;
};

/// AGMM heuristic baseline (deviation-walk extrema, no guarantee).
struct AgmmQuery {
  friend bool operator==(const AgmmQuery&, const AgmmQuery&) = default;
};

/// Blocked exact scan with a chain-cover bound per block of endpoints.
struct BlockedQuery {
  int64_t block_size = 64;
  friend bool operator==(const BlockedQuery&, const BlockedQuery&) = default;
};

/// All-substrings mining (core::SuffixScan): the `top` highest-X²
/// *distinct substrings* of the record — each with its occurrence count
/// and p-value — instead of one best interval. `maximal` keeps only
/// class-maximal substrings (every one-symbol right extension occurs
/// strictly fewer times); with maximal=0 every distinct substring is
/// enumerated, which is quadratic in the worst case, so the engine then
/// requires max_length > 0. The significance floor mirrors ThresholdQuery:
/// `alpha0` is a raw X² cutoff, `alpha_p` a per-substring p-value
/// (converted at execution; wins over alpha0 when both are set); negative
/// means unset, and with neither set every candidate qualifies. Markov
/// models are supported (the candidates' transition counts are scored with
/// the Markov X²).
struct SubstringsQuery {
  int64_t top = 10;        // 0 = report every match.
  int64_t min_length = 1;
  int64_t max_length = 0;  // 0 = unbounded.
  int64_t min_count = 2;   // Substrings occurring fewer times are skipped.
  bool maximal = true;
  double alpha0 = -1.0;
  double alpha_p = -1.0;
  friend bool operator==(const SubstringsQuery&,
                         const SubstringsQuery&) = default;
};

/// The request union. Alternative order mirrors QueryKind numerically, so
/// `request.index()` is the kind (static_asserted in query.cc).
using QueryRequest =
    std::variant<MssQuery, TopTQuery, TopDisjointQuery, ThresholdQuery,
                 MinLengthQuery, LengthBoundedQuery, ArlmQuery, AgmmQuery,
                 BlockedQuery, SubstringsQuery>;

/// One unit of work for the engine: run `request` against corpus record
/// `sequence_index` under `model`.
struct QuerySpec {
  int64_t sequence_index = 0;
  ModelSpec model;
  QueryRequest request;  // Defaults to MssQuery.

  QueryKind kind() const { return static_cast<QueryKind>(request.index()); }

  friend bool operator==(const QuerySpec&, const QuerySpec&) = default;
};

// --------------------------------------------------------------- results

/// Payload of the best-substring kernels (mss, minlen, lenbound, arlm,
/// agmm, blocked): one substring, zero-length when nothing qualified.
struct BestPayload {
  core::Substring best;
  core::ScanStats stats;
};

/// Payload of the ranked kernels (topt, disjoint): substrings best-first
/// (disjoint kernels report no scan stats; the field stays zero).
struct RankedPayload {
  std::vector<core::Substring> ranked;
  core::ScanStats stats;
};

/// Payload of threshold queries: the materialized matches (possibly capped
/// by max_matches), the exact total, and the best match (valid iff
/// match_count > 0).
struct ThresholdPayload {
  std::vector<core::Substring> matches;
  int64_t match_count = 0;
  core::Substring best;
  core::ScanStats stats;
};

/// Payload of substrings queries: one entry per reported distinct
/// substring in the suffix scan's total order (X² descending, then length
/// ascending, then text ascending). `counts[i]` / `p_values[i]` parallel
/// `ranked[i]` — each ranked entry is a representative occurrence (its
/// smallest start), the count is the class occurrence count corpus-wide in
/// the record. `match_count` is the exact number of candidates that passed
/// the filters (>= ranked.size(); the excess was cut by `top`).
struct SubstringsPayload {
  std::vector<core::Substring> ranked;
  std::vector<int64_t> counts;
  std::vector<double> p_values;
  int64_t match_count = 0;
  core::ScanStats stats;
};

/// Outcome of one query. The payload alternative is determined by the
/// query's kind; `best()`/`substrings()`/`stats()` give shape-independent
/// access for tabular consumers. A query that failed validation has the
/// error in `status` and an empty payload.
struct QueryResult {
  int64_t query_index = 0;     // Position in the submitted batch.
  int64_t sequence_index = 0;  // Echo of the spec.
  QueryKind kind = QueryKind::kMss;
  Status status;
  bool cache_hit = false;
  std::variant<BestPayload, RankedPayload, ThresholdPayload,
               SubstringsPayload>
      payload;

  /// The highest-X² substring of any payload (zero-length when none).
  const core::Substring& best() const;
  /// Every materialized substring: {best} / ranked / matches. The
  /// best-substring kernels return an empty span when nothing qualified.
  std::span<const core::Substring> substrings() const;
  /// Scan statistics (zero for cache hits and for kernels that report
  /// none).
  const core::ScanStats& stats() const;
  /// Threshold and substrings queries: the exact match total. Other
  /// kinds: the number of materialized substrings.
  int64_t match_count() const;
};

}  // namespace api
}  // namespace sigsub

#endif  // SIGSUB_API_QUERY_H_
