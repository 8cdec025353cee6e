#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark runner: the seeded input
// generator, the in-memory span tracer, child-process control, the direct
// core-call replay, and the outcome every workload reports.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/str_util.h"
#include "core/suffix_scan.h"
#include "sigsub.h"

namespace perfbench {

using namespace ::sigsub;

// ------------------------------------------------------------------ inputs

/// SplitMix64: fully specified, so a seed yields the same inputs on every
/// platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Derives an independent stream for one purpose of one seed.
  Rng Fork(uint64_t salt) { return Rng(Next() ^ (salt * 0xd1b54a32d192ed03ULL)); }

 private:
  uint64_t state_;
};

/// `n` symbols drawn uniformly from `alphabet`.
std::string RandomText(Rng& rng, int64_t n, std::string_view alphabet);

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

Status WriteFile(const std::string& path, std::string_view data);

// ----------------------------------------------------------------- tracing

int64_t NowNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One traced call: name, interval on the steady clock, the span that
/// caused it (0 = root), and the request it served (-1 = none).
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return NsToMs(end_ns - start_ns); }
};

/// Keeps spans in memory until the run ends. Disabled tracers record
/// nothing, so untraced runs pay one branch per call site. Thread-safe;
/// parents come from a per-thread stack of open ScopedSpans.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records an interval timed by the caller (client-side request spans).
  void Record(std::string_view name, int64_t start_ns, int64_t end_ns,
              int64_t request = -1);

  std::vector<Span> spans() const;
  /// Writes one tab-separated line per span: id parent request name
  /// start_ns end_ns.
  Status Dump(const std::string& path) const;

 private:
  friend class ScopedSpan;
  int64_t Open(std::string_view name, int64_t request);
  void Close(int64_t id);

  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_ = 0;
};

/// The layer a span name belongs to: its first dotted component, except
/// that protocol spans count as the server layer and core spans split
/// into core.suffix, core.streaming and core.interval.
std::string LayerOf(std::string_view span_name);

/// The layers whose self time every traced run reports.
const std::vector<std::string>& Layers();

/// Sum, per layer, of each span's duration minus the part of it that its
/// child spans cover.
std::map<std::string, double> SelfTimeMs(const std::vector<Span>& spans);

/// Span statistics by exact name (0 when absent).
double MeanMs(const std::vector<Span>& spans, std::string_view name);
double TotalMs(const std::vector<Span>& spans, std::string_view name);
int64_t CountSpans(const std::vector<Span>& spans, std::string_view name);

// ----------------------------------------------------------------- results

/// The q-quantile (0..1) of `values` by nearest rank; 0 for no values.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Mean of the largest `fraction` of `values` (at least one value).
double TailMean(std::vector<double> values, double fraction);
/// Mean of `values` without the largest and the smallest `fraction` of
/// them. Unlike the median, it moves smoothly when samples fall into two
/// modes (a short process that lands on a busy or an idle core) and the
/// modes' shares shift between runs.
double TrimmedMean(std::vector<double> values, double fraction);

/// What a workload hands back to main(): metrics by name (units live in
/// BENCHMARK.json), exact counts that must repeat for a seed, operation
/// counts, and every verification problem found.
struct Outcome {
  std::map<std::string, double> metrics;
  std::map<std::string, int64_t> exact;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  std::ostringstream report;  // Human-readable lines printed before the JSON.

  /// Counts one failed operation and remembers why (first 50 kept).
  void Fail(std::string why);
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       // Tiny inputs for the self-test.
  std::string cli;          // Path of the sigsub_cli binary under test.
  std::string work_dir;     // Scratch directory for inputs and state.
};

/// Peak resident set of this process so far (VmHWM), in MiB.
double SelfPeakRssMb();

// --------------------------------------------------------------- processes

/// A spawned child with its stdout on a pipe; stderr is inherited. The
/// destructor kills and reaps a child that is still running.
class Child {
 public:
  static Result<Child> Spawn(const std::vector<std::string>& argv);
  Child(Child&& other) noexcept;
  Child& operator=(Child&&) = delete;
  Child(const Child&) = delete;
  ~Child();

  /// Next stdout line; IOError at EOF or after `timeout_ms`.
  Result<std::string> ReadLine(int64_t timeout_ms);
  void Signal(int signum);
  /// Reads stdout to EOF, then reaps the child.
  void Wait();

  int exit_code() const { return exit_code_; }
  double max_rss_mb() const { return max_rss_mb_; }
  const std::string& rest_of_stdout() const { return rest_; }

 private:
  Child(pid_t pid, int fd) : pid_(pid), fd_(fd) {}
  pid_t pid_ = -1;
  int fd_ = -1;
  std::string buffer_;
  std::string rest_;
  bool reaped_ = false;
  int exit_code_ = -1;
  double max_rss_mb_ = 0.0;
};

/// Runs `argv` to completion, capturing stdout.
struct ProcessRun {
  int exit_code = -1;
  double wall_s = 0.0;
  double max_rss_mb = 0.0;
  std::string out;
};
ProcessRun RunProcess(const std::vector<std::string>& argv);

// ------------------------------------------------------------ direct calls

/// One query computed by calling the core kernel directly, shaped like the
/// engine's QueryResult::substrings() so the two can be compared.
struct DirectResult {
  std::vector<core::Substring> rows;
  int64_t match_count = 0;
  core::ScanStats stats;
  bool has_stats = false;          // Kernel reports positions examined.
  core::SuffixScanStats suffix;    // Substrings queries only.
};

/// The suffix-scan options a multinomial substrings query runs with (the
/// engine's alpha resolution: alpha_p through χ²(k−1), winning over alpha0).
core::SuffixScanOptions ScanOptionsFor(const api::SubstringsQuery& q, int k);

/// Runs `spec` against `sequence` through the core kernels (one span per
/// kernel call, named core.<kind>); `counts` is the record's PrefixCounts.
Result<DirectResult> RunDirect(const api::QuerySpec& spec,
                               const seq::Sequence& sequence,
                               const seq::PrefixCounts& counts, int k,
                               Tracer& tracer, int64_t request);

/// "start:end:x2" per row with exact doubles, for comparisons.
std::string RowsKey(std::span<const core::Substring> rows);

/// Work counted across a replay's direct calls.
struct ReplayCounts {
  int64_t positions_examined = 0;  // Exact chain-cover kernels only.
  double trivial_positions = 0.0;  // n(n+1)/2 of those same calls.
  int64_t suffix_classes = 0;
  int64_t suffix_candidates = 0;
  double suffix_symbols = 0.0;
  double suffix_index_bytes = 0.0;
  double suffix_peak_bytes = 0.0;
  double prefix_counts_mb_max = 0.0;

  void Add(const DirectResult& result, int64_t n);
  void AddPrefixCounts(int64_t n, int k);
};

/// Per-layer metrics derived from replay spans and counts; a layer the
/// workload never calls reads 0. `engine_threads` is the thread count of
/// the replay engine whose engine.execute spans cover the direct calls.
void AddLayerMetrics(const std::vector<Span>& spans,
                     const ReplayCounts& counts, int engine_threads,
                     Outcome& outcome);

/// The highest percentile (capped at p99) that leaves at least ten of `n`
/// samples beyond it, as a fraction.
double TailQuantile(size_t n);

// --------------------------------------------------------------- workloads

Outcome RunDaemonMixed(const RunOptions& options, Tracer& tracer);
Outcome RunCliMining(const RunOptions& options, Tracer& tracer);
Outcome RunSubstringsMmap(const RunOptions& options, Tracer& tracer);

/// Per-layer metrics every traced run reports from its spans (self time
/// per layer plus span counts).
void AddTraceMetrics(const std::vector<Span>& spans, Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
