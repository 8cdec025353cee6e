#ifndef SIGSUB_BENCH_COMMON_HARNESS_H_
#define SIGSUB_BENCH_COMMON_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"

namespace sigsub {
namespace bench {

/// True when SIGSUB_BENCH_FAST=1 is set: benches shrink their sweeps for a
/// quick smoke pass. The default is the full paper-scale parameters.
bool FastMode();

/// Prints the standard header for a bench binary: which paper result it
/// regenerates and the workload description.
void PrintHeader(const std::string& paper_result,
                 const std::string& description);

/// Wall-clock milliseconds of one run of `fn`.
double TimeMs(const std::function<void()>& fn);

/// Median wall-clock milliseconds of `runs` runs of `fn`, for rows whose
/// single runs swing with the load of a shared host.
double MedianTimeMs(const std::function<void()>& fn, int runs);

/// Two variants of one job timed in the same process, batch by batch.
struct InterleavedTiming {
  double reference_ms;  // Median time of one run of the reference.
  double candidate_ms;  // Median time of one run of the candidate.
  /// Median over the batches of reference/candidate time: > 1 when the
  /// candidate is faster.
  double ratio;
};

/// Runs `reference` and `candidate` once each per batch, `batches` times,
/// swapping which goes first from one batch to the next, so that drift in
/// the host's load hits both alike. The per-batch ratio of two runs that
/// sit next to each other resolves far smaller changes than medians of
/// two separate run sets.
InterleavedTiming InterleavedAB(const std::function<void()>& reference,
                                const std::function<void()>& candidate,
                                int batches);

/// Milliseconds pretty-printer: "0.53ms" / "1.24s".
std::string FormatMs(double ms);

/// Fits ln(y) = slope·ln(x) + c and prints "slope(label) = ...". Returns
/// the slope; used for the paper's log-log scaling claims (Figs 1, 2, 5).
double PrintLogLogSlope(const std::string& label,
                        const std::vector<double>& xs,
                        const std::vector<double>& ys);

/// Accumulates benchmark measurements and gate outcomes, then writes them
/// as one machine-readable JSON file (BENCH_<name>.json) so successive
/// runs of a bench form a comparable perf trajectory. Results are rows of
/// {name, ms[, speedup]}; gates are named booleans (bit-identity checks,
/// perf targets). The file also records whether the run was a
/// SIGSUB_BENCH_FAST smoke pass, since smoke timings are not comparable
/// to full-scale ones, and a {"name": "machine", "hardware_concurrency"}
/// row so bench_diff can warn when a run and the committed baseline came
/// from machines with different core counts.
class JsonBench {
 public:
  /// `name` is the suite label: "core" writes BENCH_core.json (in the
  /// current directory) by default.
  explicit JsonBench(std::string name);

  void AddResult(const std::string& result_name, double ms);
  void AddResult(const std::string& result_name, double ms, double speedup);
  /// A non-timing metric row {name, <key>: value} (e.g. a throughput in
  /// Msymbols/s), kept alongside the timing rows in "results".
  void AddScalar(const std::string& result_name, const std::string& key,
                 double value);
  void AddGate(const std::string& gate_name, bool pass);

  /// True iff every recorded gate passed.
  bool AllGatesPass() const;

  /// Writes BENCH_<name>.json; returns false (after printing the error)
  /// if the file cannot be written.
  bool Write() const;
  bool WriteTo(const std::string& path) const;

 private:
  struct Row {
    std::string name;
    std::string key;  // JSON key of `value`: "ms" for timings.
    double value;
    double speedup;  // NaN when not applicable.
  };
  std::string name_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, bool>> gates_;
};

}  // namespace bench
}  // namespace sigsub

#endif  // SIGSUB_BENCH_COMMON_HARNESS_H_
