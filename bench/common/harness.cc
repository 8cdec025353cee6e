#include "common/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/str_util.h"
#include "stats/descriptive.h"

namespace sigsub {
namespace bench {

bool FastMode() {
  const char* env = std::getenv("SIGSUB_BENCH_FAST");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

void PrintHeader(const std::string& paper_result,
                 const std::string& description) {
  std::printf("==================================================\n");
  std::printf("%s\n", paper_result.c_str());
  std::printf("%s\n", description.c_str());
  if (FastMode()) {
    std::printf("[SIGSUB_BENCH_FAST=1: reduced-scale smoke run]\n");
  }
  std::printf("==================================================\n");
}

double TimeMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

namespace {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace

double MedianTimeMs(const std::function<void()>& fn, int runs) {
  std::vector<double> times;
  for (int i = 0; i < runs; ++i) times.push_back(TimeMs(fn));
  return Median(std::move(times));
}

InterleavedTiming InterleavedAB(const std::function<void()>& reference,
                                const std::function<void()>& candidate,
                                int batches) {
  std::vector<double> reference_ms, candidate_ms, ratios;
  for (int b = 0; b < batches; ++b) {
    double ref = 0.0, cand = 0.0;
    if (b % 2 == 0) {
      ref = TimeMs(reference);
      cand = TimeMs(candidate);
    } else {
      cand = TimeMs(candidate);
      ref = TimeMs(reference);
    }
    reference_ms.push_back(ref);
    candidate_ms.push_back(cand);
    ratios.push_back(ref / cand);
  }
  return InterleavedTiming{Median(std::move(reference_ms)),
                           Median(std::move(candidate_ms)),
                           Median(std::move(ratios))};
}

std::string FormatMs(double ms) {
  if (ms >= 1000.0) return StrFormat("%.2fs", ms / 1000.0);
  if (ms >= 1.0) return StrFormat("%.2fms", ms);
  return StrFormat("%.3fms", ms);
}

JsonBench::JsonBench(std::string name) : name_(std::move(name)) {}

void JsonBench::AddResult(const std::string& result_name, double ms) {
  rows_.push_back(Row{result_name, "ms", ms, std::nan("")});
}

void JsonBench::AddResult(const std::string& result_name, double ms,
                          double speedup) {
  rows_.push_back(Row{result_name, "ms", ms, speedup});
}

void JsonBench::AddScalar(const std::string& result_name,
                          const std::string& key, double value) {
  rows_.push_back(Row{result_name, key, value, std::nan("")});
}

void JsonBench::AddGate(const std::string& gate_name, bool pass) {
  gates_.emplace_back(gate_name, pass);
}

bool JsonBench::AllGatesPass() const {
  for (const auto& [unused, pass] : gates_) {
    if (!pass) return false;
  }
  return true;
}

bool JsonBench::Write() const { return WriteTo("BENCH_" + name_ + ".json"); }

bool JsonBench::WriteTo(const std::string& path) const {
  std::string out = "{\n";
  out += StrCat("  \"bench\": \"", name_, "\",\n");
  out += StrCat("  \"fast_mode\": ", FastMode() ? "true" : "false", ",\n");
  out += "  \"results\": [\n";
  for (const Row& row : rows_) {
    out += StrCat("    {\"name\": \"", row.name, "\", \"", row.key,
                  "\": ", StrFormat("%.6f", row.value));
    if (!std::isnan(row.speedup)) {
      out += StrCat(", \"speedup\": ", StrFormat("%.4f", row.speedup));
    }
    out += "},\n";
  }
  // Every BENCH file records the machine's logical core count so
  // tools/bench_diff.py can flag cross-machine comparisons — speedups are
  // relative, but contention-sensitive ones still shift with core count.
  out += StrCat("    {\"name\": \"machine\", \"hardware_concurrency\": ",
                std::thread::hardware_concurrency(), "}\n");
  out += "  ],\n  \"gates\": {\n";
  for (size_t i = 0; i < gates_.size(); ++i) {
    out += StrCat("    \"", gates_[i].first, "\": ",
                  gates_[i].second ? "true" : "false",
                  i + 1 < gates_.size() ? ",\n" : "\n");
  }
  out += "  }\n}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(out.data(), 1, out.size(), file);
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

double PrintLogLogSlope(const std::string& label,
                        const std::vector<double>& xs,
                        const std::vector<double>& ys) {
  std::vector<double> lx(xs.size()), ly(ys.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    lx[i] = std::log(xs[i]);
    ly[i] = std::log(ys[i]);
  }
  stats::LinearFit fit = stats::FitLine(lx, ly);
  std::printf("log-log slope (%s): %.3f   (r² = %.4f)\n", label.c_str(),
              fit.slope, fit.r_squared);
  return fit.slope;
}

}  // namespace bench
}  // namespace sigsub
