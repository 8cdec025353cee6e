#include "common/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

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

double MedianTimeMs(const std::function<void()>& fn, int runs) {
  std::vector<double> times;
  for (int i = 0; i < runs; ++i) times.push_back(TimeMs(fn));
  std::sort(times.begin(), times.end());
  const size_t mid = times.size() / 2;
  return times.size() % 2 == 1 ? times[mid]
                               : 0.5 * (times[mid - 1] + times[mid]);
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
