// perfbench: the workload runner behind perfbench/run.py.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --cli=PATH --work=DIR [--smoke]
//   perfbench --machine
//
// Prints a human-readable report, then one JSON line with the raw
// metrics, exact counts, operation counts and verification problems;
// run.py attaches units, checks the counts across runs and prints the
// benchmark's result line.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

int PrintMachine() {
  std::printf(
      "{\"hardware_concurrency\":%u,\"x2_dispatch\":%s,\"build_type\":%s}\n",
      std::thread::hardware_concurrency(),
      JsonString(sigsub::core::SimdAvailable() ? "simd" : "scalar").c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--machine") return PrintMachine();
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--smoke") {
      options.smoke = true;
    } else if (key == "--cli") {
      options.cli = value;
    } else if (key == "--work") {
      options.work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.cli.empty() || options.work_dir.empty() ||
      !(options.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --cli, --work and --seconds > 0 are required\n");
    return 2;
  }

  perfbench::Tracer tracer(options.trace);
  Outcome outcome;
  if (options.workload == "daemon_mixed") {
    outcome = perfbench::RunDaemonMixed(options, tracer);
  } else if (options.workload == "cli_mining") {
    outcome = perfbench::RunCliMining(options, tracer);
  } else if (options.workload == "substrings_mmap") {
    outcome = perfbench::RunSubstringsMmap(options, tracer);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (options.trace) {
    const std::vector<perfbench::Span> spans = tracer.spans();
    perfbench::AddTraceMetrics(spans, outcome);
    const std::string dump = options.work_dir + "/spans.tsv";
    if (!tracer.Dump(dump).ok()) outcome.Fail("cannot write span dump " + dump);
  }

  std::string metrics;
  for (const auto& [name, value] : outcome.metrics) {
    // A NaN or infinity is a measurement bug; report it as a problem
    // instead of emitting invalid JSON.
    const bool finite = std::isfinite(value);
    if (!finite) outcome.Fail("non-finite metric " + name);
    metrics += (metrics.empty() ? "" : ",") + JsonString(name) + ":" +
               JsonNumber(finite ? value : 0.0);
  }

  std::printf("%s", outcome.report.str().c_str());
  std::string json = "{\"attempted\":" + std::to_string(outcome.attempted) +
                     ",\"failed\":" + std::to_string(outcome.failed) +
                     ",\"problems\":[";
  for (size_t i = 0; i < outcome.problems.size(); ++i) {
    json += (i ? "," : "") + JsonString(outcome.problems[i]);
  }
  json += "],\"metrics\":{" + metrics;
  json += "},\"exact\":{";
  bool first = true;
  for (const auto& [name, value] : outcome.exact) {
    json += (first ? "" : ",") + JsonString(name) + ":" + std::to_string(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
