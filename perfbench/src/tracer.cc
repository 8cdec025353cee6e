#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>

#include "bench.h"

namespace perfbench {

std::string RandomText(Rng& rng, int64_t n, std::string_view alphabet) {
  std::string text(static_cast<size_t>(n), '\0');
  for (char& c : text) c = alphabet[rng.Below(alphabet.size())];
  return text;
}

Status WriteFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
thread_local std::vector<int64_t> open_spans;
}  // namespace

void Tracer::Record(std::string_view name, int64_t start_ns, int64_t end_ns,
                    int64_t request) {
  if (!enabled_) return;
  const int64_t parent = open_spans.empty() ? 0 : open_spans.back();
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back(
      Span{id, parent, request, std::string(name), start_ns, end_ns});
}

int64_t Tracer::Open(std::string_view name, int64_t request) {
  const int64_t parent = open_spans.empty() ? 0 : open_spans.back();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int64_t>(spans_.size()) + 1;
    spans_.push_back(Span{id, parent, request, std::string(name), 0, 0});
  }
  open_spans.push_back(id);
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id - 1)].start_ns = start;
  return id;
}

void Tracer::Close(int64_t id) {
  const int64_t end = NowNs();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id - 1)].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Status Tracer::Dump(const std::string& path) const {
  std::ostringstream out;
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans()) {
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return WriteFile(path, out.str());
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string_view name,
                       int64_t request)
    : tracer_(tracer) {
  if (tracer_.enabled()) id_ = tracer_.Open(name, request);
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) tracer_.Close(id_);
}

std::string LayerOf(std::string_view name) {
  const std::string_view head = name.substr(0, name.find('.'));
  if (head == "protocol") return "server";
  if (head == "core") {
    if (name.starts_with("core.suffix")) return "core.suffix";
    if (name.starts_with("core.streaming")) return "core.streaming";
    return "core.interval";
  }
  return std::string(head);
}

const std::vector<std::string>& Layers() {
  static const std::vector<std::string> kLayers = {
      "cli",    "server", "api", "engine",        "persist",     "io",
      "seq",    "core.interval", "core.suffix",   "core.streaming"};
  return kLayers;
}

std::map<std::string, double> SelfTimeMs(const std::vector<Span>& spans) {
  // Children grouped by parent; a span's self time is its length minus
  // the union of its children's intervals (children of one span can
  // overlap when they ran on several threads).
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = s.start_ns;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[LayerOf(s.name)] += NsToMs(s.end_ns - s.start_ns - covered);
  }
  return self;
}

double TotalMs(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.ms();
  }
  return total;
}

int64_t CountSpans(const std::vector<Span>& spans, std::string_view name) {
  return std::count_if(spans.begin(), spans.end(),
                       [&](const Span& s) { return s.name == name; });
}

double MeanMs(const std::vector<Span>& spans, std::string_view name) {
  const int64_t count = CountSpans(spans, name);
  return count == 0 ? 0.0 : TotalMs(spans, name) / static_cast<double>(count);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double TailMean(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end(), std::greater<>());
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(values.size())));
  values.resize(keep);
  return Mean(values);
}

double TrimmedMean(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t drop = static_cast<size_t>(fraction * static_cast<double>(values.size()));
  if (2 * drop >= values.size()) return Median(std::move(values));
  return Mean(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(drop),
                                  values.end() - static_cast<std::ptrdiff_t>(drop)));
}

void Outcome::Fail(std::string why) {
  ++failed;
  if (problems.size() < 50) problems.push_back(std::move(why));
}

double SelfPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

void AddTraceMetrics(const std::vector<Span>& spans, Outcome& outcome) {
  const std::map<std::string, double> self = SelfTimeMs(spans);
  for (const std::string& layer : Layers()) {
    auto it = self.find(layer);
    outcome.metrics["self." + layer + "_ms"] =
        it == self.end() ? 0.0 : it->second;
  }
  outcome.metrics["trace.spans"] = static_cast<double>(spans.size());
}

}  // namespace perfbench
