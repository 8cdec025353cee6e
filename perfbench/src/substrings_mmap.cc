// substrings_mmap: all-substrings mining through the library only.
//
// Corpus::FromMappedFile maps one seeded k=4 record (set up several times;
// the median is the set-up time) and one Engine serves it: a first
// `substrings` query, then a second, distinct one on the same record
// (different top/min_length, so the result cache misses). Each round uses
// a fresh Engine so its first query is cold. The record is sized so that
// the suffix index (steady plus transient, about 13 bytes per symbol)
// exceeds a 300 MiB L3. Last, the same two queries run through the core
// API directly (SuffixScan::BuildMapped once, then Scan twice): the path a
// library caller takes without the engine.
//
// Verification (outside the timed queries): both engine payloads must be
// bit-identical to the direct scans (X², counts and p-values).

#include <algorithm>

#include "bench.h"

namespace perfbench {
namespace {

constexpr const char* kFirst = "substrings:top=20,min_count=2";
constexpr const char* kRepeat = "substrings:top=10,min_length=8,min_count=3";

struct Config {
  int64_t symbols = 28'000'000;
  int setup_loads = 7;
};

bool SamePayload(const api::SubstringsPayload& payload,
                 const core::SuffixScanResult& direct) {
  if (payload.match_count != direct.match_count ||
      payload.ranked.size() != direct.classes.size()) {
    return false;
  }
  for (size_t i = 0; i < payload.ranked.size(); ++i) {
    const core::SubstringClass& cls = direct.classes[i];
    const core::Substring& got = payload.ranked[i];
    if (got.start != cls.substring.start || got.end != cls.substring.end ||
        got.chi_square != cls.substring.chi_square ||
        payload.counts[i] != cls.count || payload.p_values[i] != cls.p_value) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome RunSubstringsMmap(const RunOptions& options, Tracer& tracer) {
  Outcome outcome;
  Config config;
  if (options.smoke) config = {.symbols = 200'000, .setup_loads = 2};

  // ---- input: one iid k=4 record.
  const std::string path = options.work_dir + "/record.txt";
  {
    Rng rng(options.seed);
    Rng text_rng = rng.Fork(21);
    if (!WriteFile(path, RandomText(text_rng, config.symbols, "acgt") + "\n").ok()) {
      outcome.Fail("cannot write " + path);
      return outcome;
    }
  }

  // ---- set-up: map and validate the record, several times.
  std::vector<double> setups;
  std::optional<engine::Corpus> corpus;
  for (int i = 0; i < config.setup_loads; ++i) {
    const int64_t start = NowNs();
    Result<engine::Corpus> loaded = [&] {
      ScopedSpan span(tracer, "io.mmap_load");
      return engine::Corpus::FromMappedFile(path);
    }();
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!loaded.ok()) {
      outcome.Fail("FromMappedFile: " + loaded.status().ToString());
      return outcome;
    }
    corpus.emplace(std::move(loaded).value());
  }
  const int k = corpus->alphabet().size();
  const api::QuerySpec first = api::ParseQuery(kFirst).value();
  const api::QuerySpec repeat = api::ParseQuery(kRepeat).value();

  // ---- rounds. A traced run first repeats them untraced; the difference
  // is the tracing overhead.
  struct Rounds {
    std::vector<double> first_s, repeat_s;
    double wall_s = 0.0;
    std::optional<api::SubstringsPayload> first_payload, repeat_payload;
  };
  int64_t request = 0;
  auto run_rounds = [&](Tracer& round_tracer) {
    Rounds r;
    auto execute = [&](engine::Engine& engine, const api::QuerySpec& spec,
                       std::vector<double>& seconds,
                       std::optional<api::SubstringsPayload>& payload) {
      ++outcome.attempted;
      const int64_t t0 = NowNs();
      Result<std::vector<api::QueryResult>> result = [&] {
        ScopedSpan span(round_tracer, "engine.execute", ++request);
        return engine.ExecuteQueries(*corpus, {spec});
      }();
      seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (!result.ok()) {
        outcome.Fail("substrings query: " + result.status().ToString());
        return;
      }
      payload = std::get<api::SubstringsPayload>(result->front().payload);
    };
    const int64_t start = NowNs();
    double last_round_s = 0.0;
    while (r.first_s.empty() || r.wall_s + last_round_s <= options.seconds) {
      const int64_t round_start = NowNs();
      engine::Engine engine;
      execute(engine, first, r.first_s, r.first_payload);
      execute(engine, repeat, r.repeat_s, r.repeat_payload);
      last_round_s = static_cast<double>(NowNs() - round_start) / 1e9;
      r.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    }
    return r;
  };
  Tracer untraced(false);
  const Rounds rounds = run_rounds(untraced);
  // The program's own peak: the record mapping plus the engine's index.
  const double peak_rss = SelfPeakRssMb();
  std::optional<Rounds> traced;
  if (tracer.enabled()) traced = run_rounds(tracer);

  // ---- the direct core path, which is also the reference.
  ++outcome.attempted;
  const int64_t direct_start = NowNs();
  Result<core::SuffixScan> scan = [&] {
    ScopedSpan span(tracer, "core.suffix_build");
    return core::SuffixScan::BuildMapped(corpus->mapped_record(),
                                         corpus->decode_table(), k);
  }();
  Result<core::ChiSquareContext> context =
      core::ChiSquareContext::Make(std::vector<double>(k, 1.0 / k));
  if (!scan.ok() || !context.ok()) {
    outcome.Fail("direct suffix index build failed");
    return outcome;
  }
  std::vector<Result<core::SuffixScanResult>> direct;
  for (const api::QuerySpec* spec : {&first, &repeat}) {
    const core::SuffixScanOptions scan_options =
        ScanOptionsFor(std::get<api::SubstringsQuery>(spec->request), k);
    ScopedSpan span(tracer, "core.suffix_scan");
    direct.push_back(scan->Scan(*context, scan_options));
  }
  const double direct_s = static_cast<double>(NowNs() - direct_start) / 1e9;

  ReplayCounts counts;
  const char* names[] = {kFirst, kRepeat};
  for (size_t i = 0; i < direct.size(); ++i) {
    if (!direct[i].ok()) {
      outcome.Fail("direct suffix scan failed");
      continue;
    }
    for (const Rounds* r : {&rounds, traced ? &*traced : &rounds}) {
      const auto& payload = i == 0 ? r->first_payload : r->repeat_payload;
      if (!payload || !SamePayload(*payload, *direct[i])) {
        outcome.Fail(std::string("payload differs from the direct scan for ") +
                     names[i]);
      }
    }
    DirectResult shaped;
    shaped.suffix = direct[i]->stats;
    counts.Add(shaped, scan->size());
  }
  outcome.exact["core.suffix_classes"] = counts.suffix_classes;
  outcome.exact["core.suffix_candidates"] = counts.suffix_candidates;

  // ---- metrics.
  const double first_s = Median(rounds.first_s);
  const double repeat_s = Median(rounds.repeat_s);
  outcome.metrics["primary_ms"] = first_s * 1e3;
  outcome.metrics["secondary_ms"] = repeat_s * 1e3;
  outcome.metrics["tertiary_ms"] = direct_s * 1e3;
  outcome.metrics["throughput_per_s"] = 2.0 / (first_s + repeat_s);
  outcome.metrics["setup_s"] = Median(setups);
  outcome.metrics["peak_rss_mb"] = peak_rss;
  outcome.report << "substrings_mmap: one k=4 record of " << config.symbols
                 << " symbols (" << config.symbols + 1
                 << " bytes, mapped); suffix index peak "
                 << static_cast<double>(scan->peak_index_bytes()) / (1 << 20)
                 << " MiB vs 300 MiB L3; library only, one Engine per round\n"
                 << "substrings_first_s " << first_s << " s; substrings_repeat_s "
                 << repeat_s << " s (" << rounds.first_s.size()
                 << " rounds); direct BuildMapped + 2 Scans " << direct_s
                 << " s; setup_s " << Median(setups) << " s (" << setups.size()
                 << " loads); peak_rss_mb " << peak_rss << " MiB\n";

  if (!tracer.enabled()) return outcome;
  AddLayerMetrics(tracer.spans(), counts, 1, outcome);
  outcome.metrics["trace.overhead_ms"] = (Median(traced->first_s) - first_s) * 1e3;
  return outcome;
}

}  // namespace perfbench
