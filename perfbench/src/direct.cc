// Direct core-kernel replay of a QuerySpec: the same kernels the engine
// dispatches to, called without the engine, so outputs can be checked and
// each kernel's time lands in its own span.

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

std::string RowsKey(std::span<const core::Substring> rows) {
  std::string key;
  char cell[96];
  for (const core::Substring& row : rows) {
    std::snprintf(cell, sizeof(cell), "%lld:%lld:%.17g;",
                  static_cast<long long>(row.start),
                  static_cast<long long>(row.end), row.chi_square);
    key += cell;
  }
  return key;
}

core::SuffixScanOptions ScanOptionsFor(const api::SubstringsQuery& q, int k) {
  core::SuffixScanOptions options;
  options.top_n = q.top;
  options.min_length = q.min_length;
  options.max_length = q.max_length;
  options.min_count = q.min_count;
  options.maximal_only = q.maximal;
  if (q.alpha_p >= 0.0) {
    options.min_x2 = stats::ChiSquaredDistribution(k - 1).CriticalValue(q.alpha_p);
  } else if (q.alpha0 >= 0.0) {
    options.min_x2 = q.alpha0;
  }
  return options;
}

Result<DirectResult> RunDirect(const api::QuerySpec& spec,
                               const seq::Sequence& sequence,
                               const seq::PrefixCounts& counts, int k,
                               Tracer& tracer, int64_t request) {
  DirectResult out;
  const std::vector<double> uniform(static_cast<size_t>(k), 1.0 / k);
  auto take_best = [&out](const core::MssResult& result) {
    if (result.best.length() > 0) out.rows = {result.best};
    out.match_count = static_cast<int64_t>(out.rows.size());
    out.stats = result.stats;
  };

  if (spec.model.kind == api::ModelKind::kMarkov) {
    if (spec.kind() != api::QueryKind::kMss) {
      return Status::InvalidArgument("direct replay: Markov model on non-mss");
    }
    std::vector<double> initial = spec.model.initial;
    if (initial.empty()) initial = uniform;
    SIGSUB_ASSIGN_OR_RETURN(
        seq::MarkovModel model,
        seq::MarkovModel::Make(k, spec.model.transitions, std::move(initial)));
    ScopedSpan span(tracer, "core.markov_mss", request);
    SIGSUB_ASSIGN_OR_RETURN(core::MssResult result,
                            core::FindMssMarkov(sequence, model));
    take_best(result);
    return out;
  }

  SIGSUB_ASSIGN_OR_RETURN(
      core::ChiSquareContext context,
      core::ChiSquareContext::Make(
          spec.model.kind == api::ModelKind::kMultinomial ? spec.model.probs
                                                          : uniform));
  const std::string span_name =
      "core." + std::string(api::QueryKindToString(spec.kind()));
  const int64_t n = sequence.size();
  switch (spec.kind()) {
    case api::QueryKind::kMss: {
      ScopedSpan span(tracer, span_name, request);
      take_best(core::FindMss(counts, context));
      out.has_stats = true;
      break;
    }
    case api::QueryKind::kTopT: {
      const auto& q = std::get<api::TopTQuery>(spec.request);
      ScopedSpan span(tracer, span_name, request);
      core::TopTResult result = core::FindTopT(counts, context, q.t);
      out.rows = std::move(result.top);
      out.match_count = static_cast<int64_t>(out.rows.size());
      out.stats = result.stats;
      out.has_stats = true;
      break;
    }
    case api::QueryKind::kTopDisjoint: {
      const auto& q = std::get<api::TopDisjointQuery>(spec.request);
      core::TopDisjointOptions options;
      options.t = q.t;
      options.min_length = q.min_length;
      options.min_chi_square = q.min_chi_square;
      ScopedSpan span(tracer, span_name, request);
      out.rows = core::FindTopDisjoint(counts, context, options);
      out.match_count = static_cast<int64_t>(out.rows.size());
      break;
    }
    case api::QueryKind::kThreshold: {
      const auto& q = std::get<api::ThresholdQuery>(spec.request);
      const double alpha0 =
          q.alpha_p >= 0.0
              ? stats::ChiSquaredDistribution(k - 1).CriticalValue(q.alpha_p)
              : q.alpha0;
      core::ThresholdOptions options;
      options.max_matches = q.max_matches;
      ScopedSpan span(tracer, span_name, request);
      core::ThresholdResult result =
          core::FindAboveThreshold(counts, context, alpha0, options);
      out.rows = std::move(result.matches);
      out.match_count = result.match_count;
      out.stats = result.stats;
      out.has_stats = true;
      break;
    }
    case api::QueryKind::kMinLength: {
      const auto& q = std::get<api::MinLengthQuery>(spec.request);
      ScopedSpan span(tracer, span_name, request);
      take_best(core::FindMssMinLength(counts, context, q.min_length));
      out.has_stats = true;
      break;
    }
    case api::QueryKind::kLengthBounded: {
      const auto& q = std::get<api::LengthBoundedQuery>(spec.request);
      const int64_t max_length = q.max_length == 0 ? n : q.max_length;
      if (n < q.min_length || max_length < q.min_length) break;
      ScopedSpan span(tracer, span_name, request);
      take_best(
          core::FindMssLengthBounded(counts, context, q.min_length, max_length));
      out.has_stats = true;
      break;
    }
    case api::QueryKind::kArlm: {
      ScopedSpan span(tracer, span_name, request);
      take_best(core::FindMssArlm(sequence, counts, context));
      break;
    }
    case api::QueryKind::kAgmm: {
      ScopedSpan span(tracer, span_name, request);
      take_best(core::FindMssAgmm(sequence, counts, context));
      break;
    }
    case api::QueryKind::kBlocked: {
      const auto& q = std::get<api::BlockedQuery>(spec.request);
      ScopedSpan span(tracer, span_name, request);
      take_best(core::FindMssBlocked(sequence, counts, context, q.block_size));
      out.has_stats = true;
      break;
    }
    case api::QueryKind::kSubstrings: {
      const core::SuffixScanOptions options =
          ScanOptionsFor(std::get<api::SubstringsQuery>(spec.request), k);
      std::optional<core::SuffixScan> scan;
      {
        ScopedSpan span(tracer, "core.suffix_build", request);
        SIGSUB_ASSIGN_OR_RETURN(scan,
                                core::SuffixScan::Build(sequence.symbols(), k));
      }
      ScopedSpan span(tracer, "core.suffix_scan", request);
      SIGSUB_ASSIGN_OR_RETURN(core::SuffixScanResult result,
                              scan->Scan(context, options));
      for (const core::SubstringClass& cls : result.classes) {
        out.rows.push_back(cls.substring);
      }
      out.match_count = result.match_count;
      out.suffix = result.stats;
      break;
    }
  }
  return out;
}

void ReplayCounts::Add(const DirectResult& result, int64_t n) {
  if (result.has_stats) {
    positions_examined += result.stats.positions_examined;
    trivial_positions += static_cast<double>(core::TrivialScanPositions(n));
  }
  if (result.suffix.index_bytes > 0) {
    suffix_classes += result.suffix.classes_enumerated;
    suffix_candidates += result.suffix.candidates_scored;
    suffix_symbols += static_cast<double>(n);
    suffix_index_bytes += static_cast<double>(result.suffix.index_bytes);
    suffix_peak_bytes += static_cast<double>(result.suffix.peak_index_bytes);
  }
}

void ReplayCounts::AddPrefixCounts(int64_t n, int k) {
  prefix_counts_mb_max = std::max(
      prefix_counts_mb_max, 8.0 * k * static_cast<double>(n + 1) / (1 << 20));
}

void AddLayerMetrics(const std::vector<Span>& spans,
                     const ReplayCounts& counts, int engine_threads,
                     Outcome& outcome) {
  auto& m = outcome.metrics;
  for (const char* kernel :
       {"mss", "mss_sharded", "topt", "threshold", "minlen", "lenbound",
        "disjoint", "blocked", "arlm", "agmm", "markov_mss"}) {
    m[std::string("core.") + kernel + "_ms"] =
        MeanMs(spans, std::string("core.") + kernel);
  }
  m["core.positions_examined"] = static_cast<double>(counts.positions_examined);
  m["core.examined_frac"] =
      counts.trivial_positions > 0.0
          ? static_cast<double>(counts.positions_examined) /
                counts.trivial_positions
          : 0.0;
  const double build_ms = TotalMs(spans, "core.suffix_build");
  m["core.suffix_build_ms"] = MeanMs(spans, "core.suffix_build");
  m["core.suffix_build_msym_per_s"] =
      build_ms > 0.0 ? counts.suffix_symbols / 1e6 / (build_ms / 1e3) : 0.0;
  m["core.suffix_scan_ms"] = MeanMs(spans, "core.suffix_scan");
  const double symbols = counts.suffix_symbols;
  m["core.suffix_index_bytes_per_sym"] =
      symbols > 0.0 ? counts.suffix_index_bytes / symbols : 0.0;
  m["core.suffix_peak_bytes_per_sym"] =
      symbols > 0.0 ? counts.suffix_peak_bytes / symbols : 0.0;
  m["core.suffix_classes"] = static_cast<double>(counts.suffix_classes);
  m["core.suffix_candidates"] = static_cast<double>(counts.suffix_candidates);
  m["core.streaming_append_us"] = MeanMs(spans, "core.streaming_append") * 1e3;

  m["seq.prefix_counts_ms"] = MeanMs(spans, "seq.prefix_counts");
  m["seq.prefix_counts_mb"] = counts.prefix_counts_mb_max;
  m["io.lines_load_ms"] = MeanMs(spans, "io.lines_load");
  m["io.mmap_load_ms"] = MeanMs(spans, "io.mmap_load");
  m["engine.execute_ms"] = TotalMs(spans, "engine.execute");
  m["engine.fingerprint_ms"] = TotalMs(spans, "engine.fingerprint");
  m["stream.append_us"] = MeanMs(spans, "engine.stream_append") * 1e3;
  m["persist.journal_append_us"] =
      MeanMs(spans, "persist.journal_append") * 1e3;
  m["persist.snapshot_ms"] = MeanMs(spans, "persist.snapshot");
  m["protocol.parse_us"] = MeanMs(spans, "protocol.parse") * 1e3;
  m["protocol.format_us"] = MeanMs(spans, "protocol.format") * 1e3;
  m["api.parse_query_us"] = MeanMs(spans, "api.parse_query") * 1e3;
  m["api.fingerprint_us"] = MeanMs(spans, "api.fingerprint") * 1e3;

  // Σ direct (PrefixCounts + kernel) time over the engine's threads × its
  // wall time on the same queries: 1.0 means the engine's parallel run
  // costs nothing beyond the sequential work it spreads. Direct calls
  // replaying the engine's specs carry the spec's index as request id.
  double direct_ms = 0.0;
  for (const Span& s : spans) {
    if (s.request >= 0 &&
        (s.name == "seq.prefix_counts" || s.name.starts_with("core."))) {
      direct_ms += s.ms();
    }
  }
  const double execute_ms = m["engine.execute_ms"];
  m["engine.parallel_efficiency"] =
      execute_ms > 0.0 ? direct_ms / (engine_threads * execute_ms) : 0.0;
}

double TailQuantile(size_t n) {
  if (n == 0) return 0.99;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

}  // namespace perfbench
