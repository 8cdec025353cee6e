#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>

#include <iostream>

#include "api/query.h"
#include "api/serde.h"
#include "common/fault_injection.h"
#include "common/posix_io.h"
#include "common/str_util.h"
#include "core/significance.h"
#include "core/streaming.h"
#include "core/suffix_scan.h"
#include "core/top_t.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/engine_stats.h"
#include "engine/stream_manager.h"
#include "persist/journal.h"
#include "server/client.h"
#include "server/server.h"
#include "io/table_writer.h"
#include "seq/alphabet.h"
#include "seq/model.h"
#include "seq/sequence.h"
#include "stats/chi_squared.h"

namespace sigsub {
namespace cli {
namespace {

Result<double> ParseDouble(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrCat("flag ", flag, " expects a number, got \"", text, "\""));
  }
  // strtod reports overflow via ERANGE (returning ±HUGE_VAL): a silently
  // saturated threshold is worse than an error. Underflow to a denormal
  // or zero also sets ERANGE but is a faithful rounding, so only the
  // overflow case is rejected.
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    return Status::InvalidArgument(
        StrCat("flag ", flag, " value \"", text, "\" overflows a double"));
  }
  return value;
}

Result<int64_t> ParseInt(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrCat("flag ", flag, " expects an integer, got \"", text, "\""));
  }
  // Without this check strtoll silently clamps e.g.
  // --t=99999999999999999999 to LLONG_MAX.
  if (errno == ERANGE) {
    return Status::InvalidArgument(StrCat(
        "flag ", flag, " value \"", text, "\" is out of the 64-bit range"));
  }
  return static_cast<int64_t>(value);
}

Result<std::vector<double>> ParseProbs(const std::string& text) {
  std::vector<double> probs;
  for (const std::string& part : StrSplit(text, ',')) {
    SIGSUB_ASSIGN_OR_RETURN(double p, ParseDouble(part, "--probs"));
    probs.push_back(p);
  }
  return probs;
}

/// Trims trailing newlines/whitespace, which files (and piped stdin)
/// routinely carry. Shared by file and stdin ingestion so the two can
/// never diverge.
void TrimTrailingWhitespace(std::string* text) {
  while (!text->empty() &&
         (text->back() == '\n' || text->back() == '\r' ||
          text->back() == ' ' || text->back() == '\t')) {
    text->pop_back();
  }
}

Result<std::string> LoadInput(const CliOptions& options) {
  if (options.input_text) return *options.input_text;
  std::ifstream in(options.input_path);
  if (!in) {
    return Status::IOError(
        StrCat("cannot open '", options.input_path, "'"));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  TrimTrailingWhitespace(&text);
  return text;
}

/// Loads the corpus for the corpus-shaped commands (`batch`, `query`):
/// a lines/CSV file, or (query only) a single --string record.
Result<engine::Corpus> LoadCorpus(const CliOptions& options) {
  if (options.input_text) {
    return engine::Corpus::FromStrings({*options.input_text},
                                       options.alphabet);
  }
  if (options.format == "csv") {
    return engine::Corpus::FromCsvColumn(options.input_path, options.column,
                                         options.csv_header,
                                         options.alphabet);
  }
  return engine::Corpus::FromLines(options.input_path, options.alphabet);
}

engine::EngineOptions EngineOptionsFrom(const CliOptions& options) {
  engine::EngineOptions engine_options;
  engine_options.num_threads = static_cast<int>(options.threads);
  engine_options.cache_capacity = static_cast<size_t>(options.cache);
  engine_options.shard_min_sequence = options.shard_min;
  return engine_options;
}

/// The result-cache summary line of the engine-backed corpus commands.
std::string CacheLine(const engine::Engine& engine) {
  const engine::CacheStats stats = engine.cache_stats();
  return StrCat("cache: ", stats.hits, " hits, ", stats.misses, " misses (",
                engine.cache_size(), " entries)\n");
}

/// The five kinds `batch --job` and the single-record commands expose:
/// the paper's four problems plus disjoint top-t.
Result<api::QueryKind> ParseJob(const std::string& job) {
  for (api::QueryKind kind :
       {api::QueryKind::kMss, api::QueryKind::kTopT,
        api::QueryKind::kTopDisjoint, api::QueryKind::kThreshold,
        api::QueryKind::kMinLength}) {
    if (job == api::QueryKindToString(kind)) return kind;
  }
  return Status::InvalidArgument(
      StrCat("unknown job kind \"", job,
             "\" (expected mss|topt|disjoint|threshold|minlen)"));
}

/// The query of `kind` that the mining flags spell. Range errors speak
/// flag vocabulary (the engine's messages name query fields instead);
/// `what` names the command in the missing-cutoff error. A --pvalue
/// cutoff prints its derivation banner to `out`.
Result<api::QuerySpec> QueryFromFlags(const CliOptions& options,
                                      api::QueryKind kind, int k,
                                      int64_t max_matches, std::ostream& out,
                                      std::string_view what) {
  if ((kind == api::QueryKind::kTopT ||
       kind == api::QueryKind::kTopDisjoint) &&
      options.t < 1) {
    return Status::InvalidArgument(
        StrCat("--t must be >= 1, got ", options.t));
  }
  if (kind == api::QueryKind::kTopT && options.t > core::kMaxTopT) {
    return Status::InvalidArgument(
        StrCat("--t must be <= ", core::kMaxTopT, ", got ", options.t));
  }
  if ((kind == api::QueryKind::kMinLength ||
       kind == api::QueryKind::kTopDisjoint) &&
      options.min_length < 1) {
    return Status::InvalidArgument(
        StrCat("--min-length must be >= 1, got ", options.min_length));
  }
  api::QuerySpec spec;
  if (!options.probs.empty()) {
    spec.model = api::ModelSpec::Multinomial(options.probs);
  }
  switch (kind) {
    case api::QueryKind::kTopT:
      spec.request = api::TopTQuery{options.t};
      break;
    case api::QueryKind::kTopDisjoint:
      spec.request = api::TopDisjointQuery{options.t, options.min_length};
      break;
    case api::QueryKind::kThreshold: {
      // Cutoff precedence: --alpha-p, then --pvalue, then --alpha0. A
      // significance level is the principled spelling; a raw X² cutoff
      // must not silently override it.
      const double alpha_p =
          options.alpha_p > 0.0 ? options.alpha_p : options.pvalue;
      if (alpha_p < 0.0 && options.alpha0 < 0.0) {
        return Status::InvalidArgument(
            StrCat(what, " needs --alpha0 or --pvalue"));
      }
      if (options.alpha_p < 0.0 && options.pvalue > 0.0) {
        out << "alpha0 = "
            << StrFormat("%.4f",
                         stats::ResolveX2Cutoff(-1.0, options.pvalue, k - 1))
            << " (p-value " << StrFormat("%.3g", options.pvalue) << ")\n";
      }
      spec.request = api::ThresholdQuery{
          alpha_p > 0.0 ? -1.0 : options.alpha0, alpha_p, max_matches};
      break;
    }
    case api::QueryKind::kMinLength:
      spec.request = api::MinLengthQuery{options.min_length};
      break;
    default:
      break;  // kMss: the default request.
  }
  return spec;
}

/// Executes the `batch` command: the job flags spell one query, replicated
/// per record and fanned across the engine.
Result<std::string> RunBatch(const CliOptions& options) {
  SIGSUB_ASSIGN_OR_RETURN(engine::Corpus corpus, LoadCorpus(options));
  SIGSUB_ASSIGN_OR_RETURN(api::QueryKind kind, ParseJob(options.job));
  const int k = corpus.alphabet().size();

  // Range checks the user expressed as flags are reported in flag
  // vocabulary here; only value-level model validation (normalization,
  // positivity) is left to the engine's query-layer messages.
  if (!options.probs.empty() &&
      static_cast<int>(options.probs.size()) != k) {
    return Status::InvalidArgument(
        StrCat("--probs has ", options.probs.size(),
               " probabilities but the corpus alphabet has ", k,
               " symbols"));
  }
  std::ostringstream out;
  // Threshold rows stay one-per-record: count + best, no matches.
  SIGSUB_ASSIGN_OR_RETURN(
      api::QuerySpec query_template,
      QueryFromFlags(options, kind, k, /*max_matches=*/0, out,
                     "batch --job=threshold"));

  engine::Engine engine(EngineOptionsFrom(options));
  std::vector<api::QuerySpec> queries(static_cast<size_t>(corpus.size()),
                                      query_template);
  for (int64_t i = 0; i < corpus.size(); ++i) {
    queries[static_cast<size_t>(i)].sequence_index = i;
  }
  SIGSUB_ASSIGN_OR_RETURN(std::vector<api::QueryResult> results,
                          engine.ExecuteQueries(corpus, queries));
  SIGSUB_RETURN_IF_ERROR(engine::FirstQueryError(results));

  out << "corpus: " << corpus.size() << " records, k = " << k
      << ", job = " << api::QueryKindToString(kind)
      << ", threads = " << engine.num_threads() << "\n";

  if (kind == api::QueryKind::kThreshold) {
    io::TableWriter table(
        {"record", "n", "matches", "best_start", "best_end", "best_X2"});
    for (const api::QueryResult& result : results) {
      const core::Substring& best = result.best();
      bool any = result.match_count() > 0;
      table.AddRow({std::to_string(
                        corpus.source_index(result.sequence_index)),
                    std::to_string(corpus.sequence(result.sequence_index)
                                       .size()),
                    std::to_string(result.match_count()),
                    any ? std::to_string(best.start) : std::string("-"),
                    any ? std::to_string(best.end) : std::string("-"),
                    any ? StrFormat("%.4f", best.chi_square)
                        : std::string("-")});
    }
    out << table.Render();
  } else if (kind == api::QueryKind::kTopT ||
             kind == api::QueryKind::kTopDisjoint) {
    io::TableWriter table(
        {"record", "rank", "start", "end", "X2", "p-value"});
    for (const api::QueryResult& result : results) {
      std::span<const core::Substring> subs = result.substrings();
      if (subs.empty()) {
        // A record with no qualifying substring still gets a row, so it
        // cannot be mistaken for an unprocessed record.
        table.AddRow({std::to_string(
                          corpus.source_index(result.sequence_index)),
                      "-", "-", "-", "-", "-"});
        continue;
      }
      for (size_t rank = 0; rank < subs.size(); ++rank) {
        const core::Substring& sub = subs[rank];
        table.AddRow({std::to_string(
                          corpus.source_index(result.sequence_index)),
                      std::to_string(rank + 1), std::to_string(sub.start),
                      std::to_string(sub.end),
                      StrFormat("%.4f", sub.chi_square),
                      StrFormat("%.4g",
                                core::SubstringPValue(sub.chi_square, k))});
      }
    }
    out << table.Render();
  } else {
    io::TableWriter table(
        {"record", "n", "start", "end", "length", "X2", "p-value"});
    for (const api::QueryResult& result : results) {
      const core::Substring& best = result.best();
      bool any = best.length() > 0;  // minlen floor can exceed a record.
      table.AddRow({std::to_string(
                        corpus.source_index(result.sequence_index)),
                    std::to_string(corpus.sequence(result.sequence_index)
                                       .size()),
                    any ? std::to_string(best.start) : std::string("-"),
                    any ? std::to_string(best.end) : std::string("-"),
                    any ? std::to_string(best.length()) : std::string("-"),
                    any ? StrFormat("%.4f", best.chi_square)
                        : std::string("-"),
                    any ? StrFormat("%.4g",
                                    core::SubstringPValue(best.chi_square, k))
                        : std::string("-")});
    }
    out << table.Render();
  }

  out << CacheLine(engine);
  if (options.verbose) {
    // The same snapshot + rendering the server's STATS endpoint uses
    // (engine/engine_stats.h) — one vocabulary for both surfaces.
    out << "stats: "
        << engine::FormatEngineStats(
               engine::CollectEngineStats(&engine, nullptr))
        << "\n";
  }
  return out.str();
}

/// Executes the `query` command: collect the serialized queries from
/// repeatable --query= flags and/or a --queries-file, parse them with
/// api::ParseQuery, execute the batch natively, and render one table row
/// per materialized substring.
Result<std::string> RunQuery(const CliOptions& options) {
  SIGSUB_ASSIGN_OR_RETURN(engine::Corpus corpus, LoadCorpus(options));

  std::vector<std::string> texts = options.queries;
  if (!options.queries_file.empty()) {
    std::ifstream in(options.queries_file);
    if (!in) {
      return Status::IOError(
          StrCat("cannot open '", options.queries_file, "'"));
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      std::string_view trimmed = line;
      while (!trimmed.empty() && (trimmed.front() == ' ' ||
                                  trimmed.front() == '\t')) {
        trimmed.remove_prefix(1);
      }
      if (trimmed.empty() || trimmed.front() == '#') continue;
      texts.emplace_back(trimmed);
    }
  }
  if (texts.empty()) {
    return Status::InvalidArgument(
        "query needs at least one --query=SPEC or a non-empty "
        "--queries-file");
  }

  std::vector<api::QuerySpec> specs;
  specs.reserve(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    Result<api::QuerySpec> spec = api::ParseQuery(texts[i]);
    if (!spec.ok()) {
      return Status::InvalidArgument(StrCat("query ", i, " \"", texts[i],
                                            "\": ",
                                            spec.status().message()));
    }
    specs.push_back(std::move(spec).value());
  }

  engine::Engine engine(EngineOptionsFrom(options));
  SIGSUB_ASSIGN_OR_RETURN(std::vector<api::QueryResult> results,
                          engine.ExecuteQueries(corpus, specs));
  SIGSUB_RETURN_IF_ERROR(engine::FirstQueryError(results));

  const int k = corpus.alphabet().size();
  std::ostringstream out;
  out << "corpus: " << corpus.size() << " records, k = " << k
      << ", queries = " << specs.size()
      << ", threads = " << engine.num_threads() << "\n";

  io::TableWriter table({"query", "kind", "record", "matches", "rank",
                         "start", "end", "length", "X2", "p-value"});
  for (size_t i = 0; i < results.size(); ++i) {
    const api::QueryResult& result = results[i];
    // Markov-statistic MSS converges to χ²(k(k−1)), not χ²(k−1).
    const bool markov =
        specs[i].model.kind == api::ModelKind::kMarkov;
    const int dof = markov ? k * (k - 1) : k - 1;
    const stats::ChiSquaredDistribution dist(dof);
    const std::string query_id = std::to_string(i);
    const std::string kind_name(api::QueryKindToString(result.kind));
    const std::string record = std::to_string(
        corpus.source_index(result.sequence_index));
    const std::string matches = std::to_string(result.match_count());
    std::span<const core::Substring> subs = result.substrings();
    if (subs.empty()) {
      table.AddRow({query_id, kind_name, record, matches, "-", "-", "-",
                    "-", "-", "-"});
      continue;
    }
    for (size_t rank = 0; rank < subs.size(); ++rank) {
      const core::Substring& sub = subs[rank];
      table.AddRow({query_id, kind_name, record, matches,
                    std::to_string(rank + 1), std::to_string(sub.start),
                    std::to_string(sub.end), std::to_string(sub.length()),
                    StrFormat("%.4f", sub.chi_square),
                    StrFormat("%.4g", dist.Sf(sub.chi_square))});
    }
  }
  out << table.Render();

  out << CacheLine(engine);
  return out.str();
}

/// Executes the `substrings` command: all-substrings mining over one
/// record. The record is either memory-mapped in place (--mmap: no decoded
/// in-RAM copy, the suffix index reads through the byte→symbol table) or
/// loaded like the other single-string commands. The default path routes a
/// serialized substrings query through the engine (shared validation,
/// result cache); --positions calls the suffix scan directly, since
/// occurrence positions are computed on request and never cached.
Result<std::string> RunSubstrings(const CliOptions& options) {
  std::string text;  // Backing for non-mapped corpora; also rendering.
  Result<engine::Corpus> loaded =
      options.mmap
          ? engine::Corpus::FromMappedFile(options.input_path,
                                           options.alphabet)
          : [&]() -> Result<engine::Corpus> {
              SIGSUB_ASSIGN_OR_RETURN(text, LoadInput(options));
              if (text.empty()) {
                return Status::InvalidArgument("input string is empty");
              }
              return engine::Corpus::FromStrings({text}, options.alphabet);
            }();
  SIGSUB_RETURN_IF_ERROR(loaded.status());
  engine::Corpus corpus = std::move(loaded).value();
  const int k = corpus.alphabet().size();
  if (!options.probs.empty() &&
      static_cast<int>(options.probs.size()) != k) {
    return Status::InvalidArgument(
        StrCat("--probs has ", options.probs.size(),
               " probabilities but the record alphabet has ", k,
               " symbols"));
  }
  const std::string_view record =
      options.mmap
          ? std::string_view(
                reinterpret_cast<const char*>(corpus.mapped_record().data()),
                corpus.mapped_record().size())
          : std::string_view(text);

  std::ostringstream out;
  out << "n = " << record.size() << ", k = " << k
      << (options.mmap ? ", mapped" : "") << "\n";

  // Rendered substring text column; long substrings are elided, the
  // start/end columns always identify them exactly.
  auto render_text = [&record](const core::Substring& sub) {
    constexpr int64_t kMaxShown = 24;
    if (sub.length() <= kMaxShown) {
      return StrCat("\"",
                    std::string(record.substr(
                        static_cast<size_t>(sub.start),
                        static_cast<size_t>(sub.length()))),
                    "\"");
    }
    return StrCat("\"",
                  std::string(record.substr(static_cast<size_t>(sub.start),
                                            kMaxShown)),
                  "\"... (", sub.length(), " symbols)");
  };
  io::TableWriter table({"rank", "start", "end", "length", "count", "X2",
                         "p-value", "substring"});
  auto add_row = [&](size_t rank, const core::Substring& sub, int64_t count,
                     double p_value) {
    table.AddRow({std::to_string(rank + 1), std::to_string(sub.start),
                  std::to_string(sub.end), std::to_string(sub.length()),
                  std::to_string(count), StrFormat("%.4f", sub.chi_square),
                  StrFormat("%.4g", p_value), render_text(sub)});
  };

  if (options.positions) {
    // Direct core call: positions are collected during the sweep and are
    // not part of the cached result shape.
    std::vector<double> probs = options.probs;
    if (probs.empty()) probs.assign(k, 1.0 / k);
    SIGSUB_ASSIGN_OR_RETURN(
        core::ChiSquareContext context,
        core::ChiSquareContext::Make(std::move(probs)));
    core::SuffixScanOptions scan_options;
    scan_options.top_n = options.top;
    scan_options.min_length = options.min_length;
    scan_options.max_length = options.max_length;
    scan_options.min_count = options.min_count;
    scan_options.maximal_only = !options.all_substrings;
    scan_options.collect_positions = true;
    scan_options.min_x2 =
        stats::ResolveX2Cutoff(options.alpha0, options.alpha_p, k - 1);
    SIGSUB_ASSIGN_OR_RETURN(
        core::SuffixScan scan,
        options.mmap
            ? core::SuffixScan::BuildMapped(corpus.mapped_record(),
                                            corpus.decode_table(), k)
            : core::SuffixScan::Build(corpus.sequence(0).symbols(), k));
    SIGSUB_ASSIGN_OR_RETURN(core::SuffixScanResult result,
                            scan.Scan(context, scan_options));
    out << result.match_count << " matching substrings";
    if (result.match_count >
        static_cast<int64_t>(result.classes.size())) {
      out << " (showing " << result.classes.size() << ")";
    }
    out << "\n";
    for (size_t i = 0; i < result.classes.size(); ++i) {
      add_row(i, result.classes[i].substring, result.classes[i].count,
              result.classes[i].p_value);
    }
    if (table.row_count() > 0) out << table.Render();
    for (size_t i = 0; i < result.positions.size(); ++i) {
      out << "positions " << (i + 1) << ":";
      for (int64_t pos : result.positions[i]) out << " " << pos;
      out << "\n";
    }
    out << "classes: " << result.stats.classes_enumerated
        << " enumerated, " << result.stats.candidates_scored
        << " candidates scored; index: " << result.stats.index_bytes
        << " bytes (peak " << result.stats.peak_index_bytes << ")\n";
    return out.str();
  }

  // Engine path: the flags spell one substrings query (shared
  // validation with the query command and the wire protocol). --alpha0
  // applies only when it is a cutoff (>= 0) and --alpha-p is unset.
  api::QuerySpec spec;
  if (!options.probs.empty()) {
    spec.model = api::ModelSpec::Multinomial(options.probs);
  }
  spec.request = api::SubstringsQuery{
      options.top,
      options.min_length,
      options.max_length,
      options.min_count,
      !options.all_substrings,
      options.alpha_p < 0.0 && options.alpha0 >= 0.0 ? options.alpha0 : -1.0,
      options.alpha_p};
  engine::Engine engine(EngineOptionsFrom(options));
  SIGSUB_ASSIGN_OR_RETURN(std::vector<api::QueryResult> results,
                          engine.ExecuteQueries(corpus, {spec}));
  SIGSUB_RETURN_IF_ERROR(engine::FirstQueryError(results));
  const auto& payload =
      std::get<api::SubstringsPayload>(results[0].payload);
  out << payload.match_count << " matching substrings";
  if (payload.match_count > static_cast<int64_t>(payload.ranked.size())) {
    out << " (showing " << payload.ranked.size() << ")";
  }
  out << "\n";
  for (size_t i = 0; i < payload.ranked.size(); ++i) {
    add_row(i, payload.ranked[i], payload.counts[i], payload.p_values[i]);
  }
  if (table.row_count() > 0) out << table.Render();
  out << CacheLine(engine);
  return out.str();
}

/// Executes the `stream` command: treat the input as one symbol stream,
/// ingest it in --chunk-sized AppendChunk calls through an
/// engine::StreamManager, and render the alarm log plus the calibration
/// summary.
Result<std::string> RunStream(const CliOptions& options) {
  std::string text;
  if (options.input_path == "-") {
    // Raw read(2) with EINTR retry (posix_io.h), not std::cin.rdbuf(): an
    // iostream read aborted by a signal mid-pipe silently truncates the
    // stream, and a truncated symbol stream is a wrong answer, not an
    // error.
    SIGSUB_ASSIGN_OR_RETURN(text, ReadFdToEof(0));
    TrimTrailingWhitespace(&text);
  } else {
    SIGSUB_ASSIGN_OR_RETURN(text, LoadInput(options));
  }
  if (text.empty()) {
    return Status::InvalidArgument("stream input is empty");
  }
  if (options.alpha <= 0.0 || options.alpha >= 1.0) {
    return Status::InvalidArgument(
        StrCat("--alpha must be in (0, 1), got ", options.alpha));
  }
  if (options.chunk < 1) {
    return Status::InvalidArgument(
        StrCat("--chunk must be >= 1, got ", options.chunk));
  }

  std::string alphabet_chars = options.alphabet;
  if (alphabet_chars.empty()) {
    alphabet_chars = engine::Corpus::InferAlphabetChars({text});
  }
  SIGSUB_ASSIGN_OR_RETURN(seq::Alphabet alphabet,
                          seq::Alphabet::FromCharacters(alphabet_chars));
  SIGSUB_ASSIGN_OR_RETURN(seq::Sequence sequence,
                          seq::Sequence::FromString(alphabet, text));
  std::vector<double> probs = options.probs;
  if (probs.empty()) {
    probs.assign(alphabet.size(), 1.0 / alphabet.size());
  }

  engine::StreamManagerOptions manager_options;
  manager_options.max_alarms_per_stream = 1024;
  engine::StreamManager manager(manager_options);

  core::StreamingDetector::Options detector_options;
  detector_options.alpha = options.alpha;
  detector_options.max_window = options.max_window;
  const std::string name =
      options.input_text
          ? std::string("string")
          : (options.input_path == "-" ? std::string("stdin")
                                       : options.input_path);
  SIGSUB_RETURN_IF_ERROR(manager.CreateStream(name, probs, detector_options));

  std::span<const uint8_t> symbols = sequence.symbols();
  for (size_t offset = 0; offset < symbols.size();
       offset += static_cast<size_t>(options.chunk)) {
    const size_t chunk = std::min(static_cast<size_t>(options.chunk),
                                  symbols.size() - offset);
    SIGSUB_RETURN_IF_ERROR(
        manager.Append(name, symbols.subspan(offset, chunk)).status());
  }
  SIGSUB_ASSIGN_OR_RETURN(engine::StreamSnapshot snapshot,
                          manager.Snapshot(name));

  const int k = alphabet.size();
  std::ostringstream out;
  out << "stream \"" << name << "\": n = " << snapshot.position
      << ", k = " << k << ", chunk = " << options.chunk << "\n";
  out << "scales:";
  for (int64_t scale : snapshot.scales) out << " " << scale;
  out << "\n";
  out << "per-scale X2 threshold = "
      << StrFormat("%.4f", snapshot.thresholds.empty()
                               ? 0.0
                               : snapshot.thresholds.front())
      << " (alpha " << StrFormat("%.3g", options.alpha)
      << ", Sidak over " << snapshot.scales.size() << " scales, chi2(k-1))\n";

  out << "alarms: " << snapshot.alarms_total;
  if (snapshot.alarms_dropped > 0) {
    out << " (showing last " << snapshot.recent_alarms.size() << ")";
  }
  out << "\n";
  if (!snapshot.recent_alarms.empty()) {
    io::TableWriter table({"end", "length", "X2", "p-value"});
    for (const core::StreamingDetector::Alarm& alarm :
         snapshot.recent_alarms) {
      table.AddRow({std::to_string(alarm.end), std::to_string(alarm.length),
                    StrFormat("%.4f", alarm.chi_square),
                    StrFormat("%.4g", alarm.p_value)});
    }
    out << table.Render();
  }
  return out.str();
}

/// The live server behind the `serve` command, latched for the signal
/// handler. RequestDrain is async-signal-safe (one atomic store + one
/// pipe write), so the handler may call it directly.
std::atomic<server::Server*> g_serve_instance{nullptr};

void HandleServeSignal(int /*signum*/) {
  server::Server* instance = g_serve_instance.load(std::memory_order_acquire);
  if (instance != nullptr) instance->RequestDrain();
}

/// Executes the `serve` command: load the corpus, start sigsubd, print
/// the listening banner immediately (scripts need the ephemeral port
/// before the daemon exits), then block until a SIGTERM/SIGINT-initiated
/// drain — or self-drain after --max-runtime-ms. The returned report is
/// the post-drain counter summary.
Result<std::string> RunServe(const CliOptions& options) {
  SIGSUB_ASSIGN_OR_RETURN(engine::Corpus corpus, LoadCorpus(options));
  server::ServerOptions server_options;
  server_options.host = options.host;
  server_options.port = static_cast<int>(options.port);
  server_options.engine = EngineOptionsFrom(options);
  server_options.max_connections = static_cast<int>(options.max_clients);
  server_options.max_queue = static_cast<size_t>(options.max_queue);
  server_options.max_inflight_per_client =
      static_cast<int>(options.max_inflight);
  server_options.idle_timeout_ms = options.idle_timeout_ms;
  server_options.state_dir = options.state_dir;
  SIGSUB_ASSIGN_OR_RETURN(server_options.fsync_policy,
                          persist::ParseFsyncPolicy(options.fsync));
  server_options.snapshot_interval_ms = options.snapshot_interval_ms;

  server::Server daemon(std::move(corpus), server_options);
  SIGSUB_RETURN_IF_ERROR(daemon.Start());
  g_serve_instance.store(&daemon, std::memory_order_release);
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  std::cout << "sigsubd listening on " << options.host << ":"
            << daemon.port() << "\n"
            << std::flush;
  if (!options.state_dir.empty()) {
    // The recovery line is part of the startup banner: operators (and
    // the crash-recovery tests) read it to confirm replay happened.
    const persist::RecoveryStats& r = daemon.recovery();
    std::cout << "sigsubd recovered: snapshot="
              << (r.snapshot_loaded ? 1 : 0) << " streams="
              << r.streams_restored << " journal_applied="
              << r.journal_records_applied << " journal_skipped="
              << r.journal_records_skipped << " journal_failed="
              << r.journal_records_failed << " truncated_bytes="
              << r.journal_bytes_truncated << " cache_entries="
              << r.cache_entries_loaded << "\n"
              << std::flush;
  }

  if (options.max_runtime_ms > 0) {
    const int64_t deadline = MonotonicMillis() + options.max_runtime_ms;
    while (!daemon.draining() && MonotonicMillis() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    daemon.RequestDrain();
  }
  daemon.Join();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serve_instance.store(nullptr, std::memory_order_release);

  server::ServerStats stats = daemon.stats();
  return StrCat("sigsubd drained: accepted=", stats.connections_accepted,
                " admitted=", stats.requests_admitted,
                " shed_busy=", stats.shed_busy,
                " shed_quota=", stats.shed_quota,
                " shed_drain=", stats.shed_drain,
                " proto_errors=", stats.protocol_errors,
                " alarms_pushed=", stats.alarms_pushed, "\n");
}

/// Executes the `client` command: send each protocol line in order,
/// print its reply (pushed ALARM lines pass through without consuming a
/// reply slot), then optionally linger for late pushes.
Result<std::string> RunClient(const CliOptions& options) {
  std::vector<std::string> commands = options.sends;
  if (!options.input_path.empty()) {
    std::string script;
    if (options.input_path == "-") {
      SIGSUB_ASSIGN_OR_RETURN(script, ReadFdToEof(0));
    } else {
      std::ifstream in(options.input_path);
      if (!in) {
        return Status::IOError(
            StrCat("cannot open '", options.input_path, "'"));
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      script = buffer.str();
    }
    for (const std::string& raw : StrSplit(script, '\n')) {
      std::string line = raw;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line.front() == '#') continue;
      commands.push_back(std::move(line));
    }
  }
  if (commands.empty()) {
    return Status::InvalidArgument(
        "client script is empty: nothing to send");
  }

  server::RetryPolicy retry;
  retry.retries = static_cast<int>(options.retries);
  retry.backoff_ms = options.backoff_ms;
  retry.timeout_ms = options.timeout_ms;
  SIGSUB_ASSIGN_OR_RETURN(
      server::LineClient connection,
      server::LineClient::ConnectWithRetry(
          options.host, static_cast<int>(options.port), retry));
  std::ostringstream out;
  for (const std::string& command : commands) {
    SIGSUB_RETURN_IF_ERROR(connection.SendLine(command));
    for (;;) {
      SIGSUB_ASSIGN_OR_RETURN(std::string reply,
                              connection.ReadLine(options.timeout_ms));
      out << reply << "\n";
      if (reply.rfind("ALARM ", 0) != 0) break;
    }
  }
  if (options.linger_ms > 0) {
    const int64_t deadline = MonotonicMillis() + options.linger_ms;
    for (;;) {
      int64_t remaining = deadline - MonotonicMillis();
      if (remaining <= 0) break;
      Result<std::string> line = connection.ReadLine(remaining);
      if (!line.ok()) break;  // Timeout or server-side close ends lingering.
      out << *line << "\n";
    }
  }
  return out.str();
}

std::string RenderSubstring(const core::Substring& sub, int k,
                            const std::string& text) {
  io::TableWriter table({"start", "end", "length", "X2", "p-value"});
  table.AddRow({std::to_string(sub.start), std::to_string(sub.end),
                std::to_string(sub.length()),
                StrFormat("%.4f", sub.chi_square),
                StrFormat("%.4g", core::SubstringPValue(sub.chi_square, k))});
  std::string out = table.Render();
  if (sub.length() > 0 && sub.length() <= 64) {
    out += StrCat("text: \"",
                  text.substr(static_cast<size_t>(sub.start),
                              static_cast<size_t>(sub.length())),
                  "\"\n");
  }
  return out;
}


/// Executes the single-record mining commands. `score` is one O(n)
/// evaluation and calls core::ScoreSubstring directly; mss, topt,
/// threshold and minlen spell one query and run it through the engine on
/// a one-record corpus, then render the command's table.
Result<std::string> RunRecord(const CliOptions& options) {
  SIGSUB_ASSIGN_OR_RETURN(std::string text, LoadInput(options));
  if (text.empty()) {
    return Status::InvalidArgument("input string is empty");
  }
  // Alphabet: explicit or inferred with the corpus rule, so single-string
  // and batch runs score the same input under the same alphabet.
  SIGSUB_ASSIGN_OR_RETURN(engine::Corpus corpus,
                          engine::Corpus::FromStrings({text},
                                                      options.alphabet));
  const seq::Sequence& sequence = corpus.sequence(0);
  const int k = corpus.alphabet().size();
  // The model is validated here, ahead of the engine, so every
  // single-record command (score included) reports it in one wording.
  std::vector<double> probs = options.probs;
  if (probs.empty()) probs.assign(static_cast<size_t>(k), 1.0 / k);
  SIGSUB_ASSIGN_OR_RETURN(seq::MultinomialModel model,
                          seq::MultinomialModel::Make(std::move(probs)));
  if (model.alphabet_size() != k) {
    return Status::InvalidArgument(
        StrCat("sequence alphabet size (", k, ") != model alphabet size (",
               model.alphabet_size(), ")"));
  }

  std::ostringstream out;
  out << "n = " << sequence.size() << ", k = " << k << "\n";
  if (options.command == "score") {
    if (options.start < 0 || options.end < 0) {
      return Status::InvalidArgument("score needs --start and --end");
    }
    SIGSUB_ASSIGN_OR_RETURN(
        core::ScoredSubstring scored,
        core::ScoreSubstring(sequence, model, options.start, options.end));
    out << RenderSubstring(scored.substring, k, text);
    out << "G2 = " << StrFormat("%.4f", scored.g2) << "\n";
    return out.str();
  }
  // A floor above n has no qualifying window; say so rather than render
  // an empty best.
  if (options.command == "minlen" &&
      (options.min_length < 1 || options.min_length > sequence.size())) {
    return Status::InvalidArgument(StrCat("min_length must be in [1, ",
                                          sequence.size(), "], got ",
                                          options.min_length));
  }
  // The single-record commands are named after their query kinds.
  SIGSUB_ASSIGN_OR_RETURN(
      api::QueryKind kind,
      ParseJob(options.command == "topt" && options.disjoint
                   ? std::string("disjoint")
                   : options.command));
  SIGSUB_ASSIGN_OR_RETURN(
      api::QuerySpec spec,
      QueryFromFlags(options, kind, k, /*max_matches=*/1000, out,
                     options.command));
  engine::EngineOptions engine_options = EngineOptionsFrom(options);
  // One query, run once: nothing to cache. `mss --threads=N` always
  // shards the record across the N workers.
  engine_options.cache_capacity = 0;
  engine_options.shard_min_sequence = 1;
  engine::Engine engine(engine_options);
  SIGSUB_ASSIGN_OR_RETURN(std::vector<api::QueryResult> results,
                          engine.ExecuteQueries(corpus, {spec}));
  SIGSUB_RETURN_IF_ERROR(engine::FirstQueryError(results));
  const api::QueryResult& result = results.front();

  if (kind == api::QueryKind::kMss || kind == api::QueryKind::kMinLength) {
    out << RenderSubstring(result.best(), k, text);
    if (kind == api::QueryKind::kMss) {
      out << "examined " << result.stats().positions_examined << " of "
          << core::TrivialScanPositions(sequence.size())
          << " candidate positions\n";
    }
  } else if (kind == api::QueryKind::kThreshold) {
    const auto& q = std::get<api::ThresholdQuery>(spec.request);
    const auto& payload = std::get<api::ThresholdPayload>(result.payload);
    out << payload.match_count << " substrings above "
        << stats::ResolveX2Cutoff(q.alpha0, q.alpha_p, k - 1);
    if (payload.match_count > static_cast<int64_t>(payload.matches.size())) {
      out << " (showing " << payload.matches.size() << ")";
    }
    out << "\n";
    io::TableWriter table({"start", "end", "X2"});
    for (const core::Substring& sub : payload.matches) {
      table.AddRow({std::to_string(sub.start), std::to_string(sub.end),
                    StrFormat("%.4f", sub.chi_square)});
    }
    if (table.row_count() > 0) out << table.Render();
  } else {
    io::TableWriter table({"rank", "start", "end", "X2", "p-value"});
    std::span<const core::Substring> subs = result.substrings();
    for (size_t i = 0; i < subs.size(); ++i) {
      table.AddRow({std::to_string(i + 1), std::to_string(subs[i].start),
                    std::to_string(subs[i].end),
                    StrFormat("%.4f", subs[i].chi_square),
                    StrFormat("%.4g",
                              core::SubstringPValue(subs[i].chi_square, k))});
    }
    out << table.Render();
  }
  return out.str();
}

struct Command {
  const char* name;
  Result<std::string> (*run)(const CliOptions&);
};

const Command kCommands[] = {
    {"mss", RunRecord},
    {"topt", RunRecord},
    {"threshold", RunRecord},
    {"minlen", RunRecord},
    {"score", RunRecord},
    {"substrings", RunSubstrings},
    {"batch", RunBatch},
    {"query", RunQuery},
    {"stream", RunStream},
    {"serve", RunServe},
    {"client", RunClient},
};

const Command* FindCommand(std::string_view name) {
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

/// Where a flag's value lands; the alternative also selects its parser.
using FlagField =
    std::variant<std::string CliOptions::*,
                 std::optional<std::string> CliOptions::*,
                 std::vector<std::string> CliOptions::*,
                 std::vector<double> CliOptions::*, int64_t CliOptions::*,
                 double CliOptions::*, bool CliOptions::*>;

/// Parse-time value ranges, checked once the flag is known to belong to
/// the command. kThreadCount is [0, engine::kMaxThreads], 0 meaning all
/// cores: checked before any pool exists.
enum class Range {
  kAny,
  kNonNegative,
  kPositive,
  kUnitInterval,
  kThreadCount
};

/// One command-line flag: its name, the commands that consume it (space
/// separated; "*" for every command), and where its value lands.
struct Flag {
  const char* name;
  const char* commands;
  FlagField field;
  Range range = Range::kAny;
};

const Flag kFlags[] = {
    {"string", "*", &CliOptions::input_text},
    {"input", "*", &CliOptions::input_path},
    {"alphabet", "*", &CliOptions::alphabet},
    {"probs", "*", &CliOptions::probs},
    {"threads", "mss batch query serve", &CliOptions::threads,
     Range::kThreadCount},
    {"t", "topt batch", &CliOptions::t},
    {"disjoint", "topt", &CliOptions::disjoint},
    {"min-length", "topt minlen substrings batch", &CliOptions::min_length},
    {"alpha0", "threshold substrings batch", &CliOptions::alpha0},
    {"pvalue", "threshold batch", &CliOptions::pvalue, Range::kUnitInterval},
    {"alpha-p", "substrings batch", &CliOptions::alpha_p,
     Range::kUnitInterval},
    {"start", "score", &CliOptions::start},
    {"end", "score", &CliOptions::end},
    {"top", "substrings", &CliOptions::top},
    {"max-length", "substrings", &CliOptions::max_length},
    {"min-count", "substrings", &CliOptions::min_count},
    {"all", "substrings", &CliOptions::all_substrings},
    {"positions", "substrings", &CliOptions::positions},
    {"mmap", "substrings", &CliOptions::mmap},
    {"cache", "substrings batch query serve", &CliOptions::cache,
     Range::kNonNegative},
    {"job", "batch", &CliOptions::job},
    {"verbose", "batch", &CliOptions::verbose},
    {"format", "batch query serve", &CliOptions::format},
    {"column", "batch query serve", &CliOptions::column},
    {"csv-header", "batch query serve", &CliOptions::csv_header},
    {"shard-min", "batch query serve", &CliOptions::shard_min},
    {"query", "query", &CliOptions::queries},
    {"queries-file", "query", &CliOptions::queries_file},
    {"alpha", "stream", &CliOptions::alpha},
    {"max-window", "stream", &CliOptions::max_window},
    {"chunk", "stream", &CliOptions::chunk},
    {"port", "serve client", &CliOptions::port},
    {"host", "serve client", &CliOptions::host},
    {"max-clients", "serve", &CliOptions::max_clients},
    {"max-queue", "serve", &CliOptions::max_queue},
    {"max-inflight", "serve", &CliOptions::max_inflight},
    {"idle-timeout-ms", "serve", &CliOptions::idle_timeout_ms},
    {"max-runtime-ms", "serve", &CliOptions::max_runtime_ms},
    {"state-dir", "serve", &CliOptions::state_dir},
    {"fsync", "serve", &CliOptions::fsync},
    {"snapshot-interval-ms", "serve", &CliOptions::snapshot_interval_ms,
     Range::kNonNegative},
    {"send", "client", &CliOptions::sends},
    {"timeout-ms", "client", &CliOptions::timeout_ms, Range::kPositive},
    {"linger-ms", "client", &CliOptions::linger_ms, Range::kNonNegative},
    {"retries", "client", &CliOptions::retries, Range::kNonNegative},
    {"backoff-ms", "client", &CliOptions::backoff_ms, Range::kPositive},
};

bool ConsumedBy(const Flag& flag, std::string_view command) {
  if (std::string_view(flag.commands) == "*") return true;
  for (const std::string& name : StrSplit(flag.commands, ' ')) {
    if (name == command) return true;
  }
  return false;
}

/// Parses `value` into the flag's field.
Status SetFlag(const Flag& flag, const std::string& value,
               CliOptions* options) {
  const std::string name = StrCat("--", flag.name);
  if (const auto* field = std::get_if<bool CliOptions::*>(&flag.field)) {
    // `--csv-header=false` must not silently enable header skipping.
    if (!value.empty()) {
      return Status::InvalidArgument(
          StrCat("flag ", name, " does not take a value"));
    }
    options->**field = true;
  } else if (const auto* field =
                 std::get_if<int64_t CliOptions::*>(&flag.field)) {
    SIGSUB_ASSIGN_OR_RETURN(options->**field, ParseInt(value, name));
  } else if (const auto* field =
                 std::get_if<double CliOptions::*>(&flag.field)) {
    SIGSUB_ASSIGN_OR_RETURN(options->**field, ParseDouble(value, name));
  } else if (const auto* field =
                 std::get_if<std::vector<double> CliOptions::*>(
                     &flag.field)) {
    SIGSUB_ASSIGN_OR_RETURN(options->**field, ParseProbs(value));
  } else if (const auto* field =
                 std::get_if<std::vector<std::string> CliOptions::*>(
                     &flag.field)) {
    (options->**field).push_back(value);
  } else if (const auto* field =
                 std::get_if<std::optional<std::string> CliOptions::*>(
                     &flag.field)) {
    options->**field = value;
  } else {
    options->*std::get<std::string CliOptions::*>(flag.field) = value;
  }
  return Status::OK();
}

Status CheckRange(const Flag& flag, const CliOptions& options) {
  if (flag.range == Range::kAny) return Status::OK();
  if (flag.range == Range::kUnitInterval) {
    // Written so NaN fails too: every comparison against it is false.
    const double value = options.*std::get<double CliOptions::*>(flag.field);
    if (value > 0.0 && value < 1.0) return Status::OK();
    return Status::InvalidArgument(
        StrCat("--", flag.name, " must be in (0, 1), got ", value));
  }
  const int64_t value = options.*std::get<int64_t CliOptions::*>(flag.field);
  if (flag.range == Range::kThreadCount) {
    if (value >= 0 && value <= engine::kMaxThreads) return Status::OK();
    return Status::InvalidArgument(StrCat("--", flag.name, " must be in [0, ",
                                          engine::kMaxThreads,
                                          "] (0 = all cores), got ", value));
  }
  const int64_t min = flag.range == Range::kPositive ? 1 : 0;
  if (value >= min) return Status::OK();
  return Status::InvalidArgument(
      StrCat("--", flag.name, " must be >= ", min, ", got ", value));
}

/// Corpus-file layout flags (batch, query, serve).
Status CheckCorpusFormat(const CliOptions& options,
                         const std::function<bool(const char*)>& given) {
  if (options.format != "lines" && options.format != "csv") {
    return Status::InvalidArgument(StrCat(
        "--format must be lines or csv, got \"", options.format, "\""));
  }
  // CSV-shaping flags with a lines corpus would be silently ignored,
  // which is exactly what per-command flag validation exists to stop.
  for (const char* flag : {"column", "csv-header"}) {
    if (options.format != "csv" && given(flag)) {
      return Status::InvalidArgument(
          StrCat("flag --", flag, " requires --format=csv"));
    }
  }
  return Status::OK();
}

/// Cross-flag rules of each command, checked after every flag parsed.
/// `given(name)` reports whether --name was on the command line.
Status ValidateCommand(const CliOptions& options,
                       const std::function<bool(const char*)>& given) {
  const std::string& command = options.command;
  if (command == "topt" && !options.disjoint && given("min-length")) {
    return Status::InvalidArgument(
        "flag --min-length is only consumed by topt with --disjoint");
  }
  if (command == "serve") {
    if (options.input_text) {
      return Status::InvalidArgument(
          "serve mines a corpus file; use --input=PATH, not --string");
    }
    if (options.input_path.empty()) {
      return Status::InvalidArgument(
          "serve requires --input=PATH (the corpus the daemon serves)");
    }
    if (!options.probs.empty()) {
      return Status::InvalidArgument(
          "flag --probs is not consumed by serve; stream models arrive "
          "with STREAM.CREATE and query models inside each QUERY");
    }
    SIGSUB_RETURN_IF_ERROR(CheckCorpusFormat(options, given));
    if (options.port < 0 || options.port > 65535) {
      return Status::InvalidArgument(
          StrCat("--port must be in [0, 65535], got ", options.port));
    }
    if (options.max_clients < 1 || options.max_queue < 1 ||
        options.max_inflight < 1) {
      return Status::InvalidArgument(
          "--max-clients, --max-queue and --max-inflight must be >= 1");
    }
    // ParseFsyncPolicy validates the spelling; the result is recomputed
    // in RunServe (CliOptions carries plain strings).
    SIGSUB_RETURN_IF_ERROR(
        persist::ParseFsyncPolicy(options.fsync).status());
    for (const char* flag : {"fsync", "snapshot-interval-ms"}) {
      if (options.state_dir.empty() && given(flag)) {
        return Status::InvalidArgument(
            StrCat("flag --", flag, " requires --state-dir"));
      }
    }
    return Status::OK();
  }
  if (command == "client") {
    for (const char* flag : {"string", "alphabet", "probs"}) {
      if (given(flag)) {
        return Status::InvalidArgument(
            StrCat("flag --", flag, " is not consumed by client"));
      }
    }
    if (options.port < 1 || options.port > 65535) {
      return Status::InvalidArgument(
          StrCat("client requires --port in [1, 65535], got ",
                 options.port));
    }
    if (options.sends.empty() && options.input_path.empty()) {
      return Status::InvalidArgument(
          "client needs --send=CMD (repeatable) and/or --input=SCRIPT "
          "(one command per line; - reads stdin)");
    }
    return Status::OK();
  }
  if (command == "batch" || command == "query") {
    if (command == "batch" && options.input_text) {
      return Status::InvalidArgument(
          "batch mines a corpus file; use --input=PATH, not --string");
    }
    if (options.input_path.empty() && !options.input_text) {
      return Status::InvalidArgument(
          StrCat(command, " requires --input=PATH",
                 command == "query" ? " (or --string=TEXT)" : ""));
    }
    if (options.input_text && !options.input_path.empty()) {
      return Status::InvalidArgument("--string and --input are exclusive");
    }
    // A --string corpus has no file layout; corpus-shaping flags would be
    // silently ignored, which the flag-strictness contract forbids.
    for (const char* flag : {"format", "column", "csv-header"}) {
      if (options.input_text && given(flag)) {
        return Status::InvalidArgument(
            StrCat("flag --", flag,
                   " requires --input=PATH (a corpus file), not --string"));
      }
    }
    SIGSUB_RETURN_IF_ERROR(CheckCorpusFormat(options, given));
    if (command == "query") {
      if (options.queries.empty() && options.queries_file.empty()) {
        return Status::InvalidArgument(
            "query requires --query=SPEC (repeatable) or "
            "--queries-file=PATH");
      }
      if (!options.probs.empty()) {
        // Each query carries its own model; a corpus-level --probs would
        // be silently shadowed.
        return Status::InvalidArgument(
            "flag --probs is not consumed by query; put "
            "model=probs(p1;p2;...) inside each query instead");
      }
      return Status::OK();
    }
    SIGSUB_ASSIGN_OR_RETURN(api::QueryKind kind, ParseJob(options.job));
    // Job-parameter flags are only consumed by their own kind; reject the
    // rest so e.g. `--job=mss --pvalue=0.01` cannot silently do nothing.
    const bool ranked = kind == api::QueryKind::kTopT ||
                        kind == api::QueryKind::kTopDisjoint;
    const bool floored = kind == api::QueryKind::kMinLength ||
                         kind == api::QueryKind::kTopDisjoint;
    const bool cutoff = kind == api::QueryKind::kThreshold;
    for (const auto& [flag, relevant] :
         {std::pair{"t", ranked}, std::pair{"min-length", floored},
          std::pair{"alpha0", cutoff}, std::pair{"pvalue", cutoff},
          std::pair{"alpha-p", cutoff}}) {
      if (!relevant && given(flag)) {
        return Status::InvalidArgument(StrCat(
            "flag --", flag, " is not consumed by --job=", options.job));
      }
    }
    return Status::OK();
  }
  if (command == "substrings") {
    if (options.mmap && options.input_text) {
      return Status::InvalidArgument(
          "flag --mmap maps a file; use --input=PATH, not --string");
    }
    if (options.mmap && options.input_path.empty()) {
      return Status::InvalidArgument("flag --mmap requires --input=PATH");
    }
    if (options.all_substrings && options.max_length < 1) {
      return Status::InvalidArgument(
          "flag --all enumerates every distinct substring and requires "
          "--max-length=N to bound the output");
    }
  }
  if (!options.input_text && options.input_path.empty()) {
    return Status::InvalidArgument("one of --string or --input is required");
  }
  if (options.input_text && !options.input_path.empty()) {
    return Status::InvalidArgument("--string and --input are exclusive");
  }
  return Status::OK();
}

}  // namespace

std::string UsageText() {
  return
      "usage: sigsub_cli <command> [--flag=value ...]\n"
      "\n"
      "commands:\n"
      "  mss        most significant substring (Problem 1); --threads\n"
      "             (shards the record across the workers)\n"
      "  topt       top-t substrings (Problem 2); --t, --disjoint\n"
      "  threshold  substrings above a threshold (Problem 3); --alpha0 or "
      "--pvalue\n"
      "  minlen     MSS above a length floor (Problem 4); --min-length\n"
      "  score      score one substring; --start, --end\n"
      "  substrings all statistically significant distinct substrings of\n"
      "             one record, each with its occurrence count, X2 and\n"
      "             p-value (suffix-array scan); --top (0 = all matches),\n"
      "             --min-length, --max-length, --min-count, --alpha0 or\n"
      "             --alpha-p, --all (every distinct substring, not just\n"
      "             class-maximal ones; needs --max-length), --positions\n"
      "             (list occurrence positions), --mmap (memory-map\n"
      "             --input and mine it in place, no decoded copy)\n"
      "  batch      mine a whole corpus (one record per line, or a CSV\n"
      "             column with --format=csv); --job=mss|topt|disjoint|\n"
      "             threshold|minlen, --threads, --cache, plus the job's\n"
      "             own flags (--t, --min-length, --alpha0, --pvalue,\n"
      "             --alpha-p; --alpha-p is an engine-side p-value cutoff\n"
      "             and wins over --alpha0/--pvalue when several are set)\n"
      "  query      run serialized queries against a corpus: repeatable\n"
      "             --query=kind:key=val,... (kinds mss|topt|disjoint|\n"
      "             threshold|minlen|lenbound|arlm|agmm|blocked|\n"
      "             substrings; JSON accepted too) and/or\n"
      "             --queries-file=PATH (one per line, # comments);\n"
      "             corpus from --input or --string;\n"
      "             models live inside each query (model=uniform|\n"
      "             probs(p1;p2;...)|markov1(t11;...|i1;...))\n"
      "  stream     online monitoring: ingest the input as one symbol\n"
      "             stream in chunks and report calibrated suffix-window\n"
      "             alarms; --alpha, --max-window, --chunk (--input=-\n"
      "             reads stdin)\n"
      "  serve      run sigsubd, the mining daemon, over the --input\n"
      "             corpus: newline-delimited QUERY/STREAM.*/STATS\n"
      "             protocol over TCP; --port (0 = ephemeral), --host,\n"
      "             --threads, --max-clients, --max-queue, --max-inflight,\n"
      "             --idle-timeout-ms, --max-runtime-ms (0 = until\n"
      "             SIGTERM); drains gracefully on SIGTERM/SIGINT;\n"
      "             --state-dir=PATH makes stream state crash-safe\n"
      "             (journal + snapshots; replayed on restart), with\n"
      "             --fsync=always|none and --snapshot-interval-ms=N\n"
      "  client     send protocol lines to a running sigsubd and print\n"
      "             the replies; --host, --port, --send=CMD (repeatable),\n"
      "             --input=SCRIPT (- reads stdin), --timeout-ms,\n"
      "             --linger-ms (keep reading pushed ALARM lines),\n"
      "             --retries=N --backoff-ms=N (jittered exponential\n"
      "             connect retry)\n"
      "\n"
      "input:\n"
      "  --string=TEXT | --input=PATH   the string to mine (required;\n"
      "                                 batch accepts only --input)\n"
      "  --alphabet=CHARS               default: distinct input characters\n"
      "  --probs=p1,p2,...              default: uniform\n"
      "\n"
      "batch corpus:\n"
      "  --format=lines|csv             corpus layout (default lines)\n"
      "  --column=N --csv-header        CSV column selection\n"
      "  --threads=N --cache=N          worker threads (0..1024, 0 = all\n"
      "                                 cores) / cache entries\n"
      "  --shard-min=N                  split an MSS job across workers\n"
      "                                 when the record has >= N symbols\n"
      "                                 (default 2^20; 0 disables)\n"
      "\n"
      "every mining command but score and substrings --positions runs\n"
      "through the query engine; flags that a command does not consume\n"
      "are rejected\n";
}

Result<CliOptions> ParseArgs(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument(StrCat("missing command\n", UsageText()));
  }
  CliOptions options;
  options.command = args[0];
  if (FindCommand(options.command) == nullptr) {
    return Status::InvalidArgument(
        StrCat("unknown command \"", options.command, "\"\n", UsageText()));
  }
  std::vector<const Flag*> seen;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument(
          StrCat("expected --flag=value, got \"", arg, "\""));
    }
    const size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    const Flag* flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& f) { return name == f.name; });
    if (flag == std::end(kFlags)) {
      return Status::InvalidArgument(
          StrCat("unknown flag --", name, "\n", UsageText()));
    }
    SIGSUB_RETURN_IF_ERROR(SetFlag(*flag, value, &options));
    seen.push_back(flag);
  }
  for (const Flag* flag : seen) {
    if (!ConsumedBy(*flag, options.command)) {
      return Status::InvalidArgument(
          StrCat("flag --", flag->name, " is not valid for command ",
                 options.command, "\n", UsageText()));
    }
  }
  for (const Flag* flag : seen) {
    SIGSUB_RETURN_IF_ERROR(CheckRange(*flag, options));
  }
  SIGSUB_RETURN_IF_ERROR(ValidateCommand(options, [&](const char* name) {
    return std::any_of(seen.begin(), seen.end(), [&](const Flag* flag) {
      return std::string_view(flag->name) == name;
    });
  }));
  return options;
}

Result<std::string> Run(const CliOptions& options) {
  // Process-wide: a reader exiting mid-pipe (`sigsub_cli ... | head`)
  // must surface as an EPIPE write error, not kill the process — and the
  // serve/client sockets need the same guarantee.
  IgnoreSigpipe();
  // SIGSUB_FAULT=op:nth:fault arms the syscall fault-injection shim for
  // out-of-process crash testing of the real binary (no-op when unset;
  // a malformed spec is a hard error rather than silently testing
  // nothing).
  SIGSUB_RETURN_IF_ERROR(fault::ArmFromEnv());
  const Command* command = FindCommand(options.command);
  if (command == nullptr) {
    return Status::InvalidArgument(
        StrCat("unknown command \"", options.command, "\""));
  }
  return command->run(options);
}

}  // namespace cli
}  // namespace sigsub
