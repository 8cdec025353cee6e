// cli_mining: `sigsub_cli` as one child process per invocation.
//
// Each round runs (a) `query --threads=4` over a 64-record k=2 corpus
// whose queries file covers every interval kind plus one Markov mss (on a
// short 65th record),
// (b) the single-record commands `mss --threads=4` (the sharded path),
// `topt`, `threshold --pvalue` and `minlen`, each on four of sixteen long
// k=4 records, and a near-zero-work `query` on the same corpus file (the
// invocation's serial floor: process start plus corpus load), several
// times. Rounds repeat until the run's seconds are spent. No result cache
// or suffix index is involved.
//
// The kernels' pruning, and so their cost, depends on the record's
// contents; summing (b) over sixteen independent records keeps that
// seed-to-seed swing small next to the cost itself.
//
// Verification (outside the timed region): every query's rows and every
// single-record command's best rows are compared with direct core calls;
// later rounds must reproduce the first round's output.

#include <algorithm>
#include <sstream>

#include "bench.h"

namespace perfbench {
namespace {

struct Config {
  int records = 64;
  int64_t record_length = 10000;
  // The Markov mss gets a short record of its own: its kernel is quadratic,
  // and on a full record it would be one half-second task whose start time
  // in the pool (hash order of the cache keys, so of the contents) set the
  // query's wall time.
  int64_t markov_length = 3000;
  int long_records = 16;
  int64_t long_length = 16000;
  int query_runs = 2;  // Query invocations per round.
  int floor_runs = 8;  // Floor invocations per round.
  int setup_runs = 15;
};

constexpr const char* kIntervalKinds[] = {
    "mss:seq=%d",
    "topt:seq=%d,t=5",
    "disjoint:seq=%d,t=3,min_length=8,min_x2=0",
    "threshold:seq=%d,alpha_p=1e-06",
    "minlen:seq=%d,min_length=500",
    "lenbound:seq=%d,min_length=16,max_length=256",
    "arlm:seq=%d",
    "agmm:seq=%d",
    "blocked:seq=%d,block_size=64"};
constexpr int kKindCount = 9;
// The single-record commands; long record r runs command r % 4, so each
// command's cost sums over several records' contents.
constexpr const char* kRecordCommands[] = {"mss", "topt", "threshold", "minlen"};
constexpr int kRecordCommandCount = 4;
constexpr const char* kMarkovQuery = "mss:seq=%d,model=markov1(0.5;0.5;0.5;0.5)";
constexpr const char* kFloorQuery = "lenbound:seq=0,min_length=1,max_length=1";
constexpr double kPValue = 1e-6;
constexpr int kTopT = 10;
constexpr int kMinLength = 1000;

std::vector<std::string> Tokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::istringstream in{std::string(line)};
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

/// The rows of the first TableWriter table in `out` whose header starts
/// with `first_header`.
std::vector<std::vector<std::string>> TableRows(const std::string& out,
                                                std::string_view first_header) {
  std::vector<std::vector<std::string>> rows;
  const std::vector<std::string> lines = StrSplit(out, '\n');
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    const std::vector<std::string> header = Tokens(lines[i]);
    if (header.empty() || header[0] != first_header ||
        !lines[i + 1].starts_with("--")) {
      continue;
    }
    for (size_t j = i + 2; j < lines.size(); ++j) {
      std::vector<std::string> row = Tokens(lines[j]);
      if (row.size() != header.size()) break;
      rows.push_back(std::move(row));
    }
    break;
  }
  return rows;
}

std::string X2(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.4f", value);
  return text;
}

/// "start end X2" triples as the CLI prints them.
std::vector<std::string> Expected(std::span<const core::Substring> rows) {
  std::vector<std::string> out;
  for (const core::Substring& s : rows) {
    out.push_back(std::to_string(s.start) + " " + std::to_string(s.end) + " " +
                  X2(s.chi_square));
  }
  return out;
}

std::vector<std::string> Printed(const std::vector<std::vector<std::string>>& rows,
                                 size_t start_col, size_t end_col, size_t x2_col) {
  std::vector<std::string> out;
  for (const auto& row : rows) {
    out.push_back(row[start_col] + " " + row[end_col] + " " + row[x2_col]);
  }
  return out;
}

struct Invocation {
  std::string name;
  std::vector<std::string> argv;
};

}  // namespace

Outcome RunCliMining(const RunOptions& options, Tracer& tracer) {
  Outcome outcome;
  Config config;
  if (options.smoke) {
    config = {.records = 9, .record_length = 2000, .markov_length = 1000,
              .long_records = 4,
              .long_length = 8000, .query_runs = 1, .floor_runs = 2,
              .setup_runs = 3};
  }

  // ---- inputs.
  Rng rng(options.seed);
  Rng text_rng = rng.Fork(11);
  std::string corpus_text;
  for (int i = 0; i < config.records; ++i) {
    const int64_t n = config.record_length * 9 / 10 +
                      static_cast<int64_t>(text_rng.Below(config.record_length / 5 + 1));
    corpus_text += RandomText(text_rng, n, "01") + "\n";
  }
  corpus_text += RandomText(text_rng, config.markov_length, "01") + "\n";
  std::vector<std::string> long_texts;
  for (int r = 0; r < config.long_records; ++r) {
    long_texts.push_back(RandomText(text_rng, config.long_length, "acgt"));
  }
  std::vector<std::string> queries;
  char spec[160];
  for (int i = 0; i < config.records; ++i) {
    std::snprintf(spec, sizeof(spec), kIntervalKinds[i % kKindCount], i);
    queries.push_back(spec);
  }
  std::snprintf(spec, sizeof(spec), kMarkovQuery, config.records);
  queries.push_back(spec);
  std::string queries_text;
  for (const std::string& q : queries) queries_text += q + "\n";
  const std::string dir = options.work_dir;
  const std::string corpus_path = dir + "/corpus.txt";
  const std::string queries_path = dir + "/queries.txt";
  const std::string floor_path = dir + "/floor.txt";
  bool written = WriteFile(corpus_path, corpus_text).ok() &&
                 WriteFile(queries_path, queries_text).ok() &&
                 WriteFile(floor_path, std::string(kFloorQuery) + "\n").ok();
  std::vector<std::string> long_paths;
  for (int r = 0; r < config.long_records; ++r) {
    long_paths.push_back(dir + "/long" + std::to_string(r) + ".txt");
    written = written && WriteFile(long_paths.back(), long_texts[r] + "\n").ok();
  }
  if (!written) {
    outcome.Fail("cannot write the inputs");
    return outcome;
  }
  outcome.report << "cli_mining: (a) " << config.records << " records x ~"
                 << config.record_length << " symbols + one of "
                 << config.markov_length << " for the Markov mss (k=2, "
                 << corpus_text.size() << " corpus bytes), " << queries.size()
                 << " queries, --threads=4; (b) " << config.long_records
                 << " k=4 records of " << config.long_length
                 << " symbols, one command each; floor query x"
                 << config.floor_runs << "; one child process per invocation, "
                    "run back to back\n";

  // Single-record command invocations are named "<command>/<record>".
  const std::string& cli = options.cli;
  std::vector<Invocation> round;
  for (int i = 0; i < config.query_runs; ++i) {
    round.push_back({"query", {cli, "query", "--input=" + corpus_path,
                               "--queries-file=" + queries_path, "--threads=4"}});
  }
  for (int i = 0; i < config.floor_runs; ++i) {
    round.push_back({"query_floor", {cli, "query", "--input=" + corpus_path,
                                     "--queries-file=" + floor_path, "--threads=4"}});
  }
  for (int r = 0; r < config.long_records; ++r) {
    const std::string command = kRecordCommands[r % kRecordCommandCount];
    std::vector<std::string> argv = {cli, command, "--input=" + long_paths[r]};
    if (command == "mss") argv.push_back("--threads=4");
    if (command == "topt") argv.push_back("--t=" + std::to_string(kTopT));
    if (command == "threshold") argv.push_back("--pvalue=" + std::to_string(kPValue));
    if (command == "minlen") argv.push_back("--min-length=" + std::to_string(kMinLength));
    round.push_back({command + "/" + std::to_string(r), std::move(argv)});
  }

  double peak_rss = 0.0;
  auto invoke = [&](const Invocation& inv, Tracer& span_tracer) {
    ++outcome.attempted;
    const int64_t start = NowNs();
    ProcessRun run = RunProcess(inv.argv);
    span_tracer.Record("cli." + inv.name, start, NowNs());
    peak_rss = std::max(peak_rss, run.max_rss_mb);
    if (run.exit_code != 0) {
      outcome.Fail(inv.name + " exited with code " + std::to_string(run.exit_code));
    }
    return run;
  };

  // ---- set-up: process start plus load of the long record.
  std::vector<double> setups;
  const Invocation score{"score", {cli, "score", "--input=" + long_paths[0],
                                   "--start=0", "--end=100"}};
  for (int i = 0; i < config.setup_runs; ++i) {
    setups.push_back(invoke(score, tracer).wall_s);
  }

  // ---- rounds. A traced run first repeats them untraced; the difference
  // is the tracing overhead.
  struct Rounds {
    std::vector<double> query_s, floor_s, record_s;
    double wall_s = 0.0;
    int invocations = 0;
    std::map<std::string, std::vector<std::string>> outputs;
    std::map<std::string, std::vector<double>> wall_s_by_name;
  };
  auto run_rounds = [&](Tracer& round_tracer) {
    Rounds r;
    const int64_t start = NowNs();
    double last_round_s = 0.0;
    while (r.query_s.empty() || r.wall_s + last_round_s <= options.seconds) {
      const int64_t round_start = NowNs();
      double record_s = 0.0;
      for (const Invocation& inv : round) {
        ProcessRun run = invoke(inv, round_tracer);
        if (inv.name == "query") {
          r.query_s.push_back(run.wall_s);
        } else if (inv.name == "query_floor") {
          r.floor_s.push_back(run.wall_s);
        } else {
          record_s += run.wall_s;
        }
        r.outputs[inv.name].push_back(std::move(run.out));
        r.wall_s_by_name[inv.name].push_back(run.wall_s);
        ++r.invocations;
      }
      r.record_s.push_back(record_s);
      last_round_s = static_cast<double>(NowNs() - round_start) / 1e9;
      r.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    }
    return r;
  };
  Tracer untraced(false);
  const Rounds rounds = run_rounds(untraced);
  std::optional<Rounds> traced;
  std::vector<const Rounds*> all_rounds = {&rounds};
  if (tracer.enabled()) {
    traced = run_rounds(tracer);
    all_rounds.push_back(&*traced);
  }

  // ---- verification: rounds agree, rows match direct core calls.
  for (const Rounds* r : all_rounds) {
    for (const auto& [name, outs] : r->outputs) {
      if (name.starts_with("mss/")) continue;  // Sharded: tied witnesses may differ.
      for (const std::string& out : outs) {
        if (out != rounds.outputs.at(name).front()) {
          outcome.Fail(name + " output differs between rounds");
        }
      }
    }
  }

  Result<engine::Corpus> corpus = [&] {
    ScopedSpan span(tracer, "io.lines_load");
    return engine::Corpus::FromLines(corpus_path);
  }();
  if (!corpus.ok()) {
    outcome.Fail("corpus load: " + corpus.status().ToString());
    return outcome;
  }
  const int k_corpus = corpus->alphabet().size();
  std::vector<api::QuerySpec> specs;
  for (const std::string& q : queries) {
    ScopedSpan span(tracer, "api.parse_query");
    specs.push_back(api::ParseQuery(q).value());
  }
  if (tracer.enabled()) {
    // The CLI's own engine path, in process, for the engine layer's time.
    {
      ScopedSpan span(tracer, "engine.fingerprint");
      for (int64_t r = 0; r < corpus->size(); ++r) {
        (void)engine::FingerprintSequence(corpus->sequence(r));
      }
    }
    for (const api::QuerySpec& s : specs) {
      ScopedSpan span(tracer, "api.fingerprint");
      (void)api::FingerprintQuery(s);
    }
    engine::Engine engine({.num_threads = 4});
    ScopedSpan span(tracer, "engine.execute");
    if (!engine.ExecuteQueries(*corpus, specs).ok()) {
      outcome.Fail("in-process engine replay failed");
    }
  }

  // (a) every query's rows.
  const auto query_rows = TableRows(rounds.outputs.at("query").front(), "query");
  std::map<std::string, std::vector<std::string>> printed_by_query;
  std::map<std::string, std::string> matches_by_query;
  for (const auto& row : query_rows) {
    matches_by_query[row[0]] = row[3];
    if (row[4] != "-") printed_by_query[row[0]].push_back(row[5] + " " + row[6] + " " + row[8]);
  }
  ReplayCounts counts;
  std::map<int64_t, seq::PrefixCounts> prefix;
  for (size_t i = 0; i < specs.size(); ++i) {
    const int64_t r = specs[i].sequence_index;
    const seq::Sequence& sequence = corpus->sequence(r);
    if (!prefix.contains(r)) {
      ScopedSpan span(tracer, "seq.prefix_counts", static_cast<int64_t>(i));
      prefix.emplace(r, seq::PrefixCounts(sequence));
      counts.AddPrefixCounts(sequence.size(), k_corpus);
    }
    Result<DirectResult> direct = RunDirect(specs[i], sequence, prefix.at(r),
                                            k_corpus, tracer, static_cast<int64_t>(i));
    const std::string id = std::to_string(i);
    if (!direct.ok() || Expected(direct->rows) != printed_by_query[id] ||
        std::to_string(direct->match_count) != matches_by_query[id]) {
      outcome.Fail("query " + id + " (" + queries[i] + ") disagrees with the core kernel");
      continue;
    }
    counts.Add(*direct, sequence.size());
  }

  // (b) each long record's single-record commands, best rows.
  const int k = 4;
  Result<core::ChiSquareContext> context =
      core::ChiSquareContext::Make(std::vector<double>(k, 1.0 / k));
  for (int lr = 0; lr < config.long_records; ++lr) {
    const std::string& long_text = long_texts[lr];
    const std::string command = kRecordCommands[lr % kRecordCommandCount];
    const std::string name = command + "/" + std::to_string(lr);
    const std::string inferred = engine::Corpus::InferAlphabetChars({long_text});
    Result<seq::Sequence> sequence = [&]() -> Result<seq::Sequence> {
      ScopedSpan span(tracer, "seq.sequence");
      SIGSUB_ASSIGN_OR_RETURN(seq::Alphabet alphabet,
                              seq::Alphabet::FromCharacters(inferred));
      return seq::Sequence::FromString(alphabet, long_text);
    }();
    if (!sequence.ok()) {
      outcome.Fail("long record of " + name + " does not decode");
      continue;
    }
    std::optional<seq::PrefixCounts> long_counts;
    {
      ScopedSpan span(tracer, "seq.prefix_counts");
      long_counts.emplace(*sequence);
    }
    counts.AddPrefixCounts(sequence->size(), k);
    auto run_long = [&](const std::string& text) {
      Result<DirectResult> direct = RunDirect(api::ParseQuery(text).value(), *sequence,
                                              *long_counts, k, tracer, -1);
      if (direct.ok()) counts.Add(*direct, sequence->size());
      return direct;
    };
    const std::string& first_out = rounds.outputs.at(name).front();
    if (command == "mss") {
      auto mss = run_long("mss:seq=0");
      if (tracer.enabled()) {
        ScopedSpan span(tracer, "core.mss_sharded");
        const core::MssResult sharded = core::FindMssParallel(*long_counts, *context, 4);
        if (mss.ok() && !mss->rows.empty() &&
            sharded.best.chi_square != mss->rows[0].chi_square) {
          outcome.Fail("sharded MSS X2 differs from the sequential kernel");
        }
      }
      for (const Rounds* r : all_rounds) {
        for (const std::string& out : r->outputs.at(name)) {
          const auto rows = TableRows(out, "start");
          if (!mss.ok() || mss->rows.empty() || rows.size() != 1 ||
              rows[0][3] != X2(mss->rows[0].chi_square)) {
            outcome.Fail(name + ": mss --threads=4 best X2 disagrees with FindMss");
          }
        }
      }
    } else if (command == "topt") {
      auto topt = run_long("topt:seq=0,t=" + std::to_string(kTopT));
      if (!topt.ok() ||
          Printed(TableRows(first_out, "rank"), 1, 2, 3) != Expected(topt->rows)) {
        outcome.Fail(name + ": topt rows disagree with FindTopT");
      }
    } else if (command == "threshold") {
      const double alpha0 = stats::ChiSquareThresholdForPValue(kPValue, k);
      core::ThresholdOptions threshold_options;
      threshold_options.max_matches = 1000;
      core::ThresholdResult threshold = [&] {
        ScopedSpan span(tracer, "core.threshold");
        return core::FindAboveThreshold(*long_counts, *context, alpha0, threshold_options);
      }();
      counts.positions_examined += threshold.stats.positions_examined;
      counts.trivial_positions +=
          static_cast<double>(core::TrivialScanPositions(sequence->size()));
      if (Printed(TableRows(first_out, "start"), 0, 1, 2) != Expected(threshold.matches) ||
          first_out.find("\n" + std::to_string(threshold.match_count) +
                         " substrings above") == std::string::npos) {
        outcome.Fail(name + ": threshold rows disagree with FindAboveThreshold");
      }
    } else {
      auto minlen = run_long("minlen:seq=0,min_length=" + std::to_string(kMinLength));
      if (!minlen.ok() ||
          Printed(TableRows(first_out, "start"), 0, 1, 3) != Expected(minlen->rows)) {
        outcome.Fail(name + ": minlen row disagrees with FindMssMinLength");
      }
    }
  }
  outcome.exact["core.positions_examined"] = counts.positions_examined;

  // ---- metrics: 10%-trimmed means over all samples of the run (the first
  // invocation of a run is cold, and short ones fall into two modes), and
  // per single-record command the sum over its records of their medians.
  // The floor is reported, not gated: a ~17 ms process's start-up cost
  // drifts by about 20% between runs on the recorded machine. Nor is the
  // 4-thread sharded mss: a busy neighbour core stalls its ~35 ms
  // invocations by up to 2x. The gated single command is the
  // single-threaded threshold scan (the paper's Problem 3).
  const double query_s = TrimmedMean(rounds.query_s, 0.1);
  const double record_s = TrimmedMean(rounds.record_s, 0.1);
  const double floor_s = TrimmedMean(rounds.floor_s, 0.1);
  std::map<std::string, double> command_s;
  for (int lr = 0; lr < config.long_records; ++lr) {
    const std::string command = kRecordCommands[lr % kRecordCommandCount];
    command_s[command] +=
        Median(rounds.wall_s_by_name.at(command + "/" + std::to_string(lr)));
  }
  outcome.metrics["primary_ms"] = query_s * 1e3;
  outcome.metrics["secondary_ms"] = record_s * 1e3;
  outcome.metrics["tertiary_ms"] = command_s["threshold"] * 1e3;
  outcome.metrics["throughput_per_s"] = rounds.invocations / rounds.wall_s;
  outcome.metrics["setup_s"] = Median(setups);
  outcome.metrics["peak_rss_mb"] = peak_rss;
  outcome.report << "10%-trimmed means: cli_query_s " << query_s << " s ("
                 << rounds.query_s.size() << " runs); cli_record_s " << record_s
                 << " s; query floor " << floor_s << " s ("
                 << rounds.floor_s.size() << " runs); "
                 << rounds.record_s.size() << " rounds, " << rounds.invocations
                 << " invocations in " << rounds.wall_s << " s; setup_s "
                 << Median(setups) << " s (" << setups.size()
                 << " score runs); peak_rss_mb " << peak_rss << " MiB\n";
  outcome.report << "(b) per command, summed over the records' medians (s):";
  for (const char* command : kRecordCommands) {
    outcome.report << " " << command << " " << command_s[command];
  }
  outcome.report << "\n";

  if (!tracer.enabled()) return outcome;
  AddLayerMetrics(tracer.spans(), counts, 4, outcome);
  outcome.metrics["trace.overhead_ms"] = (TrimmedMean(traced->query_s, 0.1) - query_s) * 1e3;
  return outcome;
}

}  // namespace perfbench
