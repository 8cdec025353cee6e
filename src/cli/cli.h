#ifndef SIGSUB_CLI_CLI_H_
#define SIGSUB_CLI_CLI_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"

namespace sigsub {
namespace cli {

/// Parsed command line for the `sigsub_cli` tool.
///
///   sigsub_cli <command> [--flag=value ...]
///
/// Commands: mss | topt | threshold | minlen | score | substrings | batch |
/// query | stream | serve | client. Flags are validated against the
/// selected command: supplying a flag that the command does not consume is
/// an InvalidArgument error, not a silent acceptance. Every mining command
/// but `score` and `substrings --positions` runs as api::QuerySpecs
/// through engine::Engine — the single-record commands on a one-record
/// corpus.
///
/// Common flags:
///   --string=TEXT        input string literal (exclusive with --input)
///   --input=PATH         read input from a file (batch/query: the
///                        corpus; stream: the symbol stream, `-` reads
///                        stdin)
///   --alphabet=CHARS     symbol set (default: distinct input characters)
///   --probs=p1,p2,...    null-model probabilities (default: uniform;
///                        query: models live inside each query string)
/// Per-command flags:
///   --t=N                top-t size (topt, batch; default 10)
///   --disjoint           non-overlapping top-t (topt)
///   --alpha0=X           threshold (threshold, batch)
///   --pvalue=P           per-substring p-value in (0, 1), converted via
///                        the χ²(k−1) critical value (threshold, batch)
///   --min-length=N       length floor (minlen, topt --disjoint, batch)
///   --start=I --end=J    substring to score (score)
///   --threads=N          worker threads (mss, batch, query, serve;
///                        default 1; mss shards its record across them)
/// Substrings-only flags (all-substrings mining over one record):
///   --top=N              keep the N highest-X² substrings (default 10;
///                        0 reports every match)
///   --max-length=N       length ceiling (default 0 = unbounded)
///   --min-count=N        occurrence floor (default 2)
///   --all                enumerate every distinct substring, not just
///                        class-maximal ones; requires --max-length
///   --positions          list each substring's occurrence positions
///                        (direct suffix-scan call, bypasses the cache)
///   --mmap               memory-map --input read-only and mine it in
///                        place as a single record (no decoded in-RAM
///                        copy; excludes --string)
/// Batch-only flags:
///   --job=KIND           mss|topt|disjoint|threshold|minlen (default mss)
///   --alpha-p=P          threshold jobs: per-substring p-value cutoff,
///                        converted engine-side via the χ²(k−1) critical
///                        value. Takes precedence over --alpha0/--pvalue
///                        when several are set (a significance level wins
///                        over a raw X² cutoff).
/// Batch/query corpus flags:
///   --format=FMT         lines|csv corpus layout (default lines)
///   --column=N           CSV column holding the records (default 0)
///   --csv-header         skip the first CSV row
///   --cache=N            result-cache capacity in entries (default 4096)
///   --shard-min=N        split an MSS job across the worker pool when
///                        its record has at least N symbols (default
///                        2^20; 0 disables in-record sharding)
/// Query-only flags:
///   --query=SPEC         one serialized api::QuerySpec (repeatable;
///                        compact `kind:key=val,...` or JSON — see
///                        api/serde.h for the grammar)
///   --queries-file=PATH  one query per line ('#' comments and blank
///                        lines skipped)
/// Stream-only flags:
///   --alpha=A            per-position family-wise false-alarm rate,
///                        converted to per-scale X² thresholds via the
///                        χ²(k−1) quantile with a Šidák correction
///                        (default 1e-6)
///   --max-window=W       longest monitored suffix window (default 4096)
///   --chunk=N            symbols per AppendChunk call (default 8192)
/// Serve-only flags (sigsubd daemon over the --input corpus):
///   --port=N             listen port (default 0 = ephemeral; the bound
///                        port is printed on the listening banner)
///   --host=ADDR          bind address (default 127.0.0.1)
///   --max-clients=N      connection cap (default 64)
///   --max-queue=N        admission-queue depth; overflow sheds EBUSY
///   --max-inflight=N     per-connection in-flight cap (EQUOTA)
///   --idle-timeout-ms=N  idle-connection harvest (0 disables)
///   --max-runtime-ms=N   self-drain after N ms (0 = run until SIGTERM)
///   --state-dir=PATH     crash-safe state directory: replay on startup,
///                        journal every acknowledged stream op, snapshot
///                        periodically and on drain (empty = volatile)
///   --fsync=MODE         always|none — journal fsync policy. `always`
///                        survives power loss; `none` only process
///                        crashes (default always)
///   --snapshot-interval-ms=N  milliseconds between periodic snapshots;
///                        0 leaves only the snapshot-on-drain (default
///                        30000)
/// Client-only flags:
///   --send=CMD           one protocol line (repeatable, sent in order)
///   --timeout-ms=N       per-reply read timeout (default 5000)
///   --linger-ms=N        keep reading pushed ALARM lines this long after
///                        the last reply (default 0)
///   --retries=N          extra connect attempts after the first, with
///                        jittered exponential backoff (default 0)
///   --backoff-ms=N       base backoff before the first retry; doubles
///                        per attempt (default 100)
struct CliOptions {
  std::string command;
  std::string input_path;
  std::optional<std::string> input_text;  // --string; unset for files.
  std::string alphabet;
  std::vector<double> probs;
  int64_t t = 10;
  bool disjoint = false;
  double alpha0 = -1.0;
  double pvalue = -1.0;
  int64_t min_length = 1;
  int64_t start = -1;
  int64_t end = -1;
  int64_t threads = 1;
  // Substrings command.
  int64_t top = 10;
  int64_t max_length = 0;
  int64_t min_count = 2;
  bool all_substrings = false;
  bool positions = false;
  bool mmap = false;
  // Batch command.
  std::string job = "mss";
  double alpha_p = -1.0;
  std::string format = "lines";
  int64_t column = 0;
  bool csv_header = false;
  int64_t cache = 4096;
  int64_t shard_min = 1 << 20;
  // Query command.
  std::vector<std::string> queries;
  std::string queries_file;
  // Stream command.
  double alpha = 1e-6;
  int64_t max_window = 4096;
  int64_t chunk = 8192;
  // Batch command: append the shared engine::EngineStats line.
  bool verbose = false;
  // Serve command.
  int64_t port = 0;
  std::string host = "127.0.0.1";
  int64_t max_clients = 64;
  int64_t max_queue = 256;
  int64_t max_inflight = 32;
  int64_t idle_timeout_ms = 60000;
  int64_t max_runtime_ms = 0;
  std::string state_dir;
  std::string fsync = "always";
  int64_t snapshot_interval_ms = 30000;
  // Client command.
  std::vector<std::string> sends;
  int64_t timeout_ms = 5000;
  int64_t linger_ms = 0;
  int64_t retries = 0;
  int64_t backoff_ms = 100;
};

/// Usage text for --help / errors.
std::string UsageText();

/// Parses argv-style arguments (excluding the program name).
Result<CliOptions> ParseArgs(const std::vector<std::string>& args);

/// Executes a parsed command and returns the printable report.
Result<std::string> Run(const CliOptions& options);

}  // namespace cli
}  // namespace sigsub

#endif  // SIGSUB_CLI_CLI_H_
