#include "cli/cli.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/str_util.h"
#include "engine/corpus.h"
#include "io/csv.h"
#include "server/server.h"

namespace sigsub {
namespace cli {
namespace {

TEST(ParseArgsTest, RequiresCommand) {
  EXPECT_TRUE(ParseArgs({}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"bogus"}).status().IsInvalidArgument());
}

TEST(ParseArgsTest, RequiresInput) {
  EXPECT_TRUE(ParseArgs({"mss"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--input=x"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ParseArgsTest, ParsesFlags) {
  auto options = ParseArgs({"topt", "--string=0110", "--t=5", "--disjoint",
                            "--probs=0.25,0.75", "--alphabet=01",
                            "--min-length=3"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->command, "topt");
  EXPECT_EQ(options->input_text, "0110");
  EXPECT_EQ(options->t, 5);
  EXPECT_TRUE(options->disjoint);
  EXPECT_EQ(options->probs, (std::vector<double>{0.25, 0.75}));
  EXPECT_EQ(options->alphabet, "01");
  EXPECT_EQ(options->min_length, 3);
}

TEST(ParseArgsTest, ParsesBatchFlags) {
  auto options = ParseArgs({"batch", "--input=corpus.csv", "--job=topt",
                            "--format=csv", "--column=2", "--csv-header",
                            "--threads=4", "--cache=16", "--t=3"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->command, "batch");
  EXPECT_EQ(options->job, "topt");
  EXPECT_EQ(options->format, "csv");
  EXPECT_EQ(options->column, 2);
  EXPECT_TRUE(options->csv_header);
  EXPECT_EQ(options->threads, 4);
  EXPECT_EQ(options->cache, 16);
  EXPECT_EQ(options->t, 3);
}

TEST(ParseArgsTest, RejectsFlagInvalidForCommand) {
  // --threads is consumed by mss, batch, query and serve only; every
  // other command must reject it loudly instead of silently ignoring it.
  auto status = ParseArgs({"topt", "--string=0110", "--threads=2"}).status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--threads"), std::string::npos);
  EXPECT_NE(status.message().find("topt"), std::string::npos);
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--t=3"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"score", "--string=01", "--alpha0=1"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--job=mss"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ParseArgsTest, BatchValidation) {
  EXPECT_TRUE(
      ParseArgs({"batch", "--string=0101"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--job=bogus"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--format=bogus"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--cache=-1"})
                  .status()
                  .IsInvalidArgument());
  // CSV-shaping flags only make sense with --format=csv.
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--column=1"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--csv-header"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ParseArgs({"batch", "--input=x", "--format=csv", "--column=1"}).ok());
  // Job-parameter flags must match the selected --job.
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--job=mss", "--pvalue=0.01"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--t=3", "--job=threshold",
                         "--alpha0=5"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--job=disjoint", "--t=3",
                         "--min-length=4"})
                  .ok());
  // topt only consumes --min-length together with --disjoint.
  EXPECT_TRUE(ParseArgs({"topt", "--string=01", "--min-length=3"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ParseArgsTest, RejectsMalformedValues) {
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--t=abc"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--probs=0.5,x"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--bogus=1"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"mss", "string=01"}).status().IsInvalidArgument());
}

TEST(ParseArgsTest, RejectsOutOfRangeIntegers) {
  // strtoll clamps to LLONG_MAX on overflow; the parser must reject the
  // flag instead of silently mining with a clamped value.
  auto status =
      ParseArgs({"topt", "--string=01", "--t=99999999999999999999"}).status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--t"), std::string::npos);
  EXPECT_TRUE(ParseArgs({"topt", "--string=01", "--t=-99999999999999999999"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x",
                         "--cache=123456789012345678901234567890"})
                  .status()
                  .IsInvalidArgument());
  // Values inside the 64-bit range still parse.
  auto ok = ParseArgs({"topt", "--string=01", "--t=9223372036854775807"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->t, 9223372036854775807LL);
}

TEST(ParseArgsTest, RejectsOverflowingAndGarbageDoubles) {
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0=1e999"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0=-1e999"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0=1.5x"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0="})
                  .status()
                  .IsInvalidArgument());
  // A denormal underflow is a faithful rounding, not an error.
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0=1e-320"}).ok());
}

TEST(ParseArgsTest, PValueOutsideUnitIntervalIsANamedError) {
  // --pvalue is range-checked like --alpha-p: out-of-range values once
  // reached the χ² critical-value bisection and aborted the process, and
  // --pvalue=0 was misreported as a missing cutoff.
  const std::vector<std::vector<std::string>> cases = {
      {"threshold", "--string=0110101", "--pvalue=2"},
      {"threshold", "--string=0110101", "--pvalue=1.5"},
      {"threshold", "--string=0110101", "--pvalue=0"},
      {"batch", "--input=x", "--job=threshold", "--pvalue=2"}};
  for (const std::vector<std::string>& args : cases) {
    auto status = ParseArgs(args).status();
    ASSERT_TRUE(status.IsInvalidArgument()) << args.back();
    EXPECT_NE(status.message().find("--pvalue must be in (0, 1), got "),
              std::string::npos)
        << status.message();
  }
}

TEST(ParseArgsTest, ThreadsOutsideItsRangeIsANamedError) {
  // Checked while parsing, before any pool exists: --threads=4294967297
  // once wrapped to 1 thread through an int cast, --threads=-3 silently
  // ran on all cores, and --threads=100000000 asked for that many threads.
  const std::vector<std::vector<std::string>> commands = {
      {"mss", "--string=0101"},
      {"batch", "--input=x"},
      {"query", "--input=x", "--query=mss:seq=0"},
      {"serve", "--input=x"}};
  for (std::vector<std::string> args : commands) {
    for (const char* value : {"-3", "1025", "4294967297", "100000000"}) {
      args.push_back(std::string("--threads=") + value);
      auto status = ParseArgs(args).status();
      ASSERT_TRUE(status.IsInvalidArgument()) << args[0] << " " << value;
      EXPECT_NE(status.message().find(
                    "--threads must be in [0, 1024] (0 = all cores), got"),
                std::string::npos)
          << status.message();
      args.pop_back();
    }
    for (const char* value : {"0", "1024"}) {
      args.push_back(std::string("--threads=") + value);
      EXPECT_TRUE(ParseArgs(args).ok()) << args[0] << " " << value;
      args.pop_back();
    }
  }
}

TEST(ParseArgsTest, ParsesShardMin) {
  auto options =
      ParseArgs({"batch", "--input=x", "--threads=4", "--shard-min=5000"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->shard_min, 5000);
  // batch-only flag.
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--shard-min=10"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ParseArgsTest, RemovedKernelSelectionFlagIsUnknown) {
  // One X² summation order runs on every host, so there is nothing left
  // to select: the old flag is an unknown flag, named as such.
  auto status =
      ParseArgs({"mss", "--string=01", "--x2-dispatch=scalar"}).status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("unknown flag --x2-dispatch"),
            std::string::npos)
      << status.message();
}

TEST(RunTest, MssOnLiteralString) {
  auto options = ParseArgs({"mss", "--string=0101011111111110101"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The run of ones must be the reported window.
  EXPECT_NE(report->find("111111111"), std::string::npos);
  EXPECT_NE(report->find("X2"), std::string::npos);
}

TEST(RunTest, InfersAlphabetFromInput) {
  auto options = ParseArgs({"mss", "--string=acgtacgtaaaaaaa"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("k = 4"), std::string::npos);
}

TEST(RunTest, ExplicitProbsChangeScores) {
  auto uniform = cli::Run(ParseArgs({"score", "--string=1111100000",
                                "--start=0", "--end=5"})
                         .value());
  auto skewed = cli::Run(ParseArgs({"score", "--string=1111100000",
                               "--probs=0.9,0.1", "--start=0", "--end=5"})
                        .value());
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(skewed.ok());
  EXPECT_NE(*uniform, *skewed);
}

TEST(RunTest, ThresholdFromPValue) {
  auto options =
      ParseArgs({"threshold", "--string=0101010111111111111111010101",
                 "--pvalue=0.001"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("alpha0"), std::string::npos);
}

TEST(RunTest, ThresholdRejectsNonFiniteAlpha0) {
  // The threshold command runs through the engine, whose validation names
  // the field (a NaN cutoff would otherwise match nothing silently).
  auto nan = cli::Run(
      ParseArgs({"threshold", "--string=0110101", "--alpha0=nan"}).value());
  ASSERT_TRUE(nan.status().IsInvalidArgument());
  EXPECT_NE(nan.status().message().find("must not be NaN"), std::string::npos)
      << nan.status().message();
  auto inf = cli::Run(
      ParseArgs({"threshold", "--string=0110101", "--alpha0=inf"}).value());
  ASSERT_TRUE(inf.status().IsInvalidArgument());
  EXPECT_NE(inf.status().message().find("must be finite"), std::string::npos)
      << inf.status().message();
}

TEST(RunTest, ThresholdRequiresAlphaOrPValue) {
  auto options = ParseArgs({"threshold", "--string=0101"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsInvalidArgument());
}

TEST(RunTest, ToptDisjointReturnsRankedRows) {
  auto options = ParseArgs(
      {"topt", "--string=000000001111111100000000111111110000000", "--t=2",
       "--disjoint", "--min-length=4"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("rank"), std::string::npos);
  EXPECT_NE(report->find("1 "), std::string::npos);
}

TEST(RunTest, ToptRejectsTAboveTheCap) {
  // Below capacity the top-t budget is −∞, so a t of n(n+1)/2 or more
  // scans and keeps every substring; t is capped at 2^20.
  const std::string path = ::testing::TempDir() + "/sigsub_cli_topt_cap.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0110\n").ok());
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"topt", "--string=0110", "--t=1048577"},
           {"batch", "--input=" + path, "--job=topt", "--t=4294967297"}}) {
    auto options = ParseArgs(args);
    ASSERT_TRUE(options.ok());
    auto status = cli::Run(options.value()).status();
    ASSERT_TRUE(status.IsInvalidArgument()) << args[0];
    EXPECT_NE(status.message().find("--t must be <= 1048576"),
              std::string::npos)
        << status.message();
  }
  std::remove(path.c_str());
}

TEST(RunTest, MinlenRespectsFloor) {
  auto options = ParseArgs(
      {"minlen", "--string=01010111111010101010101010", "--min-length=10"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("length"), std::string::npos);
}

TEST(RunTest, ScoreValidatesBounds) {
  auto options =
      ParseArgs({"score", "--string=0101", "--start=2", "--end=9"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsOutOfRange());
}

TEST(RunTest, ReadsInputFromFile) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_input.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "00000111111111110000\n").ok());
  auto options = ParseArgs({"mss", std::string("--input=") + path});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("n = 20"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunTest, MissingFileIsIOError) {
  auto options = ParseArgs({"mss", "--input=/no/such/file"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsIOError());
}

TEST(RunTest, EmptyStringRejected) {
  auto options = ParseArgs({"mss", "--string="});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsInvalidArgument());
}

TEST(RunTest, ParallelMssMatchesDefault) {
  std::string input = "--string=01101010111111111101010101010010101";
  auto single = cli::Run(ParseArgs({"mss", input, "--threads=1"}).value());
  auto multi = cli::Run(ParseArgs({"mss", input, "--threads=4"}).value());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(multi.ok());
  // The reported substring (and hence the report up to the work counter,
  // which legitimately differs across thread counts) must agree: this
  // input has a unique maximum.
  auto table_part = [](const std::string& report) {
    return report.substr(0, report.find("examined"));
  };
  EXPECT_EQ(table_part(*single), table_part(*multi));
}

TEST(BatchTest, LinesCorpusRoundTrip) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_corpus.txt";
  ASSERT_TRUE(io::WriteTextFile(
                  path, "0101011111111110101\n0000000000111111\n")
                  .ok());
  auto options =
      ParseArgs({"batch", std::string("--input=") + path, "--threads=2"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // One row per record, and a cache summary.
  EXPECT_NE(report->find("corpus: 2 records"), std::string::npos);
  EXPECT_NE(report->find("\n0 "), std::string::npos);
  EXPECT_NE(report->find("\n1 "), std::string::npos);
  EXPECT_NE(report->find("cache:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BatchTest, CsvCorpusRoundTrip) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_corpus.csv";
  ASSERT_TRUE(
      io::WriteTextFile(path, "name,series\nr1,0101011111\nr2,0000011111\n")
          .ok());
  auto options = ParseArgs({"batch", std::string("--input=") + path,
                            "--format=csv", "--column=1", "--csv-header",
                            "--job=minlen", "--min-length=4"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("corpus: 2 records"), std::string::npos);
  EXPECT_NE(report->find("job = minlen"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BatchTest, MatchesSingleStringCommand) {
  // The batch engine must report the same MSS window the one-shot `mss`
  // command reports for the same record.
  std::string text = "0101011111111110101";
  std::string path = ::testing::TempDir() + "/sigsub_cli_one.txt";
  ASSERT_TRUE(io::WriteTextFile(path, text + "\n").ok());
  auto single =
      cli::Run(ParseArgs({"mss", std::string("--string=") + text}).value());
  auto batch =
      cli::Run(ParseArgs({"batch", std::string("--input=") + path}).value());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(batch.ok());
  // The one-shot report prints "5  15  10  10.0000"; the batch table
  // must contain the same start/end/X² triple.
  EXPECT_NE(single->find("10.0000"), std::string::npos);
  EXPECT_NE(batch->find("10.0000"), std::string::npos);
  EXPECT_NE(batch->find("15"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SubstringsTest, ParsesFlagsAndValidates) {
  auto options = ParseArgs({"substrings", "--string=abab", "--top=0",
                            "--min-length=2", "--max-length=8",
                            "--min-count=3", "--all", "--positions"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->top, 0);
  EXPECT_EQ(options->min_length, 2);
  EXPECT_EQ(options->max_length, 8);
  EXPECT_EQ(options->min_count, 3);
  EXPECT_TRUE(options->all_substrings);
  EXPECT_TRUE(options->positions);
  // --all without a length cap would enumerate O(n²) substrings.
  EXPECT_TRUE(ParseArgs({"substrings", "--string=abab", "--all"})
                  .status()
                  .IsInvalidArgument());
  // --mmap maps a file, so --string cannot feed it.
  EXPECT_TRUE(ParseArgs({"substrings", "--string=abab", "--mmap"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"substrings", "--string=abab", "--alpha-p=2"})
                  .status()
                  .IsInvalidArgument());
  // The flag set is substrings-specific; a foreign flag is rejected.
  EXPECT_TRUE(ParseArgs({"substrings", "--string=abab", "--t=3"})
                  .status()
                  .IsInvalidArgument());
}

TEST(SubstringsTest, ReportsCountsAndText) {
  // "ababab": "ab" occurs 3 times and is class-maximal up front.
  auto options = ParseArgs({"substrings", "--string=abababab",
                            "--min-length=2", "--min-count=2"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("n = 8, k = 2"), std::string::npos) << *report;
  EXPECT_NE(report->find("\"abab\""), std::string::npos) << *report;
  EXPECT_NE(report->find("cache:"), std::string::npos) << *report;
}

TEST(SubstringsTest, PositionsListsOccurrences) {
  auto options = ParseArgs({"substrings", "--string=abababab", "--top=1",
                            "--min-length=2", "--min-count=3",
                            "--max-length=2", "--positions"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // "ab" occurs at 0, 2, 4 (and 6); with min_count=3 and max_length=2 the
  // top row is "ab" with its full position list.
  EXPECT_NE(report->find("positions 1: 0 2 4 6"), std::string::npos)
      << *report;
}

TEST(SubstringsTest, MmapMatchesInMemoryRun) {
  const std::string record = "0010110100111100101101001";
  std::string path = ::testing::TempDir() + "/sigsub_cli_substrings.txt";
  ASSERT_TRUE(io::WriteTextFile(path, record + "\n").ok());
  auto mapped = ParseArgs({"substrings", std::string("--input=") + path,
                           "--mmap", "--min-length=2"});
  ASSERT_TRUE(mapped.ok());
  auto in_memory = ParseArgs({"substrings", std::string("--input=") + path,
                              "--min-length=2"});
  ASSERT_TRUE(in_memory.ok());
  auto mapped_report = cli::Run(mapped.value());
  ASSERT_TRUE(mapped_report.ok()) << mapped_report.status().ToString();
  auto memory_report = cli::Run(in_memory.value());
  ASSERT_TRUE(memory_report.ok()) << memory_report.status().ToString();
  // Identical rows; only the header advertises the mapping.
  EXPECT_NE(mapped_report->find(", mapped"), std::string::npos);
  std::string mapped_body =
      mapped_report->substr(mapped_report->find('\n'));
  std::string memory_body =
      memory_report->substr(memory_report->find('\n'));
  EXPECT_EQ(mapped_body, memory_body);
  std::remove(path.c_str());
}

TEST(BatchTest, MissingCorpusIsIOError) {
  auto options = ParseArgs({"batch", "--input=/no/such/corpus"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsIOError());
}

TEST(BatchTest, ThresholdJobNeedsAlphaOrPValue) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_thr.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n").ok());
  auto options = ParseArgs(
      {"batch", std::string("--input=") + path, "--job=threshold"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(RunTest, MinlenFloorAboveLengthNeverRendersBogusRow) {
  // `best` is only valid when something qualified. The single-string
  // path rejects a floor above n outright; the batch engine path returns
  // an empty result, which its table renders as dashes (see
  // BatchTest.MinlenFloorAboveRecordRendersDashes). Neither may print a
  // zero-length substring with X² = 0 and p-value 1 as if it were a
  // finding.
  auto report = cli::Run(
      ParseArgs({"minlen", "--string=0101", "--min-length=10"}).value());
  ASSERT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().message().find("min_length"), std::string::npos);
}

TEST(BatchTest, MinlenFloorAboveRecordRendersDashes) {
  // The engine path does reach the zero-match case: a floor above one
  // record's length yields an empty best, which must render as dashes.
  std::string path = ::testing::TempDir() + "/sigsub_cli_minlen0.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n000001111111111111\n").ok());
  auto report = cli::Run(ParseArgs({"batch", std::string("--input=") + path,
                                    "--job=minlen", "--min-length=10"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Record 0 (n = 4) cannot satisfy the floor: every cell dashed.
  EXPECT_NE(report->find("0       4   -"), std::string::npos) << *report;
  // Record 1 (n = 18) reports a real window of length >= 10.
  EXPECT_NE(report->find("1       18  "), std::string::npos) << *report;
  EXPECT_NE(report->find("p-value"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BatchTest, ThresholdZeroMatchesRendersDashes) {
  // A record with no match above the threshold must render "-" cells,
  // never the (invalid-on-zero-matches) `best` substring.
  std::string path = ::testing::TempDir() + "/sigsub_cli_thr0.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n000001111111111111\n").ok());
  auto report = cli::Run(ParseArgs({"batch", std::string("--input=") + path,
                                    "--job=threshold", "--alpha0=9"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Record 0 ("0101") has nothing above X² = 9: matches 0, dashes.
  EXPECT_NE(report->find("0       4   0        -           -         -"),
            std::string::npos)
      << *report;
  // Record 1's planted run does clear it, proving the guard is per-row.
  EXPECT_NE(report->find("1       18  12       5           18        13.0000"),
            std::string::npos)
      << *report;
  std::remove(path.c_str());
}

TEST(StreamTest, ParsesStreamFlags) {
  auto options = ParseArgs({"stream", "--string=0101", "--alpha=0.001",
                            "--max-window=64", "--chunk=16"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->command, "stream");
  EXPECT_DOUBLE_EQ(options->alpha, 0.001);
  EXPECT_EQ(options->max_window, 64);
  EXPECT_EQ(options->chunk, 16);
  // Stream-only flags are rejected elsewhere; batch flags rejected here.
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--alpha=0.1"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"stream", "--string=01", "--job=mss"})
                  .status()
                  .IsInvalidArgument());
}

TEST(StreamTest, FlagsAreValidated) {
  EXPECT_TRUE(cli::Run(ParseArgs({"stream", "--string=0101", "--alpha=2"})
                           .value())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(cli::Run(ParseArgs({"stream", "--string=0101",
                                  "--max-window=0"})
                           .value())
                  .status()
                  .IsInvalidArgument());
  // Past kMaxWindow: refused by name before the detector's ring is
  // allocated.
  const Status too_wide =
      cli::Run(ParseArgs({"stream", "--string=0101",
                          "--max-window=68719476736"})
                   .value())
          .status();
  EXPECT_TRUE(too_wide.IsInvalidArgument());
  EXPECT_NE(too_wide.message().find("max_window must be in [1, 16777216]"),
            std::string::npos)
      << too_wide.message();
  EXPECT_TRUE(cli::Run(ParseArgs({"stream", "--string=0101", "--chunk=0"})
                           .value())
                  .status()
                  .IsInvalidArgument());
}

TEST(StreamTest, FlagsBurstAndReportsCalibration) {
  // A long null prefix then a heavy burst: the calibrated detector must
  // alarm inside the burst and the report must carry the calibration
  // summary and the alarm table.
  std::string text(3000, '0');
  for (size_t i = 1; i < text.size(); i += 2) text[i] = '1';  // 0101...
  text += std::string(300, '1');
  auto report = cli::Run(ParseArgs({"stream", "--string=" + text,
                                    "--alpha=0.0001", "--max-window=256",
                                    "--chunk=512"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("n = 3300"), std::string::npos) << *report;
  EXPECT_NE(report->find("scales: 1 2 4 8 16 32 64 128 256"),
            std::string::npos)
      << *report;
  EXPECT_NE(report->find("Sidak over 9 scales"), std::string::npos);
  EXPECT_NE(report->find("alarms:"), std::string::npos);
  EXPECT_NE(report->find("p-value"), std::string::npos) << *report;
}

TEST(StreamTest, QuietNullStreamReportsZeroAlarms) {
  std::string text;
  for (int i = 0; i < 1000; ++i) text += (i * 7 % 13) % 2 ? '1' : '0';
  auto report = cli::Run(
      ParseArgs({"stream", "--string=" + text, "--max-window=64"}).value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("alarms: 0"), std::string::npos) << *report;
}

TEST(StreamTest, ReadsStreamFromFile) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_stream.txt";
  std::string text(500, '0');
  for (size_t i = 1; i < text.size(); i += 2) text[i] = '1';
  text += std::string(200, '1');
  ASSERT_TRUE(io::WriteTextFile(path, text + "\n").ok());
  auto report = cli::Run(ParseArgs({"stream", std::string("--input=") + path,
                                    "--max-window=128", "--alpha=0.001"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("n = 700"), std::string::npos) << *report;
  std::remove(path.c_str());
}

TEST(QueryTest, ParsesQueryFlags) {
  auto options = ParseArgs({"query", "--input=corpus.txt", "--query=mss",
                            "--query=topt:t=3", "--queries-file=q.txt",
                            "--threads=2", "--cache=8"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->command, "query");
  EXPECT_EQ(options->queries,
            (std::vector<std::string>{"mss", "topt:t=3"}));
  EXPECT_EQ(options->queries_file, "q.txt");
  // query-only flags are rejected elsewhere.
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--query=mss"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--queries-file=q"})
                  .status()
                  .IsInvalidArgument());
}

TEST(QueryTest, ValidatesItsFlagSet) {
  // A corpus and at least one query are required.
  EXPECT_TRUE(ParseArgs({"query", "--query=mss"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"query", "--input=x"})
                  .status()
                  .IsInvalidArgument());
  // Models live inside the queries; a corpus-level --probs would be
  // silently shadowed, so it is rejected loudly.
  auto status = ParseArgs({"query", "--input=x", "--query=mss",
                           "--probs=0.5,0.5"})
                    .status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--probs"), std::string::npos);
  // Job flags belong to batch.
  EXPECT_TRUE(ParseArgs({"query", "--input=x", "--query=mss", "--job=mss"})
                  .status()
                  .IsInvalidArgument());
  // Corpus-shaping flags describe a file layout; with --string they
  // would be silently ignored, so they are rejected loudly.
  for (const char* flag : {"--format=csv", "--column=1", "--csv-header"}) {
    auto shaped =
        ParseArgs({"query", "--string=0101", "--query=mss", flag}).status();
    ASSERT_TRUE(shaped.IsInvalidArgument()) << flag;
    EXPECT_NE(shaped.message().find("--string"), std::string::npos) << flag;
  }
}

TEST(QueryTest, RunsEveryKernelAgainstAStringCorpus) {
  auto report = cli::Run(
      ParseArgs({"query", "--string=0101011111111110101",
                 "--query=mss", "--query=topt:t=2",
                 "--query=disjoint:t=2,min_length=3",
                 "--query=threshold:alpha0=8,max_matches=4",
                 "--query=minlen:min_length=6",
                 "--query=lenbound:min_length=4,max_length=8",
                 "--query=arlm", "--query=agmm",
                 "--query=blocked:block_size=8"})
          .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const char* kind : {"mss", "topt", "disjoint", "threshold", "minlen",
                           "lenbound", "arlm", "agmm", "blocked"}) {
    EXPECT_NE(report->find(kind), std::string::npos) << kind << *report;
  }
  // The planted run of ones is the MSS; its X² appears in the table.
  EXPECT_NE(report->find("10.0000"), std::string::npos) << *report;
  EXPECT_NE(report->find("cache:"), std::string::npos);
}

TEST(QueryTest, MatchesSingleStringCommand) {
  // The query path must report the same MSS window the one-shot `mss`
  // command reports for the same record.
  std::string text = "0101011111111110101";
  auto single =
      cli::Run(ParseArgs({"mss", std::string("--string=") + text}).value());
  auto query = cli::Run(ParseArgs({"query", std::string("--string=") + text,
                                   "--query=mss:seq=0,model=uniform"})
                            .value());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_NE(single->find("10.0000"), std::string::npos);
  EXPECT_NE(query->find("10.0000"), std::string::npos);
}

TEST(QueryTest, ReadsQueriesFileWithComments) {
  std::string corpus_path = ::testing::TempDir() + "/sigsub_q_corpus.txt";
  std::string queries_path = ::testing::TempDir() + "/sigsub_q_list.txt";
  ASSERT_TRUE(io::WriteTextFile(corpus_path,
                                "0101011111111110101\n0000000000111111\n")
                  .ok());
  ASSERT_TRUE(io::WriteTextFile(queries_path,
                                "# corpus-wide sweep\n"
                                "mss:seq=0\n"
                                "\n"
                                "  topt:seq=1,t=2\n")
                  .ok());
  auto report = cli::Run(
      ParseArgs({"query", std::string("--input=") + corpus_path,
                 std::string("--queries-file=") + queries_path})
          .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("queries = 2"), std::string::npos) << *report;
  std::remove(corpus_path.c_str());
  std::remove(queries_path.c_str());
}

TEST(QueryTest, MalformedQueryNamesTheQuery) {
  auto report = cli::Run(ParseArgs({"query", "--string=0101",
                                    "--query=mss", "--query=bogus:t=1"})
                             .value());
  ASSERT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().message().find("query 1"), std::string::npos);
  EXPECT_NE(report.status().message().find("unknown query kind"),
            std::string::npos);
}

TEST(QueryTest, InvalidSecondQueryFailsTheCommandNamingIt) {
  // The first query is valid and runs, but the command reports one
  // status: the invalid query's, and no table.
  auto report = cli::Run(ParseArgs({"query", "--string=0101",
                                    "--query=mss", "--query=topt:t=0"})
                             .value());
  ASSERT_TRUE(report.status().IsInvalidArgument());
  EXPECT_EQ(report.status().message().rfind(
                "query 1 (topt): field t must be in [1, ", 0),
            0u)
      << report.status().message();
}

TEST(QueryTest, OutOfRangeSequenceIndexNamesField) {
  auto report = cli::Run(
      ParseArgs({"query", "--string=0101", "--query=mss:seq=7"}).value());
  ASSERT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().message().find("field seq"), std::string::npos);
}

TEST(BatchTest, AlphaPThresholdRunsAndWins) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_alphap.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n000001111111111111\n").ok());
  // alpha_p = 0.001 -> χ²(1) critical value ≈ 10.83: record 1's planted
  // run (X² = 13) clears it, record 0 does not.
  auto report = cli::Run(ParseArgs({"batch", std::string("--input=") + path,
                                    "--job=threshold", "--alpha-p=0.001"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("13.0000"), std::string::npos) << *report;
  // --alpha-p takes precedence over --alpha0: an alpha0 that would match
  // everything must not change the result.
  auto both = cli::Run(ParseArgs({"batch", std::string("--input=") + path,
                                  "--job=threshold", "--alpha-p=0.001",
                                  "--alpha0=0"})
                           .value());
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(*report, *both);
  // Like the other threshold flags, it is rejected for other jobs.
  EXPECT_TRUE(ParseArgs({"batch", std::string("--input=") + path,
                         "--job=mss", "--alpha-p=0.001"})
                  .status()
                  .IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(BatchTest, FlagRangeErrorsSpeakFlagVocabulary) {
  // Batch rides the query layer internally, but errors about values the
  // user typed as flags must name the flags, not query-grammar fields.
  std::string path = ::testing::TempDir() + "/sigsub_cli_flagvocab.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n").ok());
  std::string input = std::string("--input=") + path;
  auto probs = cli::Run(
      ParseArgs({"batch", input, "--probs=0.3,0.3,0.4"}).value());
  ASSERT_TRUE(probs.status().IsInvalidArgument());
  EXPECT_NE(probs.status().message().find("--probs"), std::string::npos)
      << probs.status().message();
  auto t = cli::Run(
      ParseArgs({"batch", input, "--job=topt", "--t=0"}).value());
  ASSERT_TRUE(t.status().IsInvalidArgument());
  EXPECT_NE(t.status().message().find("--t"), std::string::npos);
  // An out-of-range --alpha-p is a parse-time error, and a negative one
  // must not be conflated with the unset sentinel (which would silently
  // hand precedence back to --alpha0).
  for (const char* bad : {"--alpha-p=2", "--alpha-p=-0.001",
                          "--alpha-p=0"}) {
    auto alpha_p =
        ParseArgs({"batch", input, "--job=threshold", bad}).status();
    ASSERT_TRUE(alpha_p.IsInvalidArgument()) << bad;
    EXPECT_NE(alpha_p.message().find("--alpha-p"), std::string::npos)
        << bad;
  }
  std::remove(path.c_str());
}

TEST(BatchTest, VerboseAppendsSharedEngineStatsLine) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_verbose.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n0011\n").ok());
  auto report = cli::Run(
      ParseArgs({"batch", std::string("--input=") + path, "--verbose"})
          .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The same engine::FormatEngineStats line the server's STATS endpoint
  // serves: one snapshot struct, two consumers.
  EXPECT_NE(report->find("stats: queries=2 batches=1 "), std::string::npos)
      << *report;
  EXPECT_NE(report->find("cache_misses=2"), std::string::npos) << *report;
  EXPECT_NE(report->find("streams_open=0"), std::string::npos) << *report;
  std::remove(path.c_str());
}

TEST(ServeTest, ParsesServeFlags) {
  auto options = ParseArgs(
      {"serve", "--input=corpus.txt", "--port=9000", "--host=0.0.0.0",
       "--max-clients=8", "--max-queue=16", "--max-inflight=4",
       "--idle-timeout-ms=1000", "--max-runtime-ms=250"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->command, "serve");
  EXPECT_EQ(options->port, 9000);
  EXPECT_EQ(options->host, "0.0.0.0");
  EXPECT_EQ(options->max_clients, 8);
  EXPECT_EQ(options->max_queue, 16);
  EXPECT_EQ(options->max_inflight, 4);
  EXPECT_EQ(options->idle_timeout_ms, 1000);
  EXPECT_EQ(options->max_runtime_ms, 250);
}

TEST(ServeTest, ValidatesItsFlagSet) {
  // The daemon serves a corpus file; literals and client flags are out.
  EXPECT_TRUE(ParseArgs({"serve"}).status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseArgs({"serve", "--string=0101"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"serve", "--input=c.txt", "--probs=0.5,0.5"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"serve", "--input=c.txt", "--send=PING"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"serve", "--input=c.txt", "--port=70000"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"serve", "--input=c.txt", "--max-queue=0"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ClientTest, ParsesClientFlags) {
  auto options = ParseArgs({"client", "--port=9000", "--send=PING",
                            "--send=STATS", "--timeout-ms=1000",
                            "--linger-ms=50"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->command, "client");
  EXPECT_EQ(options->port, 9000);
  EXPECT_EQ(options->sends,
            (std::vector<std::string>{"PING", "STATS"}));
  EXPECT_EQ(options->timeout_ms, 1000);
  EXPECT_EQ(options->linger_ms, 50);
}

TEST(ClientTest, ValidatesItsFlagSet) {
  // A port is mandatory (no ephemeral guessing) and so is something to
  // send — either --send lines or an --input script.
  EXPECT_TRUE(
      ParseArgs({"client", "--send=PING"}).status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseArgs({"client", "--port=9000"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"client", "--port=9000", "--send=PING",
                         "--string=01"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"client", "--port=0", "--send=PING"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ServeClientTest, LoopbackRoundTripOverEphemeralPort) {
  // Full CLI-level round trip: a serve instance on an ephemeral port with
  // a short self-drain budget, driven by the client command.
  std::string path = ::testing::TempDir() + "/sigsub_cli_serve.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "01010101\n00110011\n").ok());

  server::Server daemon(
      engine::Corpus::FromStrings({"01010101", "00110011"}, "01").value());
  ASSERT_TRUE(daemon.Start().ok());

  auto options = ParseArgs(
      {"client", StrCat("--port=", daemon.port()), "--send=PING",
       "--send=QUERY mss:seq=0", "--send=STATS"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("OK pong"), std::string::npos) << *report;
  EXPECT_NE(report->find("OK kind=mss seq=0 "), std::string::npos)
      << *report;
  EXPECT_NE(report->find(" queries=1 "), std::string::npos) << *report;
  std::remove(path.c_str());
}

TEST(UsageTest, MentionsAllCommands) {
  std::string usage = UsageText();
  for (const char* command :
       {"mss", "topt", "threshold", "minlen", "score", "batch", "query",
        "stream", "serve", "client"}) {
    EXPECT_NE(usage.find(command), std::string::npos) << command;
  }
}

}  // namespace
}  // namespace cli
}  // namespace sigsub
