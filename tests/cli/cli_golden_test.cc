// Byte-exact transcripts of the mining commands on fixed small inputs.
//
// cli_test checks properties of reports (a substring is present, an error
// names its flag); this suite pins whole reports, so a change to any
// command's execution path or rendering that alters a single byte of
// output fails here.

#include <string>
#include <vector>

#include "cli/cli.h"
#include "gtest/gtest.h"
#include "io/csv.h"

namespace sigsub {
namespace cli {
namespace {

/// k = 2 record with a planted run of ones.
constexpr const char* kBinary =
    "--string=0101011111111110101001101011100000000001011";
/// k = 4 record with planted runs of 'a' and 'c'.
constexpr const char* kDna =
    "--string=acgtacgtaaaaaaaaaacgtgcatgcaaccggttacgtcccccccgtacgta";
/// Repetitive k = 2 record for the all-substrings commands.
constexpr const char* kRepeats = "abababbbabaabababbbbabababaabbbab";

/// The fixture files SetUpTestSuite writes; "@DIR@" expands to the temp
/// dir.
constexpr const char* kCorpus = "--input=@DIR@/sigsub_golden_corpus.txt";
constexpr const char* kRecord = "--input=@DIR@/sigsub_golden_record.txt";

struct GoldenCase {
  const char* name;
  std::vector<std::string> args;
  const char* expected;
  // Compare only up to the "examined" work counter, which legitimately
  // varies with thread scheduling.
  bool up_to_examined = false;
};

/// Runs one command line and renders the outcome: the report, or the
/// failing stage and its status.
std::string Transcript(std::vector<std::string> args) {
  for (std::string& arg : args) {
    const size_t at = arg.find("@DIR@");
    if (at != std::string::npos) arg.replace(at, 5, ::testing::TempDir());
  }
  Result<CliOptions> options = ParseArgs(args);
  if (!options.ok()) return "parse: " + options.status().ToString() + "\n";
  Result<std::string> report = Run(*options);
  if (!report.ok()) return "run: " + report.status().ToString() + "\n";
  return *report;
}

std::string UpToExamined(const std::string& report) {
  return report.substr(0, report.find("examined"));
}

const GoldenCase kCases[] = {
    {"mss_threads1", {"mss", kBinary, "--threads=1"},
     R"golden(n = 43, k = 2
start  end  length  X2       p-value 
-------------------------------------
29     39   10      10.0000  0.001565
text: "0000000000"
examined 139 of 946 candidate positions
)golden"},
    {"mss_threads4", {"mss", kDna, "--threads=4"},
     R"golden(n = 53, k = 4
start  end  length  X2       p-value 
-------------------------------------
8      18   10      30.0000  1.38e-06
text: "aaaaaaaaaa"
examined 183 of 1431 candidate positions
)golden", true},
    {"mss_dna", {"mss", kDna},
     R"golden(n = 53, k = 4
start  end  length  X2       p-value 
-------------------------------------
8      18   10      30.0000  1.38e-06
text: "aaaaaaaaaa"
examined 228 of 1431 candidate positions
)golden"},
    {"topt", {"topt", kBinary, "--t=3"},
     R"golden(n = 43, k = 2
rank  start  end  X2       p-value 
-----------------------------------
1     29     39   10.0000  0.001565
2     5      15   10.0000  0.001565
3     29     38   9.0000   0.0027  
)golden"},
    {"topt_disjoint",
     {"topt", kDna, "--t=3", "--disjoint", "--min-length=4"},
     R"golden(n = 53, k = 4
rank  start  end  X2       p-value  
------------------------------------
1     8      18   30.0000  1.38e-06 
2     39     46   21.0000  0.0001053
3     26     31   5.4000   0.1447   
)golden"},
    {"threshold_alpha0", {"threshold", kBinary, "--alpha0=9"},
     R"golden(n = 43, k = 2
2 substrings above 9
start  end  X2     
-------------------
29     39   10.0000
5      15   10.0000
)golden"},
    {"threshold_pvalue", {"threshold", kDna, "--pvalue=0.0001"},
     R"golden(n = 53, k = 4
alpha0 = 21.1075 (p-value 0.0001)
14 substrings above 21.1075
start  end  X2     
-------------------
10     18   24.0000
9      17   24.0000
9      18   27.0000
9      19   22.8000
8      16   24.0000
8      17   27.0000
8      18   30.0000
8      19   25.7273
8      20   22.0000
7      17   22.8000
7      18   25.7273
7      19   22.0000
6      18   22.0000
4      18   21.4286
)golden"},
    {"minlen", {"minlen", kBinary, "--min-length=8"},
     R"golden(n = 43, k = 2
start  end  length  X2       p-value 
-------------------------------------
29     39   10      10.0000  0.001565
text: "0000000000"
)golden"},
    {"minlen_floor_above_n",
     {"minlen", "--string=0101", "--min-length=10"},
     R"golden(run: InvalidArgument: min_length must be in [1, 4], got 10
)golden"},
    {"score",
     {"score", kBinary, "--start=5", "--end=15", "--probs=0.4,0.6"},
     R"golden(n = 43, k = 2
start  end  length  X2      p-value 
------------------------------------
5      15   10      6.6667  0.009823
text: "1111111111"
G2 = 10.2165
)golden"},
    {"substrings",
     {"substrings", std::string("--string=") + kRepeats, "--min-length=2"},
     R"golden(n = 33, k = 2
26 matching substrings (showing 10)
rank  start  end  length  count  X2      p-value  substring
-----------------------------------------------------------
1     5      8    3       4      3.0000  0.08326  "bbb"    
2     5      7    2       7      2.0000  0.1573   "bb"     
3     3      8    5       2      1.8000  0.1797   "babbb"  
4     5      10   5       3      1.8000  0.1797   "bbbab"  
5     1      8    7       2      1.2857  0.2568   "bababbb"
6     4      8    4       3      1.0000  0.3173   "abbb"   
7     6      10   4       3      1.0000  0.3173   "bbab"   
8     2      8    6       2      0.6667  0.4142   "ababbb" 
9     4      10   6       2      0.6667  0.4142   "abbbab" 
10    5      11   6       2      0.6667  0.4142   "bbbaba" 
cache: 0 hits, 1 misses (1 entries)
)golden"},
    {"substrings_positions",
     {"substrings", std::string("--string=") + kRepeats, "--top=3",
      "--min-length=3", "--alpha0=1", "--positions"},
     R"golden(n = 33, k = 2
6 matching substrings (showing 3)
rank  start  end  length  count  X2      p-value  substring
-----------------------------------------------------------
1     5      8    3       4      3.0000  0.08326  "bbb"    
2     3      8    5       2      1.8000  0.1797   "babbb"  
3     5      10   5       3      1.8000  0.1797   "bbbab"  
positions 1: 5 16 17 28
positions 2: 3 14
positions 3: 5 17 28
classes: 28 enumerated, 23 candidates scored; index: 264 bytes (peak 396)
)golden"},
    {"substrings_mmap",
     {"substrings", kRecord, "--mmap", "--top=4"},
     R"golden(n = 33, k = 2, mapped
28 matching substrings (showing 4)
rank  start  end  length  count  X2      p-value  substring
-----------------------------------------------------------
1     5      8    3       4      3.0000  0.08326  "bbb"    
2     5      7    2       7      2.0000  0.1573   "bb"     
3     3      8    5       2      1.8000  0.1797   "babbb"  
4     5      10   5       3      1.8000  0.1797   "bbbab"  
cache: 0 hits, 1 misses (1 entries)
)golden"},
    {"batch_mss", {"batch", kCorpus},
     R"golden(corpus: 4 records, k = 2, job = mss, threads = 1
record  n   start  end  length  X2       p-value 
-------------------------------------------------
0       19  5      15   10      10.0000  0.001565
1       22  0      10   10      10.0000  0.001565
2       4   1      3    2       2.0000   0.1573  
4       25  0      6    6       6.0000   0.01431 
cache: 0 hits, 4 misses (4 entries)
)golden"},
    {"batch_topt",
     {"batch", kCorpus, "--job=topt", "--t=2"},
     R"golden(corpus: 4 records, k = 2, job = topt, threads = 1
record  rank  start  end  X2       p-value 
-------------------------------------------
0       1     5      15   10.0000  0.001565
0       2     5      14   9.0000   0.0027  
1       1     0      10   10.0000  0.001565
1       2     0      9    9.0000   0.0027  
2       1     1      3    2.0000   0.1573  
2       2     2      3    1.0000   0.3173  
4       1     0      6    6.0000   0.01431 
4       2     0      9    5.4444   0.01963 
cache: 0 hits, 4 misses (4 entries)
)golden"},
    {"batch_disjoint",
     {"batch", kCorpus, "--job=disjoint", "--t=2",
      "--min-length=3"},
     R"golden(corpus: 4 records, k = 2, job = disjoint, threads = 1
record  rank  start  end  X2       p-value 
-------------------------------------------
0       1     5      15   10.0000  0.001565
0       2     2      5    0.3333   0.5637  
1       1     0      10   10.0000  0.001565
1       2     16     22   6.0000   0.01431 
2       1     1      4    0.3333   0.5637  
4       1     0      6    6.0000   0.01431 
4       2     9      14   1.8000   0.1797  
cache: 0 hits, 4 misses (4 entries)
)golden"},
    {"batch_threshold_alpha0",
     {"batch", kCorpus, "--job=threshold", "--alpha0=9"},
     R"golden(corpus: 4 records, k = 2, job = threshold, threads = 1
record  n   matches  best_start  best_end  best_X2
--------------------------------------------------
0       19  1        5           15        10.0000
1       22  1        0           10        10.0000
2       4   0        -           -         -      
4       25  0        -           -         -      
cache: 0 hits, 4 misses (4 entries)
)golden"},
    {"batch_threshold_pvalue",
     {"batch", kCorpus, "--job=threshold",
      "--pvalue=0.01"},
     R"golden(alpha0 = 6.6349 (p-value 0.01)
corpus: 4 records, k = 2, job = threshold, threads = 1
record  n   matches  best_start  best_end  best_X2
--------------------------------------------------
0       19  19       5           15        10.0000
1       22  11       0           10        10.0000
2       4   0        -           -         -      
4       25  0        -           -         -      
cache: 0 hits, 4 misses (4 entries)
)golden"},
    {"batch_threshold_alpha_p",
     {"batch", kCorpus, "--job=threshold",
      "--alpha-p=0.005", "--threads=2"},
     R"golden(corpus: 4 records, k = 2, job = threshold, threads = 2
record  n   matches  best_start  best_end  best_X2
--------------------------------------------------
0       19  8        5           15        10.0000
1       22  6        0           10        10.0000
2       4   0        -           -         -      
4       25  0        -           -         -      
cache: 0 hits, 4 misses (4 entries)
)golden"},
    {"batch_minlen",
     {"batch", kCorpus, "--job=minlen", "--min-length=6"},
     R"golden(corpus: 4 records, k = 2, job = minlen, threads = 1
record  n   start  end  length  X2       p-value 
-------------------------------------------------
0       19  5      15   10      10.0000  0.001565
1       22  0      10   10      10.0000  0.001565
2       4   -      -    -       -        -       
4       25  0      6    6       6.0000   0.01431 
cache: 0 hits, 4 misses (4 entries)
)golden"},
    {"batch_verbose",
     {"batch", kCorpus, "--verbose"},
     R"golden(corpus: 4 records, k = 2, job = mss, threads = 1
record  n   start  end  length  X2       p-value 
-------------------------------------------------
0       19  5      15   10      10.0000  0.001565
1       22  0      10   10      10.0000  0.001565
2       4   1      3    2       2.0000   0.1573  
4       25  0      6    6       6.0000   0.01431 
cache: 0 hits, 4 misses (4 entries)
stats: queries=4 batches=1 threads=1 cache_hits=0 cache_misses=4 cache_insertions=4 cache_evictions=0 cache_entries=4 cache_capacity=4096 streams_open=0 streams_created=0 streams_closed=0 symbols_ingested=0 alarms_raised=0
)golden"},
    {"query",
     {"query", kCorpus, "--query=mss:seq=1",
      "--query=topt:seq=0,t=2", "--query=threshold:seq=2,alpha_p=0.01",
      "--query=minlen:seq=1,min_length=12",
      "--query=substrings:seq=0,top=2,min_length=2",
      "--query=mss:seq=1"},
     R"golden(corpus: 4 records, k = 2, queries = 6, threads = 1
query  kind        record  matches  rank  start  end  length  X2       p-value 
-------------------------------------------------------------------------------
0      mss         1       1        1     0      10   10      10.0000  0.001565
1      topt        0       2        1     5      15   10      10.0000  0.001565
1      topt        0       2        2     5      14   9       9.0000   0.0027  
2      threshold   2       0        -     -      -    -       -        -       
3      minlen      1       1        1     0      12   12      5.3333   0.02092 
4      substrings  0       12       1     5      14   9       9.0000   0.0027  
4      substrings  0       12       2     5      13   8       8.0000   0.004678
5      mss         1       1        1     0      10   10      10.0000  0.001565
cache: 0 hits, 6 misses (5 entries)
)golden"},
};

class CliGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string dir = ::testing::TempDir();
    ASSERT_TRUE(io::WriteTextFile(dir + "/sigsub_golden_record.txt",
                                  std::string(kRepeats) + "\n")
                    .ok());
    ASSERT_TRUE(io::WriteTextFile(dir + "/sigsub_golden_corpus.txt",
                                  "0101011111111110101\n"
                                  "0000000000111111000000\n"
                                  "0110\n"
                                  "\n"
                                  "1111110110010011001100110\n")
                    .ok());
  }
};

TEST_F(CliGoldenTest, TranscriptsAreByteExact) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    const std::string actual = Transcript(c.args);
    if (c.up_to_examined) {
      EXPECT_EQ(UpToExamined(actual), UpToExamined(c.expected));
    } else {
      EXPECT_EQ(actual, c.expected);
    }
  }
}

}  // namespace
}  // namespace cli
}  // namespace sigsub
