// Pins the exact output of every chain-cover interval kernel on seeded
// records: the witness, the match list, match_count and all four ScanStats
// counters. The other suites only bound the counters, so a change to the
// scan loop that shifts one skip would pass them; here it fails.
//
// Contexts use the scalar X² path, which is the same on every CPU, so the
// pinned values do not depend on whether the SIMD kernel is available.

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "core/atomic_max.h"
#include "core/chi_square.h"
#include "core/length_bounded.h"
#include "core/min_length.h"
#include "core/mss.h"
#include "core/parallel.h"
#include "core/threshold.h"
#include "core/top_disjoint.h"
#include "core/top_t.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/rng.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

using ::sigsub::testing::Family;

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

std::string Sub(const Substring& s) {
  return Format("[%" PRId64 ",%" PRId64 ")=%.17g", s.start, s.end,
                s.chi_square);
}

std::string Stats(const ScanStats& s) {
  return Format("ex=%" PRId64 " st=%" PRId64 " se=%" PRId64 " sk=%" PRId64,
                s.positions_examined, s.start_positions, s.skip_events,
                s.positions_skipped);
}

/// FNV-1a over the (start, end) pairs in order: pins the list's content
/// and order (each X² is a function of its bounds).
std::string Digest(const std::vector<Substring>& subs) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<uint64_t>(v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const Substring& s : subs) {
    mix(s.start);
    mix(s.end);
  }
  return Format("n=%zu h=%016" PRIx64, subs.size(), h);
}

struct Config {
  int k;
  Family family;  // kNull (uniform) or kHarmonic (skewed).
  int64_t n;
  double alpha0;
  std::vector<std::string> expected;
  // When set, a grouped null (several symbols share one probability)
  // replaces `family`: the record is drawn from it and scored under it.
  std::vector<double> grouped_probs = {};
};

/// One line per kernel call, in a fixed order.
std::vector<std::string> RunAll(const Config& config) {
  seq::Rng rng(1000 + static_cast<uint64_t>(config.k));
  seq::MultinomialModel model =
      config.grouped_probs.empty()
          ? testing::ScoringModel(config.family, config.k)
          : seq::MultinomialModel::Make(config.grouped_probs).value();
  seq::Sequence s =
      config.grouped_probs.empty()
          ? testing::GenerateFamily(config.family, config.k, config.n, rng)
          : seq::GenerateMultinomial(model, config.n, rng);
  seq::PrefixCounts counts(s);
  ChiSquareContext context(model);
  const int64_t n = config.n;
  std::vector<std::string> lines;

  MssResult mss = FindMss(counts, context);
  lines.push_back("mss " + Sub(mss.best) + " " + Stats(mss.stats));
  MssResult minlen = FindMssMinLength(counts, context, n / 10);
  lines.push_back("minlen " + Sub(minlen.best) + " " + Stats(minlen.stats));
  MssResult bounded = FindMssLengthBounded(counts, context, 5, n / 4);
  lines.push_back("lenbound " + Sub(bounded.best) + " " +
                  Stats(bounded.stats));

  ThresholdResult all = FindAboveThreshold(counts, context, config.alpha0);
  EXPECT_GT(all.match_count, 3);  // So the cap below truncates.
  lines.push_back("threshold count=" + std::to_string(all.match_count) + " " +
                  Digest(all.matches) + " best " + Sub(all.best) + " " +
                  Stats(all.stats));
  ThresholdOptions capped;
  capped.max_matches = 3;
  ThresholdResult few =
      FindAboveThreshold(counts, context, config.alpha0, capped);
  lines.push_back("threshold3 count=" + std::to_string(few.match_count) +
                  " " + Digest(few.matches) + " best " + Sub(few.best) + " " +
                  Stats(few.stats));

  TopTResult top = FindTopT(counts, context, 10);
  lines.push_back("topt " + Digest(top.top) + " first " + Sub(top.top[0]) +
                  " last " + Sub(top.top.back()) + " " + Stats(top.stats));

  TopDisjointOptions disjoint_options;
  disjoint_options.t = 4;
  disjoint_options.min_length = 3;
  std::vector<Substring> disjoint =
      FindTopDisjoint(counts, context, disjoint_options);
  std::string line = "disjoint " + Digest(disjoint);
  for (const Substring& d : disjoint) line += " " + Sub(d);
  lines.push_back(line);

  for (int num_shards : {1, 3}) {
    AtomicMax shared_best;
    for (int shard = 0; shard < num_shards; ++shard) {
      MssResult r =
          MssShardScan(counts, context, shard, num_shards, &shared_best);
      lines.push_back(Format("shard%d/%d ", shard, num_shards) + Sub(r.best) +
                      " " + Stats(r.stats));
    }
  }
  return lines;
}

class ScanCountersTest : public ::testing::TestWithParam<Config> {};

TEST_P(ScanCountersTest, KernelOutputIsPinned) {
  const Config& config = GetParam();
  std::vector<std::string> actual = RunAll(config);
  ASSERT_EQ(actual.size(), config.expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], config.expected[i]);
  }
}

const Config kConfigs[] = {
    {2, Family::kNull, 2000, 12.0, {
         "mss [1087,1113)=15.384615384615387 ex=39677 st=2000 se=39649 sk=1961323",
         "minlen [698,1047)=11.372492836676201 ex=34557 st=1801 se=34474 sk=1588144",
         "lenbound [1087,1113)=15.384615384615387 ex=27027 st=1996 se=27002 sk=840229",
         "threshold count=65 n=65 h=97e183a61e439d44 best [1087,1113)=15.384615384615387 ex=43299 st=2000 se=43220 sk=1957701",
         "threshold3 count=65 n=3 h=7c8f99878c8e651b best [1087,1113)=15.384615384615387 ex=43299 st=2000 se=43220 sk=1957701",
         "topt n=10 h=122cc906df73ad9a first [1087,1113)=15.384615384615387 last [1089,1113)=13.5 ex=44697 st=2000 se=44500 sk=1956303",
         "disjoint n=4 h=57c4ebe2d280c945 [1087,1113)=15.384615384615387 [698,725)=13.370370370370374 [787,800)=13 [632,696)=12.25",
         "shard0/1 [1087,1113)=15.384615384615387 ex=39677 st=2000 se=39649 sk=1961323",
         "shard0/3 [1087,1113)=15.384615384615387 ex=13571 st=667 se=13544 sk=653429",
         "shard1/3 [1086,1113)=13.370370370370374 ex=11832 st=667 se=11832 sk=655835",
         "shard2/3 [1088,1144)=14 ex=11836 st=666 se=11836 sk=654497",
     }},
    {2, Family::kHarmonic, 2000, 12.0, {
         "mss [245,254)=18 ex=47665 st=2000 se=47630 sk=1953335",
         "minlen [703,979)=7.1902173913043725 ex=40103 st=1801 se=40028 sk=1582598",
         "lenbound [245,254)=18 ex=32181 st=1996 se=32149 sk=835075",
         "threshold count=36 n=36 h=e5a4d6d437c75a1a best [245,254)=18 ex=47151 st=2000 se=47094 sk=1953849",
         "threshold3 count=36 n=3 h=5e748a670e9420c6 best [245,254)=18 ex=47151 st=2000 se=47094 sk=1953849",
         "topt n=10 h=31cb5a5ebfb2954f first [245,254)=18 last [245,252)=14 ex=55104 st=2000 se=54858 sk=1945896",
         "disjoint n=4 h=608ef542af066132 [245,254)=18 [703,733)=15 [95,122)=10.666666666666664 [448,453)=10",
         "shard0/1 [245,254)=18 ex=47665 st=2000 se=47630 sk=1953335",
         "shard0/3 [703,733)=15 ex=17049 st=667 se=17022 sk=649951",
         "shard1/3 [243,254)=16.40909090909091 ex=13539 st=667 se=13537 sk=654128",
         "shard2/3 [245,254)=18 ex=12829 st=666 se=12828 sk=653504",
     }},
    {4, Family::kNull, 2000, 16.0, {
         "mss [220,227)=21 ex=66513 st=2000 se=66490 sk=1934487",
         "minlen [0,272)=14.20588235294116 ex=68554 st=1801 se=68239 sk=1554147",
         "lenbound [220,227)=21 ex=40035 st=1996 se=40010 sk=827221",
         "threshold count=117 n=117 h=89bcf89e0ec07415 best [220,227)=21 ex=84547 st=2000 se=84266 sk=1916453",
         "threshold3 count=117 n=3 h=0c30f01639a99930 best [220,227)=21 ex=84547 st=2000 se=84266 sk=1916453",
         "topt n=10 h=7c8869ef9dbadae6 first [220,227)=21 last [1429,1470)=18.804878048780488 ex=76082 st=2000 se=75770 sk=1924918",
         "disjoint n=4 h=061e49da4904b33a [220,227)=21 [1429,1471)=20.666666666666664 [554,565)=19.90909090909091 [1772,1783)=19.181818181818183",
         "shard0/1 [220,227)=21 ex=66513 st=2000 se=66490 sk=1934487",
         "shard0/3 [220,227)=21 ex=22709 st=667 se=22669 sk=644291",
         "shard1/3 [1428,1471)=19.604651162790695 ex=21420 st=667 se=21419 sk=646247",
         "shard2/3 [1430,1471)=18.804878048780488 ex=21404 st=666 se=21404 sk=644929",
     }},
    {4, Family::kHarmonic, 2000, 20.0, {
         "mss [730,734)=29.333333333333329 ex=64339 st=2000 se=64283 sk=1936661",
         "minlen [36,290)=13.765748031496003 ex=73519 st=1801 se=73223 sk=1549182",
         "lenbound [728,734)=29.069444444444443 ex=45016 st=1996 se=44908 sk=822240",
         "threshold count=28 n=28 h=dd16247dcedc9cf3 best [730,734)=29.333333333333329 ex=74886 st=2000 se=74797 sk=1926114",
         "threshold3 count=28 n=3 h=9e96a9d59845ac85 best [730,734)=29.333333333333329 ex=74886 st=2000 se=74797 sk=1926114",
         "topt n=10 h=7a0ff735b24d42df first [730,734)=29.333333333333329 last [727,737)=22.291666666666664 ex=79508 st=2000 se=79053 sk=1921492",
         "disjoint n=4 h=57921ddcc14b1bda [730,734)=29.333333333333329 [220,227)=26.333333333333336 [1746,1749)=21.999999999999996 [419,422)=21.999999999999996",
         "shard0/1 [730,734)=29.333333333333329 ex=64339 st=2000 se=64283 sk=1936661",
         "shard0/3 [730,734)=29.333333333333329 ex=21768 st=667 se=21696 sk=645232",
         "shard1/3 [1746,1754)=19.604166666666664 ex=19257 st=667 se=19257 sk=648410",
         "shard2/3 [728,735)=23.654761904761902 ex=19238 st=666 se=19237 sk=647095",
     }},
    {8, Family::kNull, 1500, 28.0, {
         "mss [1159,1168)=36.333333333333336 ex=43928 st=1500 se=43780 sk=1081822",
         "minlen [1159,1422)=19.311787072243362 ex=42621 st=1351 se=42341 sk=870655",
         "lenbound [1159,1168)=36.333333333333336 ex=28744 st=1496 se=28588 sk=457637",
         "threshold count=9 n=9 h=e0b38cf6f902092f best [1159,1168)=36.333333333333336 ex=50885 st=1500 se=50850 sk=1074865",
         "threshold3 count=9 n=3 h=ca69fda381f8d651 best [1159,1168)=36.333333333333336 ex=50885 st=1500 se=50850 sk=1074865",
         "topt n=10 h=26c4db93f78ce523 first [1159,1168)=36.333333333333336 last [52,56)=28 ex=54764 st=1500 se=54207 sk=1070986",
         "disjoint n=4 h=f8fd5f0fd810ebb9 [1159,1168)=36.333333333333336 [52,57)=35 [1086,1097)=27.545454545454547 [1340,1347)=26.142857142857146",
         "shard0/1 [1159,1168)=36.333333333333336 ex=43928 st=1500 se=43780 sk=1081822",
         "shard0/3 [1160,1168)=30 ex=16640 st=500 se=16539 sk=358110",
         "shard1/3 [1159,1168)=36.333333333333336 ex=14148 st=500 se=14143 sk=361102",
         "shard2/3 [1158,1168)=31.600000000000001 ex=13847 st=500 se=13846 sk=361903",
     }},
    {8, Family::kHarmonic, 1500, 30.0, {
         "mss [1159,1167)=54.510714285714272 ex=52367 st=1500 se=52259 sk=1073383",
         "minlen [1158,1446)=21.656411210317515 ex=70879 st=1351 se=70208 sk=842397",
         "lenbound [1159,1167)=54.510714285714272 ex=35034 st=1496 se=34926 sk=451347",
         "threshold count=69 n=69 h=a4926cd537628847 best [1159,1167)=54.510714285714272 ex=80316 st=1500 se=79752 sk=1045434",
         "threshold3 count=69 n=3 h=e4b4abe2e1cf364e best [1159,1167)=54.510714285714272 ex=80316 st=1500 se=79752 sk=1045434",
         "topt n=10 h=20c640638b415870 first [1159,1167)=54.510714285714272 last [861,863)=41.48571428571428 ex=65682 st=1500 se=65014 sk=1060068",
         "disjoint n=4 h=c5e35020b9b894c8 [1159,1167)=54.510714285714272 [585,590)=49.357142857142854 [102,106)=40.165178571428569 [755,759)=34.049999999999997",
         "shard0/1 [1159,1167)=54.510714285714272 ex=52367 st=1500 se=52259 sk=1073383",
         "shard0/3 [1160,1167)=43.086224489795903 ex=20245 st=500 se=20174 sk=354505",
         "shard1/3 [1159,1167)=54.510714285714272 ex=17183 st=500 se=17178 sk=358067",
         "shard2/3 [585,590)=49.357142857142854 ex=16885 st=500 se=16882 sk=358865",
     }},
    {26, Family::kNull, 1000, 60.0, {
         "mss [14,17)=75 ex=42559 st=1000 se=42320 sk=457941",
         "minlen [122,293)=48.707602339181278 ex=37488 st=901 se=37326 sk=368863",
         "lenbound [245,252)=63.571428571428569 ex=28067 st=996 se=27785 sk=186814",
         "threshold count=9 n=9 h=0199abf63832b931 best [14,17)=75 ex=43892 st=1000 se=43697 sk=456608",
         "threshold3 count=9 n=3 h=a0e40c246f4cc00f best [14,17)=75 ex=43892 st=1000 se=43697 sk=456608",
         "topt n=10 h=4d88a050c2812d6e first [14,17)=75 last [187,196)=57.444444444444443 ex=50052 st=1000 se=49273 sk=450448",
         "disjoint n=4 h=0b00b64514acc8fd [14,17)=75 [245,252)=63.571428571428569 [199,203)=61 [801,805)=61",
         "shard0/1 [14,17)=75 ex=42559 st=1000 se=42320 sk=457941",
         "shard0/3 [801,805)=61 ex=14568 st=334 se=14411 sk=152599",
         "shard1/3 [14,17)=75 ex=14019 st=333 se=13994 sk=152481",
         "shard2/3 [940,951)=52.81818181818182 ex=11557 st=333 se=11557 sk=155276",
     }},
    {26, Family::kHarmonic, 1000, 60.0, {
         "mss [35,37)=175.30330694589207 ex=46755 st=1000 se=46348 sk=453745",
         "minlen [164,281)=59.31499419814466 ex=63986 st=901 se=63276 sk=342365",
         "lenbound [32,37)=93.673144735105154 ex=35066 st=996 se=34565 sk=179815",
         "threshold count=337 n=337 h=9b417a1bd35418e3 best [35,37)=175.30330694589207 ex=77747 st=1000 se=74414 sk=422753",
         "threshold3 count=337 n=3 h=c3f33ba723897b35 best [35,37)=175.30330694589207 ex=77747 st=1000 se=74414 sk=422753",
         "topt n=10 h=54e8e7713327bc51 first [35,37)=175.30330694589207 last [200,201)=99.214912621591154 ex=51542 st=1000 se=50590 sk=448958",
         "disjoint n=4 h=55a05ea120e47887 [35,38)=129.33507692338321 [921,924)=99.784525765734543 [110,114)=88.506073189161086 [851,855)=86.578863331053554",
         "shard0/1 [35,37)=175.30330694589207 ex=46755 st=1000 se=46348 sk=453745",
         "shard0/3 [921,924)=99.784525765734543 ex=16031 st=334 se=15813 sk=151136",
         "shard1/3 [35,37)=175.30330694589207 ex=15529 st=333 se=15393 sk=150971",
         "shard2/3 [34,38)=103.92375205402126 ex=10637 st=333 se=10629 sk=156196",
     }},
    // Grouped nulls: the daemon workload's probs(0.3;0.2;0.2;0.3), and a
    // k=8 model whose two classes interleave.
    {4, Family::kNull, 2000, 16.0, {
         "mss [1118,1130)=23.277777777777779 ex=62444 st=2000 se=62386 sk=1938556",
         "minlen [520,730)=17.825396825396837 ex=61069 st=1801 se=60567 sk=1561632",
         "lenbound [1118,1130)=23.277777777777779 ex=41420 st=1996 se=41348 sk=825836",
         "threshold count=381 n=381 h=0d433cd77c32a530 best [1118,1130)=23.277777777777779 ex=81867 st=2000 se=81135 sk=1919133",
         "threshold3 count=381 n=3 h=caa40673cfbdc856 best [1118,1130)=23.277777777777779 ex=81867 st=2000 se=81135 sk=1919133",
         "topt n=10 h=795567487bcc93f8 first [1118,1130)=23.277777777777779 last [1122,1131)=19.703703703703702 ex=72037 st=2000 se=71726 sk=1928963",
         "disjoint n=4 h=d7f34b80d74e59be [1118,1130)=23.277777777777779 [541,730)=18.716049382716051 [1429,1471)=17.087301587301596 [1757,1765)=17",
         "shard0/1 [1118,1130)=23.277777777777779 ex=62444 st=2000 se=62386 sk=1938556",
         "shard0/3 [1117,1130)=20.717948717948715 ex=22579 st=667 se=22515 sk=644421",
         "shard1/3 [1122,1130)=23.041666666666668 ex=19685 st=667 se=19682 sk=647982",
         "shard2/3 [1118,1130)=23.277777777777779 ex=19072 st=666 se=19068 sk=647261",
     }, {0.3, 0.2, 0.2, 0.3}},
    {8, Family::kNull, 1500, 28.0, {
         "mss [1158,1168)=34 ex=47034 st=1500 se=46924 sk=1078716",
         "minlen [733,889)=19.256410256410277 ex=43268 st=1351 se=43099 sk=870008",
         "lenbound [1158,1168)=34 ex=31028 st=1496 se=30889 sk=455353",
         "threshold count=20 n=20 h=e2b4e19cf16ae381 best [1158,1168)=34 ex=53621 st=1500 se=53542 sk=1072129",
         "threshold3 count=20 n=3 h=a7e4edb2190bc4e1 best [1158,1168)=34 ex=53621 st=1500 se=53542 sk=1072129",
         "topt n=10 h=b4c564677fe9911e first [1158,1168)=34 last [1382,1424)=29.26984126984128 ex=52990 st=1500 se=52496 sk=1072760",
         "disjoint n=4 h=23ec0499004145c0 [1158,1168)=34 [51,57)=34 [1086,1097)=31.121212121212125 [1381,1425)=30.090909090909093",
         "shard0/1 [1158,1168)=34 ex=47034 st=1500 se=46924 sk=1078716",
         "shard0/3 [1157,1168)=30.81818181818182 ex=16754 st=500 se=16681 sk=357996",
         "shard1/3 [1381,1425)=30.090909090909093 ex=16490 st=500 se=16488 sk=358760",
         "shard2/3 [1158,1168)=34 ex=15503 st=500 se=15500 sk=360247",
     }, {0.15, 0.1, 0.15, 0.1, 0.15, 0.1, 0.15, 0.1}},
};

INSTANTIATE_TEST_SUITE_P(
    Records, ScanCountersTest, ::testing::ValuesIn(kConfigs),
    [](const ::testing::TestParamInfo<Config>& info) {
      const char* model = !info.param.grouped_probs.empty() ? "Grouped"
                          : info.param.family == Family::kNull ? "Uniform"
                                                               : "Skewed";
      return "K" + std::to_string(info.param.k) + model;
    });

}  // namespace
}  // namespace core
}  // namespace sigsub
