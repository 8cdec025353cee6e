#include "core/suffix_scan.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/chi_square.h"
#include "core/markov_scan.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/model.h"
#include "seq/rng.h"
#include "seq/sequence.h"
#include "testing/suffix_scan_peer.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

seq::Sequence FromPattern(int k, const std::string& pattern) {
  std::vector<uint8_t> symbols;
  symbols.reserve(pattern.size());
  for (char c : pattern) {
    symbols.push_back(static_cast<uint8_t>(c - 'a'));
  }
  return seq::Sequence::FromSymbols(k, std::move(symbols)).value();
}

/// The adversarial repetitive strings of the property sweep: runs,
/// alternations, squares, a Fibonacci word (maximal repetition density),
/// and strings that use only part of the alphabet.
std::vector<seq::Sequence> AdversarialStrings(int k) {
  std::string fib_a = "a";
  std::string fib_b = "ab";
  while (fib_b.size() < 60) {
    std::string next = fib_b + fib_a;
    fib_a = fib_b;
    fib_b = next;
  }
  std::vector<std::string> patterns = {
      std::string(40, 'a'),
      "abababababababababababab",
      "aabbaabbaabbaabbaabb",
      fib_b,
      "a",
      "ab",
      "ba",
      "aabab",
  };
  if (k >= 4) {
    patterns.push_back("abcdabcdabcdabcd");
    patterns.push_back("abcddcbaabcddcba");
    patterns.push_back("aaaabbbbccccdddd");
  }
  std::vector<seq::Sequence> out;
  for (const std::string& pattern : patterns) {
    out.push_back(FromPattern(k, pattern));
  }
  return out;
}

/// Records with classes deeper than 2·step for both scorers at k <= 4, so
/// the sweep derives those classes' counts from the sampled prefix counts:
/// a run, an alternation, a period-4 word, a Fibonacci word, and a random
/// record carrying a planted 300-symbol repeat.
std::vector<seq::Sequence> LongRepetitiveStrings(int k) {
  auto repeat = [](const std::string& unit, int times) {
    std::string out;
    for (int i = 0; i < times; ++i) out += unit;
    return out;
  };
  std::string fib_a = "a";
  std::string fib_b = "ab";
  while (fib_b.size() < 377) {
    std::string next = fib_b + fib_a;
    fib_a = fib_b;
    fib_b = next;
  }
  seq::Rng rng(300 + static_cast<uint64_t>(k));
  auto random_text = [&](int64_t n) {
    std::string out;
    for (int64_t i = 0; i < n; ++i) {
      out.push_back(static_cast<char>(
          'a' + rng.NextBounded(static_cast<uint64_t>(k))));
    }
    return out;
  };
  const std::string planted = random_text(300);
  std::vector<std::string> patterns = {
      std::string(400, 'a'),
      repeat("ab", 200),
      fib_b,
      random_text(20) + planted + random_text(20) + planted,
  };
  if (k >= 4) patterns.push_back(repeat("abcd", 100));
  std::vector<seq::Sequence> out;
  for (const std::string& pattern : patterns) {
    out.push_back(FromPattern(k, pattern));
  }
  return out;
}

std::string TextOf(const seq::Sequence& s, const Substring& sub) {
  std::string text;
  for (int64_t i = sub.start; i < sub.end; ++i) {
    text.push_back(static_cast<char>('a' + s[i]));
  }
  return text;
}

/// Brute-force suffix array for validating the SA-IS construction.
std::vector<int32_t> BruteSuffixArray(const seq::Sequence& s) {
  std::vector<int32_t> sa(static_cast<size_t>(s.size()));
  std::iota(sa.begin(), sa.end(), 0);
  std::sort(sa.begin(), sa.end(), [&](int32_t a, int32_t b) {
    return std::lexicographical_compare(
        s.symbols().begin() + a, s.symbols().end(),
        s.symbols().begin() + b, s.symbols().end());
  });
  return sa;
}

void ExpectSameResult(const seq::Sequence& s, const SuffixScanResult& got,
                      const SuffixScanResult& want, const std::string& label) {
  ASSERT_EQ(got.classes.size(), want.classes.size()) << label;
  EXPECT_EQ(got.match_count, want.match_count) << label;
  for (size_t i = 0; i < got.classes.size(); ++i) {
    const SubstringClass& g = got.classes[i];
    const SubstringClass& w = want.classes[i];
    EXPECT_EQ(TextOf(s, g.substring), TextOf(s, w.substring))
        << label << " row " << i;
    EXPECT_EQ(g.substring.start, w.substring.start) << label << " row " << i;
    EXPECT_EQ(g.substring.end, w.substring.end) << label << " row " << i;
    EXPECT_EQ(g.count, w.count) << label << " row " << i;
    // The gate of the subsystem: bit-identical X² across the suffix and
    // per-position paths (same fused kernel, same integer counts).
    EXPECT_EQ(g.substring.chi_square, w.substring.chi_square)
        << label << " row " << i << " text " << TextOf(s, g.substring);
    EXPECT_EQ(g.p_value, w.p_value) << label << " row " << i;
  }
  ASSERT_EQ(got.positions.size(), want.positions.size()) << label;
  for (size_t i = 0; i < got.positions.size(); ++i) {
    EXPECT_EQ(got.positions[i], want.positions[i]) << label << " row " << i;
  }
}

/// The sweep counters, which must not depend on how the sweep is split.
void ExpectSameStats(const SuffixScanStats& got, const SuffixScanStats& want,
                     const std::string& label) {
  EXPECT_EQ(got.classes_enumerated, want.classes_enumerated) << label;
  EXPECT_EQ(got.candidates_scored, want.candidates_scored) << label;
  EXPECT_EQ(got.label_symbols, want.label_symbols) << label;
}

Result<SuffixScanResult> PublicScan(const SuffixScan& scan,
                                    const ChiSquareContext& context,
                                    const SuffixScanOptions& options) {
  return scan.Scan(context, options);
}

Result<SuffixScanResult> PublicScan(const SuffixScan& scan,
                                    const MarkovChiSquare& context,
                                    const SuffixScanOptions& options) {
  return scan.ScanMarkov(context, options);
}

/// The public scan and the sweep forced into 1, 2, 7 and 64 rank chunks
/// must all report `want`; every forced split must also reproduce the
/// one-chunk sweep's counters.
template <typename Context>
void ExpectEverySweepMatches(const seq::Sequence& s, const SuffixScan& scan,
                             const Context& context,
                             const SuffixScanOptions& options,
                             const SuffixScanResult& want,
                             const std::string& label) {
  ASSERT_OK_AND_ASSIGN(SuffixScanResult got,
                       PublicScan(scan, context, options));
  ExpectSameResult(s, got, want, label);
  ASSERT_OK_AND_ASSIGN(
      SuffixScanResult one,
      SuffixScanTestPeer::ScanInChunks(scan, context, options, 1));
  ExpectSameResult(s, one, want, label + " chunks=1");
  ExpectSameStats(got.stats, one.stats, label);
  for (int chunks : {2, 7, 64}) {
    const std::string chunk_label = StrCat(label, " chunks=", chunks);
    ASSERT_OK_AND_ASSIGN(
        SuffixScanResult split,
        SuffixScanTestPeer::ScanInChunks(scan, context, options, chunks));
    ExpectSameResult(s, split, want, chunk_label);
    ExpectSameStats(split.stats, one.stats, chunk_label);
  }
}

/// lcp[r] = the longest common prefix of the rank-(r−1) and rank-r
/// suffixes, by direct comparison (lcp[0] = 0).
std::vector<int32_t> BruteLcp(const seq::Sequence& s,
                              const std::vector<int32_t>& sa) {
  std::vector<int32_t> lcp(sa.size(), 0);
  for (size_t r = 1; r < sa.size(); ++r) {
    int64_t a = sa[r - 1];
    int64_t b = sa[r];
    int32_t h = 0;
    while (a + h < s.size() && b + h < s.size() && s[a + h] == s[b + h]) {
      ++h;
    }
    lcp[r] = h;
  }
  return lcp;
}

/// `s` as a mapped record: symbol c stored as the byte 'a' + c.
std::string MappedText(const seq::Sequence& s) {
  std::string text;
  for (int64_t i = 0; i < s.size(); ++i) {
    text.push_back(static_cast<char>('a' + s[i]));
  }
  return text;
}

std::array<uint8_t, 256> LetterDecode(int k) {
  std::array<uint8_t, 256> decode;
  decode.fill(0xFF);
  for (int c = 0; c < k; ++c) decode['a' + c] = static_cast<uint8_t>(c);
  return decode;
}

std::span<const uint8_t> Bytes(const std::string& text) {
  return {reinterpret_cast<const uint8_t*>(text.data()), text.size()};
}

struct OptionCase {
  SuffixScanOptions options;
  std::string label;
};

/// Unbounded contracts for the long records: maximal-only at min_count 1
/// and 2, and enumerate-everything over lengths that straddle 2·step, so
/// classes both below and past the sampled-count threshold are scored.
std::vector<OptionCase> DeepOptionCases(int64_t cells) {
  std::vector<OptionCase> cases;
  SuffixScanOptions o;
  o.top_n = 0;
  o.max_length = 0;
  o.collect_positions = true;
  for (int64_t min_count : {1, 2}) {
    o.min_count = min_count;
    cases.push_back({o, StrCat("maximal_min_count_", min_count)});
  }
  o.maximal_only = false;
  o.min_count = 2;
  o.min_length = 2 * SuffixScan::LabelCheckpointStep(cells) - 16;
  cases.push_back({o, "full_min_count_2_deep"});
  return cases;
}

/// Runs every DeepOptionCases contract over the long records through both
/// the decoded and the mapped build, against the naive reference, with
/// every sweep split (ExpectEverySweepMatches), and checks that some
/// reported class was deeper than 2·step.
template <typename Context, typename NaiveFn>
void ExpectLongRecordsMatchNaive(int k, int64_t cells, const Context& context,
                                 NaiveFn naive_fn) {
  const int64_t threshold = 2 * SuffixScan::LabelCheckpointStep(cells);
  const std::array<uint8_t, 256> decode = LetterDecode(k);
  for (const seq::Sequence& s : LongRepetitiveStrings(k)) {
    const std::string text = MappedText(s);
    ASSERT_OK_AND_ASSIGN(SuffixScan decoded, SuffixScan::Build(s.symbols(), k));
    ASSERT_OK_AND_ASSIGN(SuffixScan mapped,
                         SuffixScan::BuildMapped(Bytes(text), decode, k));
    int64_t deepest = 0;
    for (const OptionCase& option_case : DeepOptionCases(cells)) {
      ASSERT_OK_AND_ASSIGN(SuffixScanResult want,
                           naive_fn(s, option_case.options));
      for (const SuffixScan* scan : {&decoded, &mapped}) {
        ExpectEverySweepMatches(
            s, *scan, context, option_case.options, want,
            StrCat(option_case.label,
                   scan == &decoded ? " Build" : " BuildMapped", " k=", k,
                   " n=", s.size()));
      }
      for (const SubstringClass& entry : want.classes) {
        deepest = std::max(deepest, entry.substring.length());
      }
    }
    EXPECT_GT(deepest, threshold) << "k=" << k << " n=" << s.size();
  }
}

TEST(SuffixScanIndexTest, SuffixArrayMatchesBruteForceSort) {
  // Whole SA and LCP arrays against a brute-force sort and direct
  // comparison, through both the decoded and the mapped build.
  for (int k : {2, 4, 26}) {
    seq::Rng rng(1234 + static_cast<uint64_t>(k));
    std::vector<seq::Sequence> cases = AdversarialStrings(k);
    for (int64_t n : {1, 2, 3, 7, 33, 100, 257, 1000}) {
      cases.push_back(seq::GenerateNull(k, n, rng));
    }
    const std::array<uint8_t, 256> decode = LetterDecode(k);
    for (const seq::Sequence& s : cases) {
      const std::vector<int32_t> sa = BruteSuffixArray(s);
      const std::vector<int32_t> lcp = BruteLcp(s, sa);
      const std::string text = MappedText(s);
      ASSERT_OK_AND_ASSIGN(SuffixScan decoded,
                           SuffixScan::Build(s.symbols(), k));
      ASSERT_OK_AND_ASSIGN(SuffixScan mapped,
                           SuffixScan::BuildMapped(Bytes(text), decode, k));
      for (const SuffixScan* scan : {&decoded, &mapped}) {
        const std::string label = StrCat(
            scan == &decoded ? "Build" : "BuildMapped", " k=", k, " ", text);
        EXPECT_EQ(std::vector<int32_t>(scan->suffix_array().begin(),
                                       scan->suffix_array().end()),
                  sa)
            << label;
        EXPECT_EQ(std::vector<int32_t>(scan->lcp_array().begin(),
                                       scan->lcp_array().end()),
                  lcp)
            << label;
      }
    }
  }
}

TEST(SuffixScanIndexTest, OutOfAlphabetSymbolIsNamedByValueAndPosition) {
  // The first bad symbol is reported, wherever it is; a second one later
  // in the record does not change the message.
  const std::string clean = "abcdabcdabcd";
  const int64_t n = static_cast<int64_t>(clean.size());
  const std::array<uint8_t, 256> decode = LetterDecode(4);
  std::vector<uint8_t> symbols;
  for (char c : clean) symbols.push_back(decode[static_cast<uint8_t>(c)]);
  for (int64_t position : {int64_t{0}, n / 2, n - 1}) {
    std::string text = clean;
    text[position] = 'x';
    if (position + 2 < n) text[position + 2] = 'z';
    auto mapped = SuffixScan::BuildMapped(Bytes(text), decode, 4);
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(mapped.status().message(),
              StrCat("byte value 120 at position ", position,
                     " is outside the 4-symbol alphabet"));

    std::vector<uint8_t> bad = symbols;
    bad[position] = 7;
    if (position + 2 < n) bad[position + 2] = 9;
    auto decoded = SuffixScan::Build(bad, 4);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(decoded.status().message(),
              StrCat("byte value 7 at position ", position,
                     " is outside the 4-symbol alphabet"));
  }
}

/// Prefix doubling (Manber & Myers), O(n log² n): suffixes sorted by
/// their first 2^h symbols, ranks refined until all are distinct. An
/// independent reference for records too long to sort by direct
/// comparison.
std::vector<int32_t> DoublingSuffixArray(const seq::Sequence& s) {
  const int64_t n = s.size();
  std::vector<int32_t> sa(static_cast<size_t>(n));
  std::vector<int64_t> rank(static_cast<size_t>(n));
  std::vector<int64_t> next(static_cast<size_t>(n));
  std::iota(sa.begin(), sa.end(), 0);
  for (int64_t i = 0; i < n; ++i) rank[i] = s[i];
  for (int64_t h = 1;; h *= 2) {
    auto key = [&](int32_t i) {
      return std::make_pair(rank[i], i + h < n ? rank[i + h] : -1);
    };
    std::sort(sa.begin(), sa.end(),
              [&](int32_t a, int32_t b) { return key(a) < key(b); });
    next[sa[0]] = 0;
    for (int64_t r = 1; r < n; ++r) {
      next[sa[r]] = next[sa[r - 1]] + (key(sa[r - 1]) < key(sa[r]) ? 1 : 0);
    }
    rank.swap(next);
    if (rank[sa[n - 1]] == n - 1) return sa;
  }
}

/// Kasai et al.'s LCP from the rank array: lcp[r] is the longest common
/// prefix of the rank-(r−1) and rank-r suffixes (lcp[0] = 0).
std::vector<int32_t> KasaiLcp(const seq::Sequence& s,
                              const std::vector<int32_t>& sa) {
  const int64_t n = s.size();
  std::vector<int32_t> rank(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) rank[sa[r]] = static_cast<int32_t>(r);
  std::vector<int32_t> lcp(static_cast<size_t>(n), 0);
  int64_t h = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (rank[i] == 0) {
      h = 0;
      continue;
    }
    const int64_t j = sa[rank[i] - 1];
    while (i + h < n && j + h < n && s[i + h] == s[j + h]) ++h;
    lcp[rank[i]] = static_cast<int32_t>(h);
    if (h > 0) --h;
  }
  return lcp;
}

TEST(SuffixScanIndexTest, ParallelBuildMatchesReference) {
  // Records of at least four parallel chunks (64 Ki symbols each; a build
  // goes parallel from two), plus an odd tail so the chunks are uneven:
  // random at k = 2, 4, 26; a periodic record with planted mutations,
  // whose deep LCPs cross chunk boundaries; a record whose LMS substrings
  // are named in two chunks; a^n, where every PLCP chunk
  // restarts on one long comparison; and a 97%-skewed record with long
  // runs. SA and LCP must match the references exactly through both
  // builds, and the error for an out-of-alphabet byte must name the
  // record's first one.
  constexpr int64_t kN = 4 * (int64_t{1} << 16) + 4321;
  struct Record {
    std::string label;
    seq::Sequence symbols;
  };
  std::vector<Record> records;
  seq::Rng rng(15);
  for (int k : {2, 4, 26}) {
    records.push_back({StrCat("random k=", k), seq::GenerateNull(k, kN, rng)});
  }
  {
    const seq::Sequence unit = seq::GenerateNull(4, 977, rng);
    std::vector<uint8_t> periodic(static_cast<size_t>(kN));
    for (int64_t i = 0; i < kN; ++i) periodic[i] = unit[i % unit.size()];
    for (int m = 0; m < 8; ++m) {
      const int64_t at = static_cast<int64_t>(rng.NextBounded(kN));
      periodic[at] = static_cast<uint8_t>((periodic[at] + 1) % 4);
    }
    records.push_back(
        {"periodic",
         seq::Sequence::FromSymbols(4, std::move(periodic)).value()});
  }
  {
    // Every other symbol is the smallest, so half the positions are LMS:
    // enough to name the LMS substrings in more than one chunk.
    std::vector<uint8_t> alternating(static_cast<size_t>(kN));
    for (int64_t i = 0; i < kN; ++i) {
      alternating[i] =
          i % 2 == 0 ? 0 : static_cast<uint8_t>(1 + rng.NextBounded(3));
    }
    records.push_back({"alternating", seq::Sequence::FromSymbols(
                                          4, std::move(alternating))
                                          .value()});
  }
  records.push_back(
      {"a^n", seq::Sequence::FromSymbols(
                  2, std::vector<uint8_t>(static_cast<size_t>(kN), 0))
                  .value()});
  {
    std::vector<uint8_t> skewed(static_cast<size_t>(kN));
    for (uint8_t& c : skewed) {
      c = rng.NextBounded(100) < 97
              ? 0
              : static_cast<uint8_t>(1 + rng.NextBounded(3));
    }
    records.push_back(
        {"skewed", seq::Sequence::FromSymbols(4, std::move(skewed)).value()});
  }

  const unsigned hw = std::thread::hardware_concurrency();
  for (const Record& record : records) {
    const seq::Sequence& s = record.symbols;
    const int k = s.alphabet_size();
    const std::vector<int32_t> sa = DoublingSuffixArray(s);
    const std::vector<int32_t> lcp = KasaiLcp(s, sa);
    const std::array<uint8_t, 256> decode = LetterDecode(k);
    const std::string text = MappedText(s);
    ASSERT_OK_AND_ASSIGN(SuffixScan decoded, SuffixScan::Build(s.symbols(), k));
    ASSERT_OK_AND_ASSIGN(SuffixScan mapped,
                         SuffixScan::BuildMapped(Bytes(text), decode, k));
    for (const SuffixScan* scan : {&decoded, &mapped}) {
      const std::string label = StrCat(
          scan == &decoded ? "Build " : "BuildMapped ", record.label);
      EXPECT_EQ(scan->build_workers(), hw > 1 ? static_cast<int>(hw) : 1)
          << label;
      EXPECT_TRUE(std::equal(sa.begin(), sa.end(),
                             scan->suffix_array().begin(),
                             scan->suffix_array().end()))
          << label;
      EXPECT_TRUE(std::equal(lcp.begin(), lcp.end(),
                             scan->lcp_array().begin(),
                             scan->lcp_array().end()))
          << label;
    }

    // A bad byte in the last chunk alone, then with an earlier one in
    // the first chunk: the first is reported either way.
    for (int64_t early : {int64_t{-1}, int64_t{1000}}) {
      std::string bad_text = text;
      std::vector<uint8_t> bad_symbols(s.symbols().begin(),
                                       s.symbols().end());
      const int64_t late = kN - 777;
      bad_text[late] = '#';
      bad_symbols[late] = 250;
      int64_t first = late;
      if (early >= 0) {
        bad_text[early] = '!';
        bad_symbols[early] = 200;
        first = early;
      }
      auto bad_mapped = SuffixScan::BuildMapped(Bytes(bad_text), decode, k);
      ASSERT_FALSE(bad_mapped.ok()) << record.label;
      EXPECT_EQ(bad_mapped.status().message(),
                StrCat("byte value ", early >= 0 ? int{'!'} : int{'#'},
                       " at position ", first, " is outside the ", k,
                       "-symbol alphabet"))
          << record.label;
      auto bad_decoded = SuffixScan::Build(bad_symbols, k);
      ASSERT_FALSE(bad_decoded.ok()) << record.label;
      EXPECT_EQ(bad_decoded.status().message(),
                StrCat("byte value ", early >= 0 ? 200 : 250,
                       " at position ", first, " is outside the ", k,
                       "-symbol alphabet"))
          << record.label;
    }
  }
}

TEST(SuffixScanPropertyTest, MatchesNaiveReferenceMultinomial) {
  std::vector<OptionCase> option_cases;
  {
    SuffixScanOptions o;
    o.top_n = 0;
    o.collect_positions = true;
    option_cases.push_back({o, "maximal_all"});
    o.min_count = 2;
    option_cases.push_back({o, "maximal_min_count_2"});
    o.min_count = 1;
    o.max_length = 5;
    option_cases.push_back({o, "maximal_max_len_5"});
    o.maximal_only = false;
    o.max_length = 6;
    option_cases.push_back({o, "full_max_len_6"});
    o.min_length = 2;
    option_cases.push_back({o, "full_min_len_2"});
    // Top-N cuts the chunks' own heaps must merge into: one, a few, and
    // more than any record here has.
    SuffixScanOptions cut;
    cut.collect_positions = true;
    for (int64_t top_n : {int64_t{1}, int64_t{7}, int64_t{1} << 20}) {
      cut.top_n = top_n;
      option_cases.push_back({cut, StrCat("maximal_top_", top_n)});
    }
  }
  for (int k : {2, 4}) {
    seq::Rng rng(99 + static_cast<uint64_t>(k));
    std::vector<seq::Sequence> cases = AdversarialStrings(k);
    for (int64_t n : {16, 60, 120}) {
      cases.push_back(seq::GenerateNull(k, n, rng));
      cases.push_back(
          seq::GenerateMultinomial(seq::MultinomialModel::Geometric(k), n,
                                   rng));
    }
    ChiSquareContext uniform(seq::MultinomialModel::Uniform(k));
    ChiSquareContext geometric(seq::MultinomialModel::Geometric(k));
    for (const seq::Sequence& s : cases) {
      ASSERT_OK_AND_ASSIGN(SuffixScan scan,
                           SuffixScan::Build(s.symbols(), k));
      for (const ChiSquareContext& context : {uniform, geometric}) {
        for (const OptionCase& option_case : option_cases) {
          ASSERT_OK_AND_ASSIGN(
              SuffixScanResult want,
              NaiveAllSubstringsScan(s, context, option_case.options));
          ExpectEverySweepMatches(s, scan, context, option_case.options,
                                  want,
                                  option_case.label + " n=" +
                                      std::to_string(s.size()) +
                                      " k=" + std::to_string(k));
        }
      }
    }
    ExpectLongRecordsMatchNaive(
        k, k, geometric,
        [&](const seq::Sequence& s, const SuffixScanOptions& options) {
          return NaiveAllSubstringsScan(s, geometric, options);
        });
  }
}

TEST(SuffixScanPropertyTest, MatchesNaiveReferenceMarkov) {
  std::vector<OptionCase> option_cases;
  {
    SuffixScanOptions o;
    o.top_n = 0;
    o.min_length = 2;
    o.collect_positions = true;
    option_cases.push_back({o, "markov"});
    o.top_n = 1;
    option_cases.push_back({o, "markov_top_1"});
    o.top_n = 0;
    o.maximal_only = false;
    o.max_length = 6;
    option_cases.push_back({o, "markov_full_max_len_6"});
  }
  for (int k : {2, 4}) {
    seq::Rng rng(7 + static_cast<uint64_t>(k));
    seq::MarkovModel model = seq::MarkovModel::PaperFamily(k);
    ASSERT_OK_AND_ASSIGN(MarkovChiSquare context, MarkovChiSquare::Make(model));
    std::vector<seq::Sequence> cases = AdversarialStrings(k);
    cases.push_back(seq::GenerateMarkov(model, 80, rng));
    cases.push_back(seq::GenerateNull(k, 50, rng));
    for (const seq::Sequence& s : cases) {
      ASSERT_OK_AND_ASSIGN(SuffixScan scan,
                           SuffixScan::Build(s.symbols(), k));
      for (const OptionCase& option_case : option_cases) {
        ASSERT_OK_AND_ASSIGN(
            SuffixScanResult want,
            NaiveAllSubstringsScanMarkov(s, context, option_case.options));
        ExpectEverySweepMatches(
            s, scan, context, option_case.options, want,
            StrCat(option_case.label, " n=", s.size(), " k=", k));
      }
    }
    ExpectLongRecordsMatchNaive(
        k, k * k, context,
        [&](const seq::Sequence& s, const SuffixScanOptions& o) {
          return NaiveAllSubstringsScanMarkov(s, context, o);
        });
  }
}

TEST(SuffixScanPropertyTest, ParallelSweepMatchesOneChunk) {
  // Records past four sweep chunks (64 Ki symbols each; a sweep goes
  // parallel from two), through the public scans, which split the sweep
  // across the host's cores: each must report what the one-chunk sweep
  // reports, counters included. A random record, and a periodic one with
  // planted mutations, whose deep intervals span every chunk and whose
  // deep classes take their counts from the chunk-built checkpoint rows.
  constexpr int64_t kN = 4 * (int64_t{1} << 16) + 1234;
  constexpr int kK = 4;
  seq::Rng rng(16);
  struct Record {
    std::string label;
    seq::Sequence symbols;
  };
  std::vector<Record> records;
  records.push_back({"random", seq::GenerateNull(kK, kN, rng)});
  {
    const seq::Sequence unit = seq::GenerateNull(kK, 701, rng);
    std::vector<uint8_t> periodic(static_cast<size_t>(kN));
    for (int64_t i = 0; i < kN; ++i) periodic[i] = unit[i % unit.size()];
    for (int m = 0; m < 16; ++m) {
      const int64_t at = static_cast<int64_t>(rng.NextBounded(kN));
      periodic[at] = static_cast<uint8_t>((periodic[at] + 1) % kK);
    }
    records.push_back(
        {"periodic",
         seq::Sequence::FromSymbols(kK, std::move(periodic)).value()});
  }
  std::vector<OptionCase> option_cases;
  {
    SuffixScanOptions o;  // The hot-record bench's first query...
    o.top_n = 20;
    o.min_count = 2;
    option_cases.push_back({o, "top_20_min_count_2"});
    o.top_n = 10;  // ...and its distinct second one.
    o.min_length = 8;
    o.min_count = 3;
    option_cases.push_back({o, "top_10_min_length_8_min_count_3"});
    SuffixScanOptions leaves;
    leaves.top_n = 50;
    leaves.collect_positions = true;
    option_cases.push_back({leaves, "top_50_min_count_1_positions"});
    SuffixScanOptions threshold;  // Capped: every match is compared.
    threshold.top_n = 0;
    threshold.min_count = 2;
    threshold.max_length = 40;
    threshold.min_x2 = 12.0;
    option_cases.push_back({threshold, "top_0_min_x2_12_max_len_40"});
    SuffixScanOptions full;
    full.top_n = 100;
    full.maximal_only = false;
    full.max_length = 6;
    option_cases.push_back({full, "full_max_len_6"});
  }
  const ChiSquareContext uniform(seq::MultinomialModel::Uniform(kK));
  ASSERT_OK_AND_ASSIGN(MarkovChiSquare markov,
                       MarkovChiSquare::Make(seq::MarkovModel::PaperFamily(kK)));
  for (const Record& record : records) {
    const seq::Sequence& s = record.symbols;
    ASSERT_OK_AND_ASSIGN(SuffixScan scan, SuffixScan::Build(s.symbols(), kK));
    for (const OptionCase& option_case : option_cases) {
      auto check = [&](const auto& context, const std::string& model) {
        const std::string label =
            StrCat(record.label, " ", option_case.label, " ", model);
        ASSERT_OK_AND_ASSIGN(SuffixScanResult got,
                             PublicScan(scan, context, option_case.options));
        ASSERT_OK_AND_ASSIGN(SuffixScanResult one,
                             SuffixScanTestPeer::ScanInChunks(
                                 scan, context, option_case.options, 1));
        EXPECT_FALSE(one.classes.empty()) << label;
        ExpectSameResult(s, got, one, label);
        ExpectSameStats(got.stats, one.stats, label);
      };
      check(uniform, "multinomial");
      check(markov, "markov");
    }
  }
}

TEST(SuffixScanContractTest, MaximalOnlyReportsClassMaximalSubstrings) {
  // S = abab. Class-maximal means every one-symbol right extension occurs
  // strictly fewer times: {b, ab, bab, abab} qualify; a (→ab keeps count
  // 2), ba (→bab keeps count 1) and aba (→abab keeps count 1) do not.
  seq::Sequence s = FromPattern(2, "abab");
  ChiSquareContext context(seq::MultinomialModel::Uniform(2));
  ASSERT_OK_AND_ASSIGN(SuffixScan scan, SuffixScan::Build(s.symbols(), 2));
  SuffixScanOptions options;
  options.top_n = 0;
  ASSERT_OK_AND_ASSIGN(SuffixScanResult result, scan.Scan(context, options));
  std::vector<std::string> texts;
  std::vector<int64_t> counts;
  for (const SubstringClass& entry : result.classes) {
    texts.push_back(TextOf(s, entry.substring));
    counts.push_back(entry.count);
  }
  std::vector<std::pair<std::string, int64_t>> rows;
  for (size_t i = 0; i < texts.size(); ++i) {
    rows.emplace_back(texts[i], counts[i]);
  }
  std::sort(rows.begin(), rows.end());
  std::vector<std::pair<std::string, int64_t>> want = {
      {"ab", 2}, {"abab", 1}, {"b", 2}, {"bab", 1}};
  EXPECT_EQ(rows, want);
}

TEST(SuffixScanContractTest, TopNIsPrefixOfFullOrdering) {
  seq::Rng rng(42);
  seq::Sequence s = seq::GenerateNull(4, 200, rng);
  ChiSquareContext context(seq::MultinomialModel::Uniform(4));
  ASSERT_OK_AND_ASSIGN(SuffixScan scan, SuffixScan::Build(s.symbols(), 4));
  SuffixScanOptions all;
  all.top_n = 0;
  ASSERT_OK_AND_ASSIGN(SuffixScanResult full, scan.Scan(context, all));
  SuffixScanOptions top;
  top.top_n = 7;
  ASSERT_OK_AND_ASSIGN(SuffixScanResult cut, scan.Scan(context, top));
  ASSERT_EQ(cut.classes.size(), 7u);
  EXPECT_EQ(cut.match_count, full.match_count);
  for (size_t i = 0; i < cut.classes.size(); ++i) {
    EXPECT_EQ(cut.classes[i].substring.start, full.classes[i].substring.start);
    EXPECT_EQ(cut.classes[i].substring.end, full.classes[i].substring.end);
    EXPECT_EQ(cut.classes[i].substring.chi_square,
              full.classes[i].substring.chi_square);
  }
}

TEST(SuffixScanContractTest, ThresholdFiltersAndCounts) {
  seq::Rng rng(11);
  seq::Sequence s = seq::GenerateBiasedBinary(0.9, 300, rng);
  ChiSquareContext context(seq::MultinomialModel::Uniform(2));
  ASSERT_OK_AND_ASSIGN(SuffixScan scan, SuffixScan::Build(s.symbols(), 2));
  SuffixScanOptions all;
  all.top_n = 0;
  ASSERT_OK_AND_ASSIGN(SuffixScanResult full, scan.Scan(context, all));
  SuffixScanOptions thresholded = all;
  thresholded.min_x2 = 10.0;
  ASSERT_OK_AND_ASSIGN(SuffixScanResult cut, scan.Scan(context, thresholded));
  int64_t expected = 0;
  for (const SubstringClass& entry : full.classes) {
    if (entry.substring.chi_square >= 10.0) ++expected;
  }
  EXPECT_GT(expected, 0);
  EXPECT_EQ(cut.match_count, expected);
  EXPECT_EQ(static_cast<int64_t>(cut.classes.size()), expected);
  for (const SubstringClass& entry : cut.classes) {
    EXPECT_GE(entry.substring.chi_square, 10.0);
  }
}

TEST(SuffixScanMappedTest, DecodeTableMatchesDecodedBuild) {
  const std::string text = "ACGTACGTGGGTTTACGT";
  seq::Alphabet alphabet = seq::Alphabet::FromCharacters("ACGT").value();
  ASSERT_OK_AND_ASSIGN(seq::Sequence s,
                       seq::Sequence::FromString(alphabet, text));
  std::array<uint8_t, 256> decode;
  decode.fill(0xFF);
  decode[static_cast<uint8_t>('A')] = 0;
  decode[static_cast<uint8_t>('C')] = 1;
  decode[static_cast<uint8_t>('G')] = 2;
  decode[static_cast<uint8_t>('T')] = 3;
  std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(text.data()), text.size());
  ASSERT_OK_AND_ASSIGN(SuffixScan mapped,
                       SuffixScan::BuildMapped(bytes, decode, 4));
  ASSERT_OK_AND_ASSIGN(SuffixScan decoded, SuffixScan::Build(s.symbols(), 4));
  ChiSquareContext context(seq::MultinomialModel::Uniform(4));
  SuffixScanOptions options;
  options.top_n = 0;
  options.collect_positions = true;
  ASSERT_OK_AND_ASSIGN(SuffixScanResult a, mapped.Scan(context, options));
  ASSERT_OK_AND_ASSIGN(SuffixScanResult b, decoded.Scan(context, options));
  ExpectSameResult(s, a, b, "mapped vs decoded");
}

TEST(SuffixScanEdgeTest, EmptyAndTinyRecords) {
  ChiSquareContext context(seq::MultinomialModel::Uniform(2));
  SuffixScanOptions options;
  options.top_n = 0;
  {
    std::vector<uint8_t> empty;
    ASSERT_OK_AND_ASSIGN(SuffixScan scan, SuffixScan::Build(empty, 2));
    ASSERT_OK_AND_ASSIGN(SuffixScanResult result, scan.Scan(context, options));
    EXPECT_TRUE(result.classes.empty());
    EXPECT_EQ(result.match_count, 0);
  }
  {
    std::vector<uint8_t> one = {1};
    ASSERT_OK_AND_ASSIGN(SuffixScan scan, SuffixScan::Build(one, 2));
    ASSERT_OK_AND_ASSIGN(SuffixScanResult result, scan.Scan(context, options));
    ASSERT_EQ(result.classes.size(), 1u);
    EXPECT_EQ(result.classes[0].substring.start, 0);
    EXPECT_EQ(result.classes[0].substring.end, 1);
    EXPECT_EQ(result.classes[0].count, 1);
  }
}

TEST(SuffixScanEdgeTest, RejectsBadOptionsAndMismatchedAlphabet) {
  std::vector<uint8_t> symbols = {0, 1, 0, 1};
  ASSERT_OK_AND_ASSIGN(SuffixScan scan, SuffixScan::Build(symbols, 2));
  ChiSquareContext context(seq::MultinomialModel::Uniform(2));
  {
    SuffixScanOptions options;
    options.min_length = 0;
    EXPECT_FALSE(scan.Scan(context, options).ok());
  }
  {
    SuffixScanOptions options;
    options.min_count = 0;
    EXPECT_FALSE(scan.Scan(context, options).ok());
  }
  {
    SuffixScanOptions options;
    options.min_length = 4;
    options.max_length = 2;
    EXPECT_FALSE(scan.Scan(context, options).ok());
  }
  {
    SuffixScanOptions options;
    options.top_n = -1;
    EXPECT_FALSE(scan.Scan(context, options).ok());
  }
  ChiSquareContext wrong(seq::MultinomialModel::Uniform(4));
  EXPECT_FALSE(scan.Scan(wrong, SuffixScanOptions()).ok());
  EXPECT_FALSE(
      SuffixScan::Build(symbols, 1).ok());  // Alphabet too small.
  std::vector<uint8_t> bad = {0, 3, 0};
  EXPECT_FALSE(SuffixScan::Build(bad, 2).ok());  // Symbol out of range.
}

TEST(SuffixScanStatsTest, ReportsIndexFootprint) {
  seq::Rng rng(5);
  seq::Sequence s = seq::GenerateNull(4, 512, rng);
  ASSERT_OK_AND_ASSIGN(SuffixScan scan, SuffixScan::Build(s.symbols(), 4));
  EXPECT_EQ(scan.index_bytes(), 512 * 8);
  EXPECT_GT(scan.peak_index_bytes(), 0);
  ChiSquareContext context(seq::MultinomialModel::Uniform(4));
  SuffixScanOptions options;
  ASSERT_OK_AND_ASSIGN(SuffixScanResult result, scan.Scan(context, options));
  EXPECT_GT(result.stats.classes_enumerated, 0);
  EXPECT_GT(result.stats.candidates_scored, 0);
  EXPECT_EQ(result.stats.index_bytes, scan.index_bytes());
  EXPECT_EQ(result.stats.peak_index_bytes, scan.peak_index_bytes());
}

TEST(SuffixScanStatsTest, LabelWorkIsLinearInTheClassCount) {
  // A periodic record, whose every internal class is as deep as its
  // position allows, at min_count 2, and a random record at min_count 1,
  // whose every leaf is as deep as its suffix: the symbols read to form
  // class counts stay within 4·(step + cells) per class.
  constexpr int64_t kN = 200000;
  constexpr int kK = 4;
  std::vector<uint8_t> periodic(static_cast<size_t>(kN));
  for (int64_t i = 0; i < kN; ++i) periodic[i] = static_cast<uint8_t>(i % kK);
  seq::Rng rng(200);
  seq::Sequence random = seq::GenerateNull(kK, kN, rng);
  ChiSquareContext uniform(seq::MultinomialModel::Uniform(kK));
  ASSERT_OK_AND_ASSIGN(MarkovChiSquare markov,
                       MarkovChiSquare::Make(seq::MarkovModel::PaperFamily(kK)));
  struct Case {
    std::span<const uint8_t> symbols;
    int64_t min_count;
    std::string label;
  };
  for (const Case& c : {Case{periodic, 2, "periodic"},
                        Case{random.symbols(), 1, "random"}}) {
    ASSERT_OK_AND_ASSIGN(SuffixScan scan, SuffixScan::Build(c.symbols, kK));
    SuffixScanOptions options;
    options.min_count = c.min_count;
    for (int64_t cells : {kK, kK * kK}) {
      ASSERT_OK_AND_ASSIGN(SuffixScanResult result,
                           cells == kK ? scan.Scan(uniform, options)
                                       : scan.ScanMarkov(markov, options));
      const SuffixScanStats& stats = result.stats;
      EXPECT_GT(stats.classes_enumerated, 0) << c.label;
      EXPECT_LE(stats.label_symbols,
                4 * (SuffixScan::LabelCheckpointStep(cells) + cells) *
                    stats.classes_enumerated)
          << c.label << " cells=" << cells;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
