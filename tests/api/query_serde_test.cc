#include "api/serde.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "api/query.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace sigsub {
namespace api {
namespace {

/// One spec per kernel variant with non-default values, plus model
/// variants — the round-trip corpus.
std::vector<QuerySpec> RepresentativeSpecs() {
  std::vector<QuerySpec> specs;
  auto add = [&](int64_t seq, ModelSpec model, QueryRequest request) {
    QuerySpec spec;
    spec.sequence_index = seq;
    spec.model = std::move(model);
    spec.request = std::move(request);
    specs.push_back(std::move(spec));
  };
  add(0, ModelSpec::Uniform(), MssQuery{});
  add(3, ModelSpec::Multinomial({0.25, 0.75}), MssQuery{});
  add(1, ModelSpec::Markov({0.9, 0.1, 0.1, 0.9}), MssQuery{});
  add(0, ModelSpec::Markov({0.9, 0.1, 0.1, 0.9}, {0.3, 0.7}), MssQuery{});
  add(2, ModelSpec::Uniform(), TopTQuery{7});
  add(0, ModelSpec::Uniform(), TopDisjointQuery{5, 4, 2.5});
  add(0, ModelSpec::Uniform(), ThresholdQuery{12.5, -1.0, 100});
  add(0, ModelSpec::Uniform(), ThresholdQuery{-1.0, 0.001,
                                              std::numeric_limits<int64_t>::max()});
  add(0, ModelSpec::Uniform(), ThresholdQuery{3.0, 0.01, 50});
  add(4, ModelSpec::Uniform(), MinLengthQuery{64});
  add(0, ModelSpec::Uniform(), LengthBoundedQuery{8, 128});
  add(0, ModelSpec::Uniform(), LengthBoundedQuery{8, 0});
  add(0, ModelSpec::Multinomial({0.5, 0.25, 0.25}), ArlmQuery{});
  add(0, ModelSpec::Uniform(), AgmmQuery{});
  add(0, ModelSpec::Uniform(), BlockedQuery{32});
  add(0, ModelSpec::Uniform(), SubstringsQuery{});
  add(2, ModelSpec::Uniform(), SubstringsQuery{0, 2, 16, 1, true, 9.5, -1.0});
  add(0, ModelSpec::Uniform(),
      SubstringsQuery{25, 3, 12, 4, false, -1.0, 0.001});
  add(0, ModelSpec::Markov({0.9, 0.1, 0.1, 0.9}),
      SubstringsQuery{5, 1, 0, 2, true, -1.0, -1.0});
  // Doubles that need shortest-round-trip printing to survive.
  add(0, ModelSpec::Multinomial({1.0 / 3.0, 2.0 / 3.0}), TopTQuery{2});
  add(0, ModelSpec::Uniform(), ThresholdQuery{-1.0, 1e-12,
                                              std::numeric_limits<int64_t>::max()});
  return specs;
}

TEST(QuerySerdeTest, CompactRoundTripsEveryKernelVariant) {
  for (const QuerySpec& spec : RepresentativeSpecs()) {
    const std::string text = FormatQuery(spec);
    ASSERT_OK_AND_ASSIGN(QuerySpec parsed, ParseQuery(text));
    EXPECT_EQ(parsed, spec) << text;
    // Formatting is canonical: re-serializing the parse is a fixpoint.
    EXPECT_EQ(FormatQuery(parsed), text);
  }
}

TEST(QuerySerdeTest, JsonRoundTripsEveryKernelVariant) {
  for (const QuerySpec& spec : RepresentativeSpecs()) {
    const std::string json = FormatQueryJson(spec);
    ASSERT_OK_AND_ASSIGN(QuerySpec parsed, ParseQuery(json));
    EXPECT_EQ(parsed, spec) << json;
    // Both forms describe the same canonical content.
    EXPECT_EQ(FormatQuery(parsed), FormatQuery(spec));
  }
}

TEST(QuerySerdeTest, KnownSpellings) {
  QuerySpec spec;
  spec.sequence_index = 2;
  spec.request = TopTQuery{5};
  spec.model = ModelSpec::Multinomial({0.25, 0.75});
  EXPECT_EQ(FormatQuery(spec), "topt:seq=2,t=5,model=probs(0.25;0.75)");
  EXPECT_EQ(FormatQueryJson(spec),
            "{\"kind\":\"topt\",\"seq\":2,\"t\":5,"
            "\"model\":{\"kind\":\"multinomial\",\"probs\":[0.25,0.75]}}");
  EXPECT_EQ(CanonicalQueryKey(spec), "topt:t=5,model=probs(0.25;0.75)");
}

TEST(QuerySerdeTest, SubstringsKnownSpellings) {
  QuerySpec spec;
  spec.request = SubstringsQuery{};
  EXPECT_EQ(FormatQuery(spec),
            "substrings:seq=0,top=10,min_length=1,max_length=0,min_count=2,"
            "maximal=1,model=uniform");
  EXPECT_EQ(FormatQueryJson(spec),
            "{\"kind\":\"substrings\",\"seq\":0,\"top\":10,\"min_length\":1,"
            "\"max_length\":0,\"min_count\":2,\"maximal\":1,"
            "\"model\":{\"kind\":\"uniform\"}}");
  // Omitted fields keep defaults; the significance gates only appear
  // in the canonical form once set.
  ASSERT_OK_AND_ASSIGN(QuerySpec partial,
                       ParseQuery("substrings:top=3,alpha_p=0.01"));
  const auto& q = std::get<SubstringsQuery>(partial.request);
  EXPECT_EQ(q.top, 3);
  EXPECT_EQ(q.min_count, 2);
  EXPECT_TRUE(q.maximal);
  EXPECT_EQ(q.alpha_p, 0.01);
  EXPECT_EQ(FormatQuery(partial),
            "substrings:seq=0,top=3,min_length=1,max_length=0,min_count=2,"
            "maximal=1,alpha_p=0.01,model=uniform");
}

TEST(QuerySerdeTest, ParseAcceptsDefaultsAndWhitespace) {
  ASSERT_OK_AND_ASSIGN(QuerySpec bare, ParseQuery("mss"));
  EXPECT_EQ(bare, QuerySpec{});
  ASSERT_OK_AND_ASSIGN(QuerySpec spaced,
                       ParseQuery("  topt: seq = 1 , t = 3 "));
  EXPECT_EQ(spaced.sequence_index, 1);
  EXPECT_EQ(std::get<TopTQuery>(spaced.request).t, 3);
  // Omitted fields keep their defaults.
  ASSERT_OK_AND_ASSIGN(QuerySpec partial, ParseQuery("blocked:seq=2"));
  EXPECT_EQ(std::get<BlockedQuery>(partial.request).block_size, 64);
}

TEST(QuerySerdeTest, MalformedInputsAreNamedErrors) {
  struct Case {
    const char* text;
    const char* needle;  // Must appear in the error message.
  };
  const Case cases[] = {
      {"", "empty query"},
      {"bogus:seq=0", "unknown query kind"},
      {"mss:seq=0,t=3", "no field \"t\""},
      {"topt:t=abc", "expects an integer"},
      {"topt:t=3,t=4", "duplicate query field"},
      {"topt:t", "missing '='"},
      {"threshold:alpha0=1e", "expects a number"},
      {"mss:seq=0,model=probs(0.5;x)", "model.probs"},
      {"mss:seq=0,model=mystery(1)", "unknown model"},
      {"mss:model=probs(0.5;0.5", "missing ')'"},
      {"{\"kind\":\"topt\",\"t\":}", "malformed JSON"},
      {"{\"kind\":\"topt\"", "malformed JSON"},
      {"{\"seq\":0}", "needs a string \"kind\""},
      {"{\"kind\":\"topt\",\"t\":3,\"t\":4}", "duplicate key"},
      {"{\"kind\":\"mss\",\"model\":{\"kind\":\"markov\"}}",
       "needs \"transitions\""},
      {"{\"kind\":\"mss\",\"model\":{\"kind\":\"uniform\",\"probs\":[1]}}",
       "no field \"probs\""},
      {"substrings:maximal=2", "maximal must be 0 or 1"},
      {"substrings:maximal=yes", "expects an integer"},
      {"substrings:t=3", "no field \"t\""},
      {"{\"kind\":\"substrings\",\"maximal\":7}", "maximal must be 0 or 1"},
  };
  for (const Case& c : cases) {
    auto result = ParseQuery(c.text);
    ASSERT_FALSE(result.ok()) << c.text;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << c.text;
    EXPECT_NE(result.status().message().find(c.needle), std::string::npos)
        << c.text << " -> " << result.status().message();
  }
}

TEST(QuerySerdeTest, DistinctCanonicalFormsGetDistinctFingerprints) {
  // Every pair of distinct canonical keys must land on distinct cache
  // fingerprints (64-bit FNV-1a collisions across a small set would
  // indicate a hashing bug, not bad luck).
  std::vector<QuerySpec> specs = RepresentativeSpecs();
  // Parameter tweaks that differ only in which cutoff field is set.
  {
    QuerySpec a;
    a.request = ThresholdQuery{5.0, -1.0, std::numeric_limits<int64_t>::max()};
    QuerySpec b;
    b.request = ThresholdQuery{-1.0, 0.5,
                               std::numeric_limits<int64_t>::max()};
    specs.push_back(a);
    specs.push_back(b);  // alpha0=5 vs alpha_p=0.5 must differ.
  }
  std::set<std::string> keys;
  std::set<uint64_t> fingerprints;
  for (const QuerySpec& spec : specs) {
    keys.insert(CanonicalQueryKey(spec));
    fingerprints.insert(FingerprintQuery(spec));
  }
  EXPECT_EQ(keys.size(), fingerprints.size());

  // Every parameter perturbs the fingerprint; the sequence index never
  // does (record identity lives in the sequence fingerprint).
  QuerySpec base;
  base.request = TopTQuery{5};
  QuerySpec other_t = base;
  other_t.request = TopTQuery{6};
  QuerySpec other_seq = base;
  other_seq.sequence_index = 9;
  EXPECT_NE(FingerprintQuery(base), FingerprintQuery(other_t));
  EXPECT_EQ(FingerprintQuery(base), FingerprintQuery(other_seq));

  QuerySpec skewed = base;
  skewed.model = ModelSpec::Multinomial({0.8, 0.2});
  EXPECT_NE(FingerprintQuery(base), FingerprintQuery(skewed));
}

TEST(QuerySerdeTest, EveryKindNameParses) {
  for (QueryKind kind :
       {QueryKind::kMss, QueryKind::kTopT, QueryKind::kTopDisjoint,
        QueryKind::kThreshold, QueryKind::kMinLength,
        QueryKind::kLengthBounded, QueryKind::kArlm, QueryKind::kAgmm,
        QueryKind::kBlocked, QueryKind::kSubstrings}) {
    ASSERT_OK_AND_ASSIGN(QueryKind parsed,
                         ParseQueryKind(QueryKindToString(kind)));
    EXPECT_EQ(parsed, kind);
    ASSERT_OK_AND_ASSIGN(QuerySpec spec,
                         ParseQuery(std::string(QueryKindToString(kind))));
    EXPECT_EQ(spec.kind(), kind);
  }
  EXPECT_TRUE(ParseQueryKind("mystery").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Malformed-input regressions mirroring fuzz/serde_fuzz.cc: any byte
// string is either rejected with a status or accepted with all four
// serde invariants holding (text round trip, JSON round trip, canonical
// fixpoint, fingerprint agreement) — never a crash.

void CheckSerdeInvariants(const std::string& input,
                          const std::string& label) {
  auto parsed = ParseQuery(input);
  if (!parsed.ok()) return;
  const std::string canonical = FormatQuery(*parsed);
  auto from_text = ParseQuery(canonical);
  ASSERT_TRUE(from_text.ok()) << label;
  EXPECT_EQ(*from_text, *parsed) << label;
  EXPECT_EQ(FormatQuery(*from_text), canonical) << label;
  auto from_json = ParseQuery(FormatQueryJson(*parsed));
  ASSERT_TRUE(from_json.ok()) << label;
  EXPECT_EQ(*from_json, *parsed) << label;
  EXPECT_EQ(FingerprintQuery(*from_text), FingerprintQuery(*parsed))
      << label;
}

TEST(QuerySerdeMalformedTest, TruncatedSpellingsAreRejectedNotFatal) {
  for (const char* input :
       {"", " ", "mss model=", "topt t=", "threshold x2=",
        "mss model=multinomial(", "mss model=multinomial(0.5;",
        "{", "{\"kind\"", "{\"kind\":", "{\"kind\":\"mss\"",
        "{\"kind\":\"mss\",\"model\":{", "minlen l="}) {
    CheckSerdeInvariants(input, input);
  }
}

TEST(QuerySerdeMalformedTest, OverlongFieldsAreRejectedNotFatal) {
  std::string many_probs = "mss model=multinomial(";
  for (int i = 0; i < 2000; ++i) many_probs += "0.0005;";
  many_probs.back() = ')';
  CheckSerdeInvariants(many_probs, "2000 probs");
  CheckSerdeInvariants("topt t=" + std::string(400, '9'), "huge t");
  CheckSerdeInvariants(
      "threshold x2=1e" + std::string(64, '9'), "huge exponent");
  CheckSerdeInvariants(std::string(1 << 16, 'm'), "64KiB of m");
}

TEST(QuerySerdeMalformedTest, NonUtf8BytesAreRejectedNotFatal) {
  const std::string raw{"mss \xff\xfe model=\x80uniform\x00()", 24};
  CheckSerdeInvariants(raw, "embedded non-UTF-8");
  EXPECT_FALSE(ParseQuery(raw).ok());
}

TEST(QuerySerdeMalformedTest, NestedParenAbuseTerminates) {
  std::string bomb = "mss model=";
  for (int i = 0; i < 128; ++i) bomb += "markov(";
  CheckSerdeInvariants(bomb, "unclosed markov nest");
  EXPECT_FALSE(ParseQuery(bomb).ok());
  std::string json_bomb = "{\"model\":";
  for (int i = 0; i < 128; ++i) json_bomb += "{\"model\":";
  CheckSerdeInvariants(json_bomb, "unclosed JSON nest");
  EXPECT_FALSE(ParseQuery(json_bomb).ok());
}

// Replays every committed fuzz seed input through the serde invariants,
// so the corpus gates every build, not just fuzzer builds.
TEST(QuerySerdeMalformedTest, FuzzSeedCorpusReplays) {
  const std::filesystem::path dir =
      std::filesystem::path(SIGSUB_FUZZ_CORPUS_DIR) / "serde";
  ASSERT_TRUE(std::filesystem::is_directory(dir))
      << "missing corpus dir " << dir;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string input{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    CheckSerdeInvariants(input, entry.path().string());
    ++replayed;
  }
  EXPECT_GE(replayed, 20) << "corpus unexpectedly small in " << dir;
}

}  // namespace
}  // namespace api
}  // namespace sigsub
