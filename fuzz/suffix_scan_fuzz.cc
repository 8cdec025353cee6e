// libFuzzer harness for the all-substrings suffix scan: a differential
// check of SuffixScan against its brute-force references. The input is
// run-length encoded so that a few dozen bytes expand to records of a few
// hundred symbols, long and repetitive enough for classes deeper than
// 2·step, where the sweep switches from reading labels to the sampled
// prefix counts:
//
//   byte 0   alphabet size k = 2 + b % 5; bit 7 picks the skewed
//            (geometric) multinomial null over the uniform one
//   byte 1   bit 0 maximal_only, bit 1 collect_positions,
//            min_count = 1 + (b >> 2) % 3, min_length = 1 + (b >> 4)
//   byte 2   top_n = b % 32 (0 keeps every match); max_length = 0 when
//            b < 128, else min_length + (b >> 5) % 4 * 8
//   byte 3   the sweep is also run split into 1 + b % 64 rank chunks
//            (SuffixScanTestPeer), so chunk boundaries fall inside the
//            deep intervals of these small records
//   then pairs (a, b):
//     a < 128  a run of symbol a % k, 1 + b % 64 long
//     a >= 128 repeat the last u = 1 + (a & 127) + 128·(b & 3) symbols
//              1 + (b >> 2) times (u clipped to the record so far)
//
// Records stop growing at kMaxSymbols (the naive references are
// quadratic). Checked on every input:
//
//   Scan == NaiveAllSubstringsScan              (multinomial null)
//   ScanMarkov == NaiveAllSubstringsScanMarkov  (paper's Markov family)
//   Build and BuildMapped give the same SA, LCP and scan results
//   the chunked sweep == the naive reference, with the one-chunk
//   sweep's counters (classes, candidates, label symbols)
//
// Every field must match bit for bit: both sides count with integers and
// score through the same kernels.
//
// Built behind -DSIGSUB_FUZZERS=ON: with clang this links libFuzzer
// (-fsanitize=fuzzer); elsewhere fuzz/standalone_driver.cc replays the
// committed corpus (fuzz/corpus/suffix_scan) as a ctest regression.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/chi_square.h"
#include "core/markov_scan.h"
#include "core/suffix_scan.h"
#include "seq/model.h"
#include "seq/sequence.h"
#include "testing/suffix_scan_peer.h"

namespace core = sigsub::core;
namespace seq = sigsub::seq;

namespace {

constexpr size_t kMaxSymbols = 400;

std::vector<uint8_t> DecodeRecord(std::span<const uint8_t> pairs, int k) {
  std::vector<uint8_t> record;
  for (size_t i = 0; i + 1 < pairs.size() && record.size() < kMaxSymbols;
       i += 2) {
    const uint8_t a = pairs[i];
    const uint8_t b = pairs[i + 1];
    if (a < 128) {
      record.insert(record.end(), 1 + b % 64, static_cast<uint8_t>(a % k));
      continue;
    }
    const size_t unit =
        std::min<size_t>(1 + (a & 127) + 128 * (b & 3), record.size());
    const size_t times = 1 + (b >> 2);
    for (size_t t = 0; t < times && record.size() < kMaxSymbols; ++t) {
      const size_t from = record.size() - unit;
      for (size_t j = 0; j < unit; ++j) record.push_back(record[from + j]);
    }
  }
  if (record.size() > kMaxSymbols) record.resize(kMaxSymbols);
  return record;
}

void CheckSame(const core::SuffixScanResult& a,
               const core::SuffixScanResult& b) {
  SIGSUB_CHECK(a.match_count == b.match_count);
  SIGSUB_CHECK(a.classes.size() == b.classes.size());
  for (size_t i = 0; i < a.classes.size(); ++i) {
    const core::SubstringClass& x = a.classes[i];
    const core::SubstringClass& y = b.classes[i];
    SIGSUB_CHECK(x.substring.start == y.substring.start);
    SIGSUB_CHECK(x.substring.end == y.substring.end);
    SIGSUB_CHECK(x.substring.chi_square == y.substring.chi_square);
    SIGSUB_CHECK(x.count == y.count);
    SIGSUB_CHECK(x.p_value == y.p_value);
  }
  SIGSUB_CHECK(a.positions == b.positions);
}

/// Checks the sweep split into `chunks` against `want` and against the
/// one-chunk sweep's counters.
template <typename Context>
void CheckChunked(const core::SuffixScan& scan, const Context& context,
                  const core::SuffixScanOptions& options, int chunks,
                  const core::SuffixScanResult& want) {
  auto one =
      core::SuffixScanTestPeer::ScanInChunks(scan, context, options, 1);
  auto split =
      core::SuffixScanTestPeer::ScanInChunks(scan, context, options, chunks);
  SIGSUB_CHECK(one.ok() && split.ok());
  CheckSame(*one, want);
  CheckSame(*split, want);
  SIGSUB_CHECK(split->stats.classes_enumerated ==
               one->stats.classes_enumerated);
  SIGSUB_CHECK(split->stats.candidates_scored ==
               one->stats.candidates_scored);
  SIGSUB_CHECK(split->stats.label_symbols == one->stats.label_symbols);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 4) return 0;
  const int k = 2 + data[0] % 5;
  core::SuffixScanOptions options;
  options.maximal_only = (data[1] & 1) != 0;
  options.collect_positions = (data[1] & 2) != 0;
  options.min_count = 1 + (data[1] >> 2) % 3;
  options.min_length = 1 + (data[1] >> 4);
  options.top_n = data[2] % 32;
  options.max_length =
      data[2] < 128 ? 0 : options.min_length + (data[2] >> 5) % 4 * 8;
  const int chunks = 1 + data[3] % 64;

  std::vector<uint8_t> symbols =
      DecodeRecord(std::span<const uint8_t>(data + 4, size - 4), k);
  std::vector<uint8_t> text;
  for (uint8_t symbol : symbols) text.push_back('a' + symbol);
  std::array<uint8_t, 256> decode;
  decode.fill(0xFF);
  for (int c = 0; c < k; ++c) decode['a' + c] = static_cast<uint8_t>(c);

  auto sequence = seq::Sequence::FromSymbols(k, symbols);
  auto decoded = core::SuffixScan::Build(symbols, k);
  auto mapped = core::SuffixScan::BuildMapped(text, decode, k);
  SIGSUB_CHECK(sequence.ok() && decoded.ok() && mapped.ok());
  SIGSUB_CHECK(std::ranges::equal(decoded->suffix_array(),
                                  mapped->suffix_array()));
  SIGSUB_CHECK(std::ranges::equal(decoded->lcp_array(), mapped->lcp_array()));

  const core::ChiSquareContext multinomial(
      (data[0] & 128) != 0 ? seq::MultinomialModel::Geometric(k)
                           : seq::MultinomialModel::Uniform(k));
  auto want = core::NaiveAllSubstringsScan(*sequence, multinomial, options);
  SIGSUB_CHECK(want.ok());
  for (const core::SuffixScan* scan : {&*decoded, &*mapped}) {
    auto got = scan->Scan(multinomial, options);
    SIGSUB_CHECK(got.ok());
    CheckSame(*got, *want);
  }
  CheckChunked(*decoded, multinomial, options, chunks, *want);

  auto markov = core::MarkovChiSquare::Make(seq::MarkovModel::PaperFamily(k));
  SIGSUB_CHECK(markov.ok());
  auto want_markov =
      core::NaiveAllSubstringsScanMarkov(*sequence, *markov, options);
  SIGSUB_CHECK(want_markov.ok());
  for (const core::SuffixScan* scan : {&*decoded, &*mapped}) {
    auto got = scan->ScanMarkov(*markov, options);
    SIGSUB_CHECK(got.ok());
    CheckSame(*got, *want_markov);
  }
  CheckChunked(*decoded, *markov, options, chunks, *want_markov);
  return 0;
}
