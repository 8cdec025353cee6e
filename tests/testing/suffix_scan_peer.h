#ifndef SIGSUB_TESTS_TESTING_SUFFIX_SCAN_PEER_H_
#define SIGSUB_TESTS_TESTING_SUFFIX_SCAN_PEER_H_

#include "common/result.h"
#include "core/suffix_scan.h"

namespace sigsub {
namespace core {

/// Test access to SuffixScan's chunked sweep. Scan and ScanMarkov split
/// the sweep into rank chunks only for records of at least 2·64 Ki
/// symbols; ScanInChunks forces exactly `chunks` (1..64) chunks, run on a
/// pool of at least one thread besides the caller, onto any record, so
/// small records can put chunk boundaries inside deep intervals.
class SuffixScanTestPeer {
 public:
  /// `context` is a ChiSquareContext (as Scan) or a MarkovChiSquare (as
  /// ScanMarkov).
  template <typename Context>
  static Result<SuffixScanResult> ScanInChunks(
      const SuffixScan& scan, const Context& context,
      const SuffixScanOptions& options, int chunks) {
    return scan.ScanModel(context, options, chunks);
  }
};

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_TESTS_TESTING_SUFFIX_SCAN_PEER_H_
