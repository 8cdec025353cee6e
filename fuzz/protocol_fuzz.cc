// libFuzzer harness for server::protocol::ParseRequest — the daemon's
// untrusted network surface. Every byte string a TCP client could send
// as a request line goes through here, so the parser must never crash,
// overflow, or leak whatever the bytes are; when it does accept a line,
// the accepted request must survive the protocol's own round trips, and
// an accepted STREAM.CREATE must build (or refuse) its detector cleanly.
//
// Built behind -DSIGSUB_FUZZERS=ON: with clang this links libFuzzer
// (-fsanitize=fuzzer); elsewhere fuzz/standalone_driver.cc replays the
// committed corpus (fuzz/corpus/protocol) as a ctest regression.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "api/serde.h"
#include "common/check.h"
#include "core/chi_square.h"
#include "core/streaming.h"
#include "server/protocol.h"

namespace protocol = sigsub::server::protocol;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  // The framing layer first: feed the raw bytes through ExtractLine the
  // way the I/O thread would, then parse every complete line.
  std::string buffer(input);
  while (auto line = protocol::ExtractLine(&buffer)) {
    (void)protocol::ParseRequest(*line);
  }

  // Then the whole input as one line (what ParseRequest sees when the
  // newline arrives later).
  auto parsed = protocol::ParseRequest(input);
  if (!parsed.ok()) return 0;

  // Accepted requests must round-trip through the protocol's own
  // formatters without tripping a check.
  switch (parsed->kind) {
    case protocol::CommandKind::kQuery: {
      // The embedded QuerySpec must re-parse from its canonical form to
      // the same spec (the api/serde.h contract).
      auto reparsed = sigsub::api::ParseQuery(
          sigsub::api::FormatQuery(parsed->query));
      SIGSUB_CHECK(reparsed.ok());
      SIGSUB_CHECK(*reparsed == parsed->query);
      break;
    }
    case protocol::CommandKind::kStreamCreate: {
      // Build the detector the way the server would. Hostile options
      // (a window past core::kMaxWindow) must come back as a Status,
      // never a hang, an abort or an allocation of the whole ring.
      auto context = sigsub::core::ChiSquareContext::Make(parsed->probs);
      if (!context.ok()) break;
      (void)sigsub::core::StreamingDetector::Make(
          std::make_shared<const sigsub::core::ChiSquareContext>(
              std::move(context).value()),
          parsed->detector);
      break;
    }
    case protocol::CommandKind::kStreamAppend: {
      // Symbol payloads round-trip through the text codec.
      auto decoded = protocol::DecodeSymbols(
          protocol::EncodeSymbols(parsed->symbols));
      SIGSUB_CHECK(decoded.ok());
      SIGSUB_CHECK(*decoded == parsed->symbols);
      break;
    }
    default:
      break;
  }
  return 0;
}
