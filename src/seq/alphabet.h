#ifndef SIGSUB_SEQ_ALPHABET_H_
#define SIGSUB_SEQ_ALPHABET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace sigsub {
namespace seq {

/// Symbol identifier: index into an Alphabet, 0 <= Symbol < k <= 255.
using Symbol = uint8_t;

/// A finite alphabet Σ = {a_1..a_k}. Maps between printable characters and
/// dense symbol ids. The paper treats k as a constant; we support k up to
/// 255.
class Alphabet {
 public:
  /// Builds an alphabet from distinct printable characters, e.g. "ACGT".
  static Result<Alphabet> FromCharacters(std::string_view chars);

  /// The k-letter alphabet {'a','b',...}; requires 2 <= k <= 26 for
  /// printable mapping, otherwise falls back to ids without glyphs.
  static Alphabet Canonical(int k);

  /// The binary alphabet {'0','1'}.
  static Alphabet Binary();

  int size() const { return static_cast<int>(chars_.size()); }

  /// Character glyph of symbol `s` (requires s < size()).
  char CharOf(Symbol s) const;

  /// Symbol id of character `c`; NotFound if absent.
  Result<Symbol> SymbolOf(char c) const;

  /// All glyphs in symbol order.
  const std::string& characters() const { return chars_; }

 private:
  explicit Alphabet(std::string chars);

  std::string chars_;
  // lookup_[byte] = symbol id or -1.
  std::vector<int16_t> lookup_;
};

}  // namespace seq
}  // namespace sigsub

#endif  // SIGSUB_SEQ_ALPHABET_H_
