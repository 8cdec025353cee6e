#include "seq/alphabet.h"

#include "gtest/gtest.h"

namespace sigsub {
namespace seq {
namespace {

TEST(AlphabetTest, FromCharactersBasics) {
  auto result = Alphabet::FromCharacters("ACGT");
  ASSERT_TRUE(result.ok());
  const Alphabet& a = result.value();
  EXPECT_EQ(a.size(), 4);
  EXPECT_EQ(a.CharOf(0), 'A');
  EXPECT_EQ(a.CharOf(3), 'T');
  EXPECT_EQ(a.characters(), "ACGT");
}

TEST(AlphabetTest, SymbolLookup) {
  auto a = Alphabet::FromCharacters("ACGT").value();
  EXPECT_EQ(a.SymbolOf('A').value(), 0);
  EXPECT_EQ(a.SymbolOf('G').value(), 2);
  EXPECT_TRUE(a.SymbolOf('X').status().IsNotFound());
}

TEST(AlphabetTest, RejectsTooSmall) {
  EXPECT_TRUE(Alphabet::FromCharacters("").status().IsInvalidArgument());
  EXPECT_TRUE(Alphabet::FromCharacters("a").status().IsInvalidArgument());
}

TEST(AlphabetTest, RejectsDuplicates) {
  EXPECT_TRUE(Alphabet::FromCharacters("abca").status().IsInvalidArgument());
}

TEST(AlphabetTest, BinaryAlphabet) {
  Alphabet b = Alphabet::Binary();
  EXPECT_EQ(b.size(), 2);
  EXPECT_EQ(b.CharOf(0), '0');
  EXPECT_EQ(b.CharOf(1), '1');
}

TEST(AlphabetTest, CanonicalSmall) {
  Alphabet c = Alphabet::Canonical(5);
  EXPECT_EQ(c.size(), 5);
  EXPECT_EQ(c.characters(), "abcde");
  EXPECT_EQ(c.SymbolOf('c').value(), 2);
}

TEST(AlphabetTest, CanonicalLargeUsesRawBytes) {
  Alphabet c = Alphabet::Canonical(100);
  EXPECT_EQ(c.size(), 100);
  // Symbols still map uniquely.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c.SymbolOf(c.CharOf(static_cast<Symbol>(i))).value(), i);
  }
}

TEST(AlphabetTest, NonAsciiCharactersWork) {
  auto a = Alphabet::FromCharacters("\x01\x02\xff");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->SymbolOf('\xff').value(), 2);
}

}  // namespace
}  // namespace seq
}  // namespace sigsub
