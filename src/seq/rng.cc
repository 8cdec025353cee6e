#include "seq/rng.h"

#include "common/check.h"

namespace sigsub {
namespace seq {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97f4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int s) { return (x << s) | (x >> (64 - s)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  // xoshiro must not start at the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9E3779B97f4A7C15ULL;
  }
}

uint64_t Rng::NextUint64() {
  uint64_t result = RotL(state_[0] + state_[3], 23) + state_[0];
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  SIGSUB_CHECK(bound > 0);
  // Rejection sampling on the top of the range to remove modulo bias.
  uint64_t threshold = -bound % bound;
  while (true) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

bool Rng::NextBernoulli(double p) {
  SIGSUB_DCHECK(p >= 0.0 && p <= 1.0);
  return NextDouble() < p;
}

}  // namespace seq
}  // namespace sigsub
