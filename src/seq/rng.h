#ifndef SIGSUB_SEQ_RNG_H_
#define SIGSUB_SEQ_RNG_H_

#include <cstdint>

namespace sigsub {
namespace seq {

/// Deterministic xoshiro256++ generator seeded via splitmix64. Every
/// randomized component in the library takes an explicit seed so that all
/// experiments are exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform integer in [0, bound); requires bound > 0. Uses rejection
  /// sampling, so it is exactly uniform.
  uint64_t NextBounded(uint64_t bound);

  /// Bernoulli draw with success probability p.
  bool NextBernoulli(double p);

 private:
  uint64_t state_[4];
};

}  // namespace seq
}  // namespace sigsub

#endif  // SIGSUB_SEQ_RNG_H_
