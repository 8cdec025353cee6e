#ifndef SIGSUB_COMMON_FNV1A_H_
#define SIGSUB_COMMON_FNV1A_H_

#include <cstddef>
#include <cstdint>

namespace sigsub {

/// Incremental 64-bit FNV-1a hasher. Used to fingerprint sequences, null
/// models and canonical query bytes for the engine's result cache; not
/// cryptographic, but stable across runs and platforms (the inputs are
/// hashed as explicit little-endian byte streams).
class Fnv1a {
 public:
  static constexpr uint64_t kOffsetBasis = 14695981039346656037ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

  void Update(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      state_ ^= bytes[i];
      state_ *= kPrime;
    }
  }

  void UpdateU64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= static_cast<unsigned char>(value >> (8 * i));
      state_ *= kPrime;
    }
  }

  void UpdateI64(int64_t value) {
    UpdateU64(static_cast<uint64_t>(value));
  }

  uint64_t Digest() const { return state_; }

 private:
  uint64_t state_ = kOffsetBasis;
};

}  // namespace sigsub

#endif  // SIGSUB_COMMON_FNV1A_H_
