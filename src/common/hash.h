#ifndef DELEX_COMMON_HASH_H_
#define DELEX_COMMON_HASH_H_

#include <cstdint>
#include <span>
#include <string_view>

namespace delex {

/// \brief 64-bit FNV-1a hash.
///
/// Used for page-content fingerprints (the Shortcut baseline detects
/// byte-identical pages by hash) and hash-table bucketing of copy regions.
inline uint64_t Fnv1a64(std::string_view data, uint64_t seed = 0xCBF29CE484222325ULL) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// \brief `digests[i] = Fnv1a64(inputs[i])` for every i, bit for bit.
///
/// FNV-1a is one multiply per byte, each waiting on the last, so a single
/// chain leaves the multiplier idle most of the time. This kernel keeps
/// four chains in flight, one input each, and feeds every chain 8 bytes
/// per load; when an input ends, its lane takes the next one. Inputs
/// shorter than a word take the serial path. Plain scalar code: the
/// digests are on-disk values (`.idx` guards, result caches), so they
/// must not depend on the SIMD tier. `digests.size()` must equal
/// `inputs.size()`.
void Fnv1a64Batch(std::span<const std::string_view> inputs,
                  std::span<uint64_t> digests);

/// \brief Mixes two 64-bit hashes (boost::hash_combine-style).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 12) + (a >> 4));
}

}  // namespace delex

#endif  // DELEX_COMMON_HASH_H_
