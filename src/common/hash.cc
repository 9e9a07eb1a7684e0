#include "common/hash.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace delex {
namespace {

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;
constexpr size_t kWord = 8;

/// The 8 bytes at `p`, the first of them in the low byte, so that shifting
/// right walks them in input order.
uint64_t LoadWord(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, kWord);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// One input in flight: its chain so far, and the bytes not yet fed.
struct Lane {
  const char* data = nullptr;
  size_t rest = 0;
  uint64_t h = kFnvOffset;
  size_t slot = 0;  // index of the input, and of its digest
};

}  // namespace

void Fnv1a64Batch(std::span<const std::string_view> inputs,
                  std::span<uint64_t> digests) {
  DELEX_CHECK_EQ(inputs.size(), digests.size());
  size_t next = 0;
  // Loads `lane` with the next input of at least one word, hashing the
  // shorter ones passed on the way serially. False once inputs run out.
  auto take_next = [&](Lane* lane) {
    while (next < inputs.size()) {
      const size_t slot = next++;
      const std::string_view input = inputs[slot];
      if (input.size() >= kWord) {
        *lane = Lane{input.data(), input.size(), kFnvOffset, slot};
        return true;
      }
      digests[slot] = Fnv1a64(input);
    }
    return false;
  };

  Lane lanes[4];
  size_t live = 0;
  while (live < 4 && take_next(&lanes[live])) ++live;
  while (live == 4) {
    // Every lane holds at least one word: run all four chains over as many
    // whole words as the shortest lane has left.
    const size_t bytes =
        std::min({lanes[0].rest, lanes[1].rest, lanes[2].rest, lanes[3].rest}) /
        kWord * kWord;
    uint64_t h0 = lanes[0].h, h1 = lanes[1].h, h2 = lanes[2].h,
             h3 = lanes[3].h;
    const char *p0 = lanes[0].data, *p1 = lanes[1].data, *p2 = lanes[2].data,
               *p3 = lanes[3].data;
    for (size_t i = 0; i < bytes; i += kWord) {
      uint64_t w0 = LoadWord(p0 + i), w1 = LoadWord(p1 + i),
               w2 = LoadWord(p2 + i), w3 = LoadWord(p3 + i);
      for (size_t b = 0; b < kWord; ++b) {
        h0 = (h0 ^ (w0 & 0xFF)) * kFnvPrime;
        h1 = (h1 ^ (w1 & 0xFF)) * kFnvPrime;
        h2 = (h2 ^ (w2 & 0xFF)) * kFnvPrime;
        h3 = (h3 ^ (w3 & 0xFF)) * kFnvPrime;
        w0 >>= 8;
        w1 >>= 8;
        w2 >>= 8;
        w3 >>= 8;
      }
    }
    lanes[0].h = h0;
    lanes[1].h = h1;
    lanes[2].h = h2;
    lanes[3].h = h3;
    for (Lane& lane : lanes) {
      lane.data += bytes;
      lane.rest -= bytes;
    }
    // A lane with less than a word left finishes its input serially and
    // takes the next one; with none left, the last live lane moves into
    // its place.
    for (size_t l = 0; l < live;) {
      Lane& lane = lanes[l];
      if (lane.rest >= kWord) {
        ++l;
        continue;
      }
      digests[lane.slot] =
          Fnv1a64(std::string_view(lane.data, lane.rest), lane.h);
      if (take_next(&lane)) {
        ++l;
      } else {
        lane = lanes[--live];
      }
    }
  }
  // Fewer long inputs than lanes remain: finish each one serially.
  for (size_t l = 0; l < live; ++l) {
    digests[lanes[l].slot] =
        Fnv1a64(std::string_view(lanes[l].data, lanes[l].rest), lanes[l].h);
  }
}

}  // namespace delex
