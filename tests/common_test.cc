// Tests for the common substrate: Status/Result, spans, values and their
// binary codec, deterministic RNG, hashing.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/span.h"
#include "common/status.h"
#include "common/value.h"

namespace delex {
namespace {

// ---------------------------------------------------------------------------
// Status / Result

TEST(Status, FactoriesAndPredicates) {
  EXPECT_TRUE(Status::OK().ok());
  Status io = Status::IOError("disk gone");
  EXPECT_FALSE(io.ok());
  EXPECT_TRUE(io.IsIOError());
  EXPECT_EQ(io.ToString(), "IOError: disk gone");
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(Result, HoldsValueOrError) {
  Result<int> ok_result(42);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  EXPECT_TRUE(ok_result.status().ok());

  Result<int> err_result(Status::NotFound("nope"));
  ASSERT_FALSE(err_result.ok());
  EXPECT_TRUE(err_result.status().IsNotFound());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  DELEX_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(Result, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseHalf(7, &out).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// TextSpan

TEST(TextSpan, BasicGeometry) {
  TextSpan s(3, 9);
  EXPECT_EQ(s.length(), 6);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(TextSpan(4, 4).empty());
  EXPECT_TRUE(s.Contains(TextSpan(3, 9)));
  EXPECT_TRUE(s.Contains(TextSpan(4, 8)));
  EXPECT_FALSE(s.Contains(TextSpan(2, 5)));
  EXPECT_TRUE(s.Contains(5));
  EXPECT_FALSE(s.Contains(9));  // half-open
}

TEST(TextSpan, OverlapAndIntersect) {
  EXPECT_TRUE(TextSpan(0, 5).Overlaps(TextSpan(4, 10)));
  EXPECT_FALSE(TextSpan(0, 5).Overlaps(TextSpan(5, 10)));  // touching
  EXPECT_EQ(TextSpan(0, 5).Intersect(TextSpan(3, 10)), TextSpan(3, 5));
  EXPECT_TRUE(TextSpan(0, 2).Intersect(TextSpan(5, 9)).empty());
}

TEST(TextSpan, ExpandClipsToBounds) {
  TextSpan bounds(0, 100);
  EXPECT_EQ(TextSpan(10, 20).Expand(5, bounds), TextSpan(5, 25));
  EXPECT_EQ(TextSpan(2, 4).Expand(10, bounds), TextSpan(0, 14));
  EXPECT_EQ(TextSpan(95, 99).Expand(10, bounds), TextSpan(85, 100));
}

TEST(TextSpan, ShiftMovesBothEnds) {
  EXPECT_EQ(TextSpan(5, 9).Shift(100), TextSpan(105, 109));
  EXPECT_EQ(TextSpan(5, 9).Shift(-5), TextSpan(0, 4));
}

// ---------------------------------------------------------------------------
// Value codec

class ValueRoundTrip : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTrip, EncodeDecodeIdentity) {
  std::string buffer;
  EncodeValue(GetParam(), &buffer);
  size_t offset = 0;
  auto decoded = DecodeValue(buffer, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(offset, buffer.size());
  EXPECT_FALSE(ValueLess(*decoded, GetParam()) ||
               ValueLess(GetParam(), *decoded));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ValueRoundTrip,
    ::testing::Values(Value(int64_t{0}), Value(int64_t{-12345}),
                      Value(int64_t{1} << 60), Value(3.25), Value(-0.5),
                      Value(true), Value(false), Value(std::string("")),
                      Value(std::string("hello \"world\"\n")),
                      Value(TextSpan(0, 0)), Value(TextSpan(17, 94235))));

TEST(TupleCodec, RoundTripsMixedTuple) {
  Tuple tuple = {int64_t{7}, std::string("abc"), TextSpan(2, 9), true, 1.5};
  std::string buffer;
  EncodeTuple(tuple, &buffer);
  size_t offset = 0;
  auto decoded = DecodeTuple(buffer, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), tuple.size());
  EXPECT_FALSE(TupleLess(*decoded, tuple) || TupleLess(tuple, *decoded));
}

TEST(TupleCodec, TruncationDetected) {
  Tuple tuple = {std::string("abcdef")};
  std::string buffer;
  EncodeTuple(tuple, &buffer);
  for (size_t cut = 1; cut < buffer.size(); ++cut) {
    size_t offset = 0;
    std::string_view clipped(buffer.data(), cut);
    auto decoded = DecodeTuple(clipped, &offset);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(Value, ShiftSpansOnlyTouchesSpans) {
  Tuple tuple = {int64_t{5}, TextSpan(10, 20), std::string("x"),
                 TextSpan(30, 31)};
  ShiftSpans(&tuple, 7);
  EXPECT_EQ(std::get<int64_t>(tuple[0]), 5);
  EXPECT_EQ(std::get<TextSpan>(tuple[1]), TextSpan(17, 27));
  EXPECT_EQ(std::get<std::string>(tuple[2]), "x");
  EXPECT_EQ(std::get<TextSpan>(tuple[3]), TextSpan(37, 38));
}

TEST(Value, SpanEnvelopeCoversAllSpans) {
  Tuple tuple = {TextSpan(50, 60), std::string("x"), TextSpan(10, 20)};
  EXPECT_EQ(SpanEnvelope(tuple), TextSpan(10, 60));
  EXPECT_TRUE(SpanEnvelope({int64_t{1}, std::string("a")}).empty());
  EXPECT_TRUE(HasSpan(tuple));
  EXPECT_FALSE(HasSpan({int64_t{1}}));
}

TEST(Value, TupleLessIsStrictWeakOrder) {
  Tuple a = {int64_t{1}};
  Tuple b = {int64_t{2}};
  Tuple c = {int64_t{1}, int64_t{0}};
  EXPECT_TRUE(TupleLess(a, b));
  EXPECT_FALSE(TupleLess(b, a));
  EXPECT_TRUE(TupleLess(a, c));  // prefix is smaller
  EXPECT_FALSE(TupleLess(a, a));
  // Kind-major order across variant alternatives is consistent.
  Tuple d = {std::string("z")};
  EXPECT_TRUE(TupleLess(a, d) != TupleLess(d, a));
}

TEST(Value, TupleToStringReadable) {
  EXPECT_EQ(TupleToString({int64_t{1}, std::string("x"), TextSpan(2, 3)}),
            "(1, \"x\", [2,3))");
}

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ForkIndependentOfParentDraws) {
  Rng parent(5);
  Rng fork1 = parent.Fork(99);
  parent.Next();
  // Forking with the same salt from the same state yields the same stream.
  Rng parent2(5);
  Rng fork2 = parent2.Fork(99);
  EXPECT_EQ(fork1.Next(), fork2.Next());
}

// ---------------------------------------------------------------------------
// Hash

TEST(Hash, Fnv1aBasics) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
}

TEST(Hash, Fnv1aMatchesPublishedVectors) {
  // The digest is an on-disk value (`.idx` entries, result caches), so it
  // is pinned to the published FNV-1a 64 test vectors, not just to itself.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

/// Fnv1a64Batch over `inputs` must give each input's Fnv1a64, bit for bit.
void ExpectBatchMatchesSerial(const std::vector<std::string>& inputs) {
  std::vector<std::string_view> views(inputs.begin(), inputs.end());
  std::vector<uint64_t> digests(inputs.size(), 0);
  Fnv1a64Batch(views, digests);
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(digests[i], Fnv1a64(inputs[i]))
        << "input " << i << " of " << inputs.size() << ", length "
        << inputs[i].size();
  }
}

TEST(Hash, Fnv1aBatchMatchesSerialOnEveryInput) {
  Rng rng(17);
  auto bytes = [&rng](size_t length) {
    std::string s(length, '\0');
    for (char& c : s) c = static_cast<char>(rng.Uniform(256));
    return s;
  };
  // Batch sizes 0-9 with every input of one length 0-40: both sides of the
  // 8-byte word, the short-input path, and lanes that run out together.
  for (size_t count = 0; count <= 9; ++count) {
    for (size_t length = 0; length <= 40; ++length) {
      SCOPED_TRACE("count " + std::to_string(count) + ", length " +
                   std::to_string(length));
      std::vector<std::string> inputs;
      for (size_t i = 0; i < count; ++i) inputs.push_back(bytes(length));
      ExpectBatchMatchesSerial(inputs);
    }
  }
  // Empty, short and long inputs mixed, so lanes end and refill mid-batch
  // at different times, sometimes several times in a row.
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::string> inputs;
    const size_t count = rng.Uniform(24) + 1;
    for (size_t i = 0; i < count; ++i) {
      switch (rng.Uniform(4)) {
        case 0: inputs.emplace_back(); break;
        case 1: inputs.push_back(bytes(rng.Uniform(8))); break;
        case 2: inputs.push_back(bytes(8 + rng.Uniform(33))); break;
        default: inputs.push_back(bytes(100 + rng.Uniform(400))); break;
      }
    }
    ExpectBatchMatchesSerial(inputs);
  }
  // One input of over 1 MB: alone, and outlasting a batch of short ones.
  const std::string big = bytes((size_t{1} << 20) + 5);
  ExpectBatchMatchesSerial({big});
  ExpectBatchMatchesSerial({"ab", big, "", bytes(9), bytes(33), bytes(7)});
}

TEST(Hash, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

}  // namespace
}  // namespace delex
