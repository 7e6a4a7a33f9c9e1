// util/hash: the content-addressing layer of the serving cache.  Pins
// the FNV-1a constants (cache keys must be stable across builds) and the
// structural hashing / hex64 wire format.
#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/mutation.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pslocal {
namespace {

TEST(HashTest, Fnv1a64MatchesReferenceVectors) {
  // Offset basis and standard test vectors of 64-bit FNV-1a.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

/// FNV-1a by its definition, one byte at a time from state h: the
/// reference update_u64's zero-byte fold must match bit for bit.
std::uint64_t fnv_bytewise(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes)
    h = (h ^ static_cast<std::uint8_t>(c)) * Fnv1a64::kPrime;
  return h;
}

std::string le_bytes(std::uint64_t v) {
  std::string out;
  for (int i = 0; i < 8; ++i) out += static_cast<char>(v >> (8 * i));
  return out;
}

TEST(HashTest, UpdateU64FoldMatchesByteAtATime) {
  std::vector<std::uint64_t> words = {0,         1,         0xff,
                                      0x100,     0xffff,    1ULL << 56,
                                      1ULL << 63, ~0ULL};
  Rng rng(25);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t w = rng.next_u64();
    words.push_back(w);
    words.push_back(w >> rng.next_below(64));  // 0..7 high zero bytes
  }
  // Each word from the offset basis, and all of them chained.
  Fnv1a64 chained;
  std::uint64_t chained_ref = Fnv1a64::kOffsetBasis;
  for (const std::uint64_t w : words) {
    Fnv1a64 one;
    one.update_u64(w);
    EXPECT_EQ(one.digest(), fnv_bytewise(Fnv1a64::kOffsetBasis, le_bytes(w)))
        << "word " << hex64(w);
    chained.update_u64(w);
    chained_ref = fnv_bytewise(chained_ref, le_bytes(w));
    ASSERT_EQ(chained.digest(), chained_ref) << "after word " << hex64(w);
  }
}

TEST(HashTest, UpdateBytesMatchesByteAtATime) {
  // Every length 0..40, half the bytes zero, starting one byte into
  // the buffer: whatever word path update_bytes takes, it must stay the
  // byte-at-a-time definition, zero runs and tails included.
  Rng rng(40);
  for (std::size_t len = 0; len <= 40; ++len) {
    for (int trial = 0; trial < 64; ++trial) {
      std::string buffer(len + 1, '\0');
      if (trial > 0)  // trial 0 is all zero bytes
        for (std::size_t i = 1; i <= len; ++i)
          if (rng.next_bool(0.5))
            buffer[i] = static_cast<char>(rng.next_below(256));
      const std::string_view bytes = std::string_view(buffer).substr(1);
      Fnv1a64 h;
      h.update_bytes(bytes.data(), bytes.size());
      ASSERT_EQ(h.digest(), fnv_bytewise(Fnv1a64::kOffsetBasis, bytes))
          << "len " << len << " trial " << trial;
      ASSERT_EQ(fnv1a64(bytes), h.digest());
    }
  }
}

TEST(HashTest, UpdateU64IsLengthPrefixFree) {
  // update_u64 writes fixed-width little-endian words, so (1, 2) and
  // (12, ...) cannot collide by concatenation ambiguity.
  Fnv1a64 a;
  a.update_u64(1);
  a.update_u64(2);
  Fnv1a64 b;
  b.update_u64(0x0000000200000001ULL);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(HashTest, StringUpdateIsLengthPrefixed) {
  Fnv1a64 a;
  a.update_string("ab");
  a.update_string("c");
  Fnv1a64 b;
  b.update_string("a");
  b.update_string("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(HashTest, HashCombineDependsOnOrder) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(0, 0), 0u);
}

TEST(HashTest, HypergraphHashSeparatesStructure) {
  const Hypergraph a(4, {{0, 1}, {2, 3}});
  const Hypergraph same(4, {{0, 1}, {2, 3}});
  const Hypergraph other_edge(4, {{0, 1}, {2, 3, 0}});
  const Hypergraph other_n(5, {{0, 1}, {2, 3}});
  const Hypergraph swapped(4, {{2, 3}, {0, 1}});
  EXPECT_EQ(hash_hypergraph(a), hash_hypergraph(same));
  EXPECT_NE(hash_hypergraph(a), hash_hypergraph(other_edge));
  EXPECT_NE(hash_hypergraph(a), hash_hypergraph(other_n));
  // Edge identity matters for conflict graphs, so order is significant.
  EXPECT_NE(hash_hypergraph(a), hash_hypergraph(swapped));
}

TEST(HashTest, GraphHashSeparatesStructure) {
  const auto make = [](VertexId u, VertexId v) {
    GraphBuilder builder(3);
    builder.add_edge(u, v);
    return builder.build();
  };
  EXPECT_EQ(hash_graph(make(0, 1)), hash_graph(make(0, 1)));
  EXPECT_NE(hash_graph(make(0, 1)), hash_graph(make(0, 2)));
}

TEST(HashTest, CanonicalBytesMatchesHash) {
  const Hypergraph h(6, {{0, 1, 2}, {3, 4}, {5}});
  EXPECT_EQ(fnv1a64(canonical_bytes(h)), hash_hypergraph(h));
}

TEST(HashTest, Hex64RoundTrips) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL, 0x0123456789abcdefULL}) {
    const std::string s = hex64(v);
    EXPECT_EQ(s.size(), 16u);
    EXPECT_EQ(parse_hex64(s), v);
  }
  EXPECT_EQ(hex64(0x0123456789abcdefULL), "0123456789abcdef");
}

TEST(HashTest, ParseHex64RejectsBadInput) {
  EXPECT_THROW((void)parse_hex64("123"), ContractViolation);
  EXPECT_THROW((void)parse_hex64("0123456789abcdeg"), ContractViolation);
  EXPECT_THROW((void)parse_hex64("0123456789ABCDEF"), ContractViolation);
}

TEST(HashTest, Mix64MatchesSplitMix64Finalizer) {
  // mix64(x) is pinned to one SplitMix64 step from state x — the shard
  // ring's placement (shard/ring.hpp) depends on these exact bits.
  for (const std::uint64_t x :
       {0ULL, 1ULL, 2ULL, 0xdeadbeefULL, ~0ULL, 0x0123456789abcdefULL}) {
    EXPECT_EQ(mix64(x), SplitMix64(x).next()) << "x=" << x;
  }
  // Compile-time usable, and zero is not a fixed point.
  static_assert(mix64(0) != 0);
  static_assert(mix64(1) != mix64(2));
}

TEST(HashTest, Mix64AvalanchesSingleBitFlips) {
  // Flipping any one input bit must flip roughly half the output bits.
  // [8, 56] is a generous band (binomial(64, 1/2) stays within it with
  // overwhelming probability); the qc `mix64_avalanche` property runs
  // the randomized version of this continuously.
  Rng rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t x = rng.next_u64();
    const std::uint64_t flipped = x ^ (1ULL << rng.next_below(64));
    const int changed = __builtin_popcountll(mix64(x) ^ mix64(flipped));
    ASSERT_GE(changed, 8) << "x=" << x;
    ASSERT_LE(changed, 56) << "x=" << x;
  }
}

TEST(HashTest, Mix64DecorrelatesSequentialInputs) {
  // Sequential integers (shard/vnode indices) and shared-prefix FNV
  // digests are the ring's actual inputs; their images must not cluster.
  std::vector<std::uint64_t> images;
  for (std::uint64_t i = 0; i < 4096; ++i) images.push_back(mix64(i));
  std::sort(images.begin(), images.end());
  EXPECT_EQ(std::unique(images.begin(), images.end()), images.end());
  // Adjacent inputs land far apart: no pair of consecutive integers
  // maps within 2^32 of each other (would skew ring arc lengths).
  for (std::uint64_t i = 0; i + 1 < 4096; ++i) {
    const std::uint64_t a = mix64(i);
    const std::uint64_t b = mix64(i + 1);
    const std::uint64_t gap = a > b ? a - b : b - a;
    ASSERT_GT(gap, 1ULL << 32) << "i=" << i;
  }
}

TEST(HashTest, OneFieldFlipNeverCollidesOver10kPairs) {
  // Cache-key smoke: 10k random multi-field payload pairs differing in
  // exactly one field (a single flipped bit of one word) must digest
  // differently.  A collision here would let two distinct requests
  // share a cache entry.
  Rng rng(2026);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::size_t fields = 1 + rng.next_below(8);
    const std::size_t flip = rng.next_below(fields);
    const std::uint64_t delta = 1ULL << rng.next_below(64);
    Fnv1a64 a, b;
    for (std::size_t i = 0; i < fields; ++i) {
      const std::uint64_t w = rng.next_u64();
      a.update_u64(w);
      b.update_u64(i == flip ? w ^ delta : w);
    }
    ASSERT_NE(a.digest(), b.digest())
        << "trial " << trial << " fields=" << fields << " flip=" << flip;
  }
}

TEST(HashTest, Hex64RoundTripsRandomWords) {
  Rng rng(77);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t v = rng.next_u64();
    ASSERT_EQ(parse_hex64(hex64(v)), v) << hex64(v);
  }
}

TEST(HashTest, EpochChainOneMutationFlipSweep10k) {
  // Cache keys are chained per mutation epoch: two scripts that differ
  // in exactly one step must diverge at that link — and stay diverged
  // after a shared suffix step (mix64 decorrelates the chain, so a
  // collision cannot "heal").  10k random one-mutation flips.
  Rng rng(99);
  const auto draw = [&rng] {
    switch (rng.next_below(4)) {
      case 0: {
        std::vector<VertexId> vs(1 + rng.next_below(3));
        for (auto& v : vs) v = static_cast<VertexId>(rng.next_below(64));
        return Mutation::add_edge(std::move(vs));
      }
      case 1:
        return Mutation::remove_edge(
            static_cast<EdgeId>(rng.next_below(64)));
      case 2:
        return Mutation::add_vertex();
      default:
        return Mutation::remove_vertex(
            static_cast<VertexId>(rng.next_below(64)));
    }
  };
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t epoch = rng.next_u64();
    const Mutation a = draw();
    const Mutation b = draw();
    if (a == b) continue;
    ASSERT_NE(hash_mutation(a), hash_mutation(b))
        << "trial " << trial << ": " << describe(a) << " vs " << describe(b);
    ASSERT_NE(advance_epoch(epoch, a), advance_epoch(epoch, b))
        << "trial " << trial;
    const Mutation shared = draw();
    ASSERT_NE(advance_epoch(advance_epoch(epoch, a), shared),
              advance_epoch(advance_epoch(epoch, b), shared))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace pslocal
