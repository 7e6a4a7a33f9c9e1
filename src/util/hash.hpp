// Canonical serialization and content hashing.
//
// The serving subsystem (src/service/) addresses cached solver results by
// the *content* of their inputs, so two structurally identical instances
// hit the same cache line no matter how they were built.  That requires a
// canonical byte encoding: every multi-byte integer is emitted
// little-endian at a fixed width, containers are length-prefixed, and
// graph/hypergraph encodings walk the (already sorted) adjacency data in
// index order.  The hash is FNV-1a 64 over that stream — tiny, portable,
// and byte-order stable across platforms, which keeps cache keys and
// replay files comparable between runs and machines.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "graph/graph.hpp"
#include "hypergraph/hypergraph.hpp"

namespace pslocal {

/// The canonical word order: the u64 at p (any alignment), little-endian.
[[nodiscard]] inline std::uint64_t load_le64(const void* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

/// Writes v at p (any alignment) as 8 little-endian bytes.
inline void store_le64(void* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

/// Streaming FNV-1a 64-bit hasher over a canonical byte encoding.
///
/// update_u64 folds each word's high zero bytes: a zero byte turns the
/// step h = (h ^ b) * P into h = h * P, so the z zero bytes above a
/// word's highest nonzero byte are one multiply by P^z.  The vertex ids,
/// counts and sizes that hash_hypergraph and hash_graph feed it have few
/// significant bytes, so most words take 2-4 multiplies instead of 8.
/// The digest is the byte-at-a-time FNV-1a, bit for bit, so cache keys
/// and graph hashes are unchanged (tests/test_hash.cpp pins the fold
/// against that definition).
///
/// update_bytes runs byte by byte: its callers hash byte strings (a
/// frame's payload, solver names) whose 8-byte chunks need not line up
/// with any encoded word.  A request payload's instance starts 33 bytes
/// plus the solver name's length in, so most chunks end in a word's
/// nonzero low byte, and the fold made hot_hits request frames under 4 %
/// faster.
class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x00000100000001b3ULL;

  void update_byte(std::uint8_t b) {
    h_ = (h_ ^ b) * kPrime;
  }

  void update_bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < len; ++i) update_byte(p[i]);
  }

  /// Fixed-width little-endian encoding (canonical across platforms).
  void update_u64(std::uint64_t v) {
    const int significant = (std::bit_width(v) + 7) / 8;
    for (int i = 0; i < significant; ++i, v >>= 8)
      h_ = (h_ ^ (v & 0xff)) * kPrime;
    if (significant < 8) h_ *= kPrimePowers[8 - significant];
  }

  /// Length-prefixed, so {"ab","c"} and {"a","bc"} hash differently.
  void update_string(std::string_view s) {
    update_u64(s.size());
    update_bytes(s.data(), s.size());
  }

  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  /// kPrimePowers[z] == kPrime^z (mod 2^64): z zero bytes in one step.
  static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{};
    powers[0] = 1;
    for (std::size_t z = 1; z < powers.size(); ++z)
      powers[z] = powers[z - 1] * kPrime;
    return powers;
  }();

  std::uint64_t h_ = kOffsetBasis;
};

/// One-shot convenience over raw bytes.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// SplitMix64-style 64-bit finalizer (Stafford/Vigna mixing constants,
/// gamma added up front so 0 is not a fixed point).  A bijection on
/// uint64 whose output bits avalanche: flipping any input bit flips each
/// output bit with probability ~1/2.  The shard ring derives its
/// virtual-node points through this (shard/ring.hpp) because FNV digests
/// of related inputs share prefixes — mix64 decorrelates them.  Pinned
/// against SplitMix64 and an avalanche property in qc (`mix64_avalanche`).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mix an extra word into an existing digest (for composite cache keys:
/// instance hash ∘ solver id ∘ params).  Order-sensitive.
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v);

/// Content hash of a graph: vertex count, then the CSR adjacency in
/// vertex order.  Equal graphs (Graph::operator==) hash equal.
[[nodiscard]] std::uint64_t hash_graph(const Graph& g);

/// Content hash of a hypergraph: vertex count, edge count, then each
/// edge's sorted vertex list in edge-id order.  restrict_edges results
/// hash by their own content, not their provenance.
[[nodiscard]] std::uint64_t hash_hypergraph(const Hypergraph& h);

/// Fixed-width lowercase hex of a 64-bit word ("00000000000000ff").
/// Digests cross process boundaries as hex because JSON numbers (doubles)
/// cannot carry 64 bits exactly.
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Inverse of hex64; PSL_CHECKs the format.
[[nodiscard]] std::uint64_t parse_hex64(std::string_view s);

/// The canonical byte encoding behind hash_hypergraph, materialized.
/// Used by tests to pin the encoding and by anything that needs the
/// serialized form itself rather than its digest.
[[nodiscard]] std::string canonical_bytes(const Hypergraph& h);

}  // namespace pslocal
