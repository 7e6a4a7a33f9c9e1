#include "util/hash.hpp"

#include "util/check.hpp"

namespace pslocal {

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::uint64_t parse_hex64(std::string_view s) {
  PSL_EXPECTS_MSG(s.size() == 16, "hex64 strings are exactly 16 digits");
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      PSL_CHECK_MSG(false, "invalid hex64 digit '" << c << "'");
  }
  return v;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  Fnv1a64 h;
  h.update_bytes(bytes.data(), bytes.size());
  return h.digest();
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  Fnv1a64 mix;
  mix.update_u64(h);
  mix.update_u64(v);
  return mix.digest();
}

std::uint64_t hash_graph(const Graph& g) {
  Fnv1a64 h;
  const std::size_t n = g.vertex_count();
  h.update_u64(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    h.update_u64(nbrs.size());
    for (const VertexId u : nbrs) h.update_u64(u);
  }
  return h.digest();
}

std::uint64_t hash_hypergraph(const Hypergraph& h) {
  Fnv1a64 hash;
  hash.update_u64(h.vertex_count());
  hash.update_u64(h.edge_count());
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    const auto vs = h.edge(e);
    hash.update_u64(vs.size());
    for (const VertexId v : vs) hash.update_u64(v);
  }
  return hash.digest();
}

std::string canonical_bytes(const Hypergraph& h) {
  const std::size_t m = h.edge_count();
  std::size_t words = 2 + m;
  for (EdgeId e = 0; e < m; ++e) words += h.edge_size(e);
  std::string out(8 * words, '\0');
  char* p = out.data();
  const auto put_u64 = [&p](std::uint64_t v) {
    store_le64(p, v);
    p += 8;
  };
  put_u64(h.vertex_count());
  put_u64(m);
  for (EdgeId e = 0; e < m; ++e) {
    const auto vs = h.edge(e);
    put_u64(vs.size());
    for (const VertexId v : vs) put_u64(v);
  }
  PSL_ENSURES(p == out.data() + out.size());
  return out;
}

}  // namespace pslocal
