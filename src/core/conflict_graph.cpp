#include "core/conflict_graph.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace pslocal {

namespace {
struct ConflictGraphMetrics {
  obs::Counter builds{"conflict_graph.builds"};
  obs::Counter triples{"conflict_graph.triples"};
  obs::Counter edges{"conflict_graph.edges"};
};

const ConflictGraphMetrics& cg_metrics() {
  static ConflictGraphMetrics m;
  return m;
}
}  // namespace

void ConflictRows::add_block(bool own, std::size_t first_triple,
                             std::span<const VertexId> g,
                             std::span<const VertexId> e) {
  Block b{own, first_triple, g.size(), shared_.size(), 0, position_.size()};
  position_.resize(position_.size() + e.size(), g.size());
  std::size_t* position = position_.data() + b.position_begin;
  for (std::size_t i = 0, j = 0; i < g.size() && j < e.size();) {
    if (g[i] < e[j]) {
      ++i;
    } else if (e[j] < g[i]) {
      ++j;
    } else {
      position[j++] = i;
      shared_.push_back(i++);
    }
  }
  b.shared_end = shared_.size();
  blocks_.push_back(b);
}

std::size_t ConflictRows::row_size(std::size_t i) const {
  std::size_t size = 0;
  for (const Block& b : blocks_) {
    if (b.own)
      size += b.size * k_ - 1;
    else if (position_in(b, i) < b.size)
      size += (k_ - 1) + (b.size - 1);
    else
      size += b.shared_end - b.shared_begin;
  }
  return size;
}

// NOTE (erratum-level reading of the paper): the set notation
// "{u,v} ⊆ e" of E_color admits u = v, but the proofs of Lemma 2.1 treat
// u and v as distinct ("assume that there is a further node u ∈ e,
// u != v ...").  Indeed with u = v the lemma's part (a) is FALSE: if two
// hyperedges share their unique-color witness vertex v, I_f would contain
// (e, v, c) and (g, v, c) and an u = v E_color edge would join them.  We
// therefore require u != v: a row of (e, v, c) never holds (g, v, c) for
// g != e.  See ConflictGraphTest.SharedWitnessAcrossEdgesStaysIndependent
// for the counterexample.
void ConflictRows::write_rows(std::size_t i, VertexId* out) const {
  // Every row takes the same number of ids from a block, so a block's
  // part starts at the same offset in each of the k rows.
  const std::size_t size = row_size(i);
  std::size_t offset = 0;
  for (const Block& b : blocks_) {
    const std::size_t first = b.first_triple;
    if (b.own) {
      const std::size_t end = first + b.size * k_;
      for (std::size_t c0 = 0; c0 < k_; ++c0) {
        VertexId* row = out + c0 * size + offset;
        const std::size_t self = first + i * k_ + c0;
        for (std::size_t t = first; t < self; ++t)
          *row++ = static_cast<VertexId>(t);
        for (std::size_t t = self + 1; t < end; ++t)
          *row++ = static_cast<VertexId>(t);
      }
      offset += b.size * k_ - 1;
      continue;
    }
    const std::size_t pv = position_in(b, i);
    if (pv < b.size) {
      const std::size_t v_first = first + pv * k_;
      for (std::size_t c0 = 0; c0 < k_; ++c0) {
        VertexId* row = out + c0 * size + offset;
        for (std::size_t j = 0; j < pv; ++j)
          *row++ = static_cast<VertexId>(first + j * k_ + c0);
        for (std::size_t d = 0; d < k_; ++d)
          if (d != c0) *row++ = static_cast<VertexId>(v_first + d);
        for (std::size_t j = pv + 1; j < b.size; ++j)
          *row++ = static_cast<VertexId>(first + j * k_ + c0);
      }
      offset += (k_ - 1) + (b.size - 1);
    } else {
      for (std::size_t c0 = 0; c0 < k_; ++c0) {
        VertexId* row = out + c0 * size + offset;
        for (std::size_t s = b.shared_begin; s < b.shared_end; ++s)
          *row++ = static_cast<VertexId>(first + shared_[s] * k_ + c0);
      }
      offset += b.shared_end - b.shared_begin;
    }
  }
}

ConflictGraph::ConflictGraph(Hypergraph h, std::size_t k,
                             runtime::Scheduler&)
    : h_(std::move(h)), k_(k) {
  PSL_EXPECTS(k_ >= 1);
  // Triple ids are 32-bit, so no larger k fits a non-empty G_k; checking
  // it first keeps pair_count * k_ below from wrapping.
  PSL_EXPECTS_MSG(k_ < (std::uint64_t{1} << 32),
                  "conflict parameter k = " << k_ << " exceeds 2^32 - 1");
  PSL_OBS_SPAN("conflict_graph.build");
  const std::size_t m = h_.edge_count();

  // Lay out incidence pairs (e, v) edge by edge.
  edge_pair_offset_.assign(m + 1, 0);
  for (EdgeId e = 0; e < m; ++e)
    edge_pair_offset_[e + 1] = edge_pair_offset_[e] + h_.edge_size(e);
  const std::size_t pair_count = edge_pair_offset_[m];
  pair_edge_.resize(pair_count);
  pair_vertex_.resize(pair_count);
  for (EdgeId e = 0; e < m; ++e) {
    std::size_t p = edge_pair_offset_[e];
    for (VertexId v : h_.edge(e)) {
      pair_edge_[p] = e;
      pair_vertex_[p] = v;
      ++p;
    }
  }

  const std::size_t n_triples = pair_count * k_;
  PSL_EXPECTS_MSG(n_triples < (std::uint64_t{1} << 32),
                  "conflict graph too large for 32-bit triple ids");

  // CSR in two passes over hyperedges, row lengths then rows.
  ConflictRows rows(k_);
  std::vector<std::size_t> offsets(n_triples + 1, 0);
  for (EdgeId e = 0; e < m; ++e) {
    rows.load(h_, edge_pair_offset_, e);
    for (std::size_t i = 0; i < h_.edge_size(e); ++i)
      std::fill_n(&offsets[(edge_pair_offset_[e] + i) * k_ + 1], k_,
                  rows.row_size(i));
  }
  for (std::size_t t = 0; t < n_triples; ++t) offsets[t + 1] += offsets[t];
  std::vector<VertexId> neighbors(offsets.back());
  for (EdgeId e = 0; e < m; ++e) {
    rows.load(h_, edge_pair_offset_, e);
    for (std::size_t i = 0; i < h_.edge_size(e); ++i)
      rows.write_rows(
          i, neighbors.data() + offsets[(edge_pair_offset_[e] + i) * k_]);
  }

  cg_metrics().builds.add(1);
  cg_metrics().triples.add(n_triples);
  graph_ = Graph::from_csr(std::move(offsets), std::move(neighbors));
  cg_metrics().edges.add(graph_.edge_count());
}

Triple ConflictGraph::triple(TripleId t) const {
  PSL_EXPECTS(t < triple_count());
  const std::size_t pair = t / k_;
  Triple out;
  out.e = pair_edge_[pair];
  out.v = pair_vertex_[pair];
  out.c = t % k_ + 1;
  return out;
}

TripleId ConflictGraph::triple_id(EdgeId e, VertexId v, std::size_t c) const {
  PSL_EXPECTS(c >= 1 && c <= k_);
  return pair_of(e, v) * k_ + (c - 1);
}

std::size_t ConflictGraph::pair_of(EdgeId e, VertexId v) const {
  PSL_EXPECTS(e < h_.edge_count());
  const auto verts = h_.edge(e);
  const auto it = std::lower_bound(verts.begin(), verts.end(), v);
  PSL_EXPECTS_MSG(it != verts.end() && *it == v,
                  "vertex " << v << " not in hyperedge " << e);
  return edge_pair_offset_[e] +
         static_cast<std::size_t>(std::distance(verts.begin(), it));
}

unsigned ConflictGraph::edge_class_mask(TripleId a, TripleId b) const {
  const Triple ta = triple(a);
  const Triple tb = triple(b);
  PSL_EXPECTS(!(ta == tb));
  unsigned mask = 0;
  if (ta.v == tb.v && ta.c != tb.c) mask |= kEVertex;
  if (ta.e == tb.e) mask |= kEEdge;
  // E_color requires two *distinct* vertices u != v (see the erratum note).
  if (ta.c == tb.c && ta.v != tb.v &&
      (h_.edge_contains(ta.e, tb.v) || h_.edge_contains(tb.e, ta.v)))
    mask |= kEColor;
  return mask;
}

// edge_class_mask's predicates, evaluated row by row: with e's vertices
// and v's edges marked, each later neighbor (g, u, d) of (e, v, c) is
// classified in O(1).
ConflictGraph::ClassCounts ConflictGraph::count_edge_classes() const {
  ClassCounts counts;
  std::vector<char> in_e(h_.vertex_count(), 0);   // u ∈ e
  std::vector<char> holds_v(h_.edge_count(), 0);  // v ∈ g
  for (EdgeId e = 0; e < h_.edge_count(); ++e) {
    for (const VertexId u : h_.edge(e)) in_e[u] = 1;
    for (std::size_t p = edge_pair_offset_[e]; p < edge_pair_offset_[e + 1];
         ++p) {
      const VertexId v = pair_vertex_[p];
      for (const EdgeId g : h_.edges_of(v)) holds_v[g] = 1;
      for (std::size_t c = 0; c < k_; ++c) {
        const auto t = static_cast<VertexId>(p * k_ + c);
        const auto row = graph_.neighbors(t);
        for (auto it = std::upper_bound(row.begin(), row.end(), t);
             it != row.end(); ++it) {
          const std::size_t q = *it / k_;
          const std::size_t d = *it - q * k_;
          const EdgeId g = pair_edge_[q];
          const VertexId u = pair_vertex_[q];
          const bool e_vertex = u == v && d != c;
          const bool e_edge = g == e;
          const bool e_color = d == c && u != v && (in_e[u] || holds_v[g]);
          PSL_CHECK_MSG(e_vertex || e_edge || e_color,
                        "conflict-graph edge outside all classes");
          counts.e_vertex += e_vertex;
          counts.e_edge += e_edge;
          counts.e_color += e_color;
          ++counts.total;
        }
      }
      for (const EdgeId g : h_.edges_of(v)) holds_v[g] = 0;
    }
    for (const VertexId u : h_.edge(e)) in_e[u] = 0;
  }
  return counts;
}

}  // namespace pslocal
