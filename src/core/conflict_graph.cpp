#include "core/conflict_graph.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
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
  Block b{own, first_triple, g.size(), shared_.size(), 0};
  if (!own) {
    for (std::size_t i = 0, j = 0; i < g.size() && j < e.size();) {
      if (g[i] < e[j]) {
        ++i;
      } else if (e[j] < g[i]) {
        ++j;
      } else {
        shared_.emplace_back(i++, j++);
      }
    }
  }
  b.shared_end = shared_.size();
  blocks_.push_back(b);
}

std::size_t ConflictRows::position_in(const Block& b, std::size_t i) const {
  const auto* first = shared_.data() + b.shared_begin;
  const auto* last = shared_.data() + b.shared_end;
  const auto it = std::lower_bound(
      first, last, i, [](const auto& s, std::size_t x) { return s.second < x; });
  return it != last && it->second == i ? it->first : b.size;
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
void ConflictRows::write_row(std::size_t i, std::size_t c,
                             VertexId* out) const {
  const std::size_t c0 = c - 1;
  for (const Block& b : blocks_) {
    if (b.own) {
      const std::size_t self = b.first_triple + i * k_ + c0;
      for (std::size_t t = b.first_triple; t < b.first_triple + b.size * k_;
           ++t)
        if (t != self) *out++ = static_cast<VertexId>(t);
      continue;
    }
    const std::size_t pv = position_in(b, i);
    if (pv < b.size) {
      for (std::size_t j = 0; j < b.size; ++j) {
        const std::size_t pair_first = b.first_triple + j * k_;
        if (j != pv) {
          *out++ = static_cast<VertexId>(pair_first + c0);
          continue;
        }
        for (std::size_t d = 0; d < k_; ++d)
          if (d != c0) *out++ = static_cast<VertexId>(pair_first + d);
      }
    } else {
      for (std::size_t s = b.shared_begin; s < b.shared_end; ++s)
        *out++ = static_cast<VertexId>(b.first_triple +
                                       shared_[s].first * k_ + c0);
    }
  }
}

ConflictGraph::ConflictGraph(Hypergraph h, std::size_t k,
                             runtime::Scheduler& sched)
    : h_(std::move(h)), k_(k) {
  PSL_EXPECTS(k_ >= 1);
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

  // CSR in two passes over hyperedges, row lengths then rows.  Each
  // chunk writes only the rows of its own edges' triples.
  std::vector<std::size_t> offsets(n_triples + 1, 0);
  runtime::parallel_for(sched, {m, 0}, [&](std::size_t lo, std::size_t hi) {
    ConflictRows rows(k_);
    for (EdgeId e = lo; e < hi; ++e) {
      rows.load(h_, edge_pair_offset_, e);
      for (std::size_t i = 0; i < h_.edge_size(e); ++i)
        std::fill_n(&offsets[(edge_pair_offset_[e] + i) * k_ + 1], k_,
                    rows.row_size(i));
    }
  });
  for (std::size_t t = 0; t < n_triples; ++t) offsets[t + 1] += offsets[t];
  std::vector<VertexId> neighbors(offsets.back());
  runtime::parallel_for(sched, {m, 0}, [&](std::size_t lo, std::size_t hi) {
    ConflictRows rows(k_);
    for (EdgeId e = lo; e < hi; ++e) {
      rows.load(h_, edge_pair_offset_, e);
      for (std::size_t i = 0; i < h_.edge_size(e); ++i)
        for (std::size_t c = 1; c <= k_; ++c) {
          const std::size_t t = (edge_pair_offset_[e] + i) * k_ + (c - 1);
          rows.write_row(i, c, neighbors.data() + offsets[t]);
        }
    }
  });

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

ConflictGraph::ClassCounts ConflictGraph::count_edge_classes() const {
  ClassCounts counts;
  for (auto [a, b] : graph_.edges()) {
    const unsigned mask = edge_class_mask(a, b);
    PSL_CHECK_MSG(mask != 0, "conflict-graph edge outside all classes");
    if (mask & kEVertex) ++counts.e_vertex;
    if (mask & kEEdge) ++counts.e_edge;
    if (mask & kEColor) ++counts.e_color;
    ++counts.total;
  }
  return counts;
}

}  // namespace pslocal
