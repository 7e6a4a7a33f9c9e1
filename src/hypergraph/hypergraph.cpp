#include "hypergraph/hypergraph.hpp"

#include <algorithm>
#include <numeric>

namespace pslocal {

Hypergraph::Hypergraph(std::size_t n,
                       std::vector<std::vector<VertexId>> edges) {
  std::vector<std::size_t> offsets;
  offsets.reserve(edges.size() + 1);
  offsets.push_back(0);
  for (const auto& verts : edges)
    offsets.push_back(offsets.back() + verts.size());
  std::vector<VertexId> vertices;
  vertices.reserve(offsets.back());
  for (const auto& verts : edges)
    vertices.insert(vertices.end(), verts.begin(), verts.end());
  *this = from_csr(n, std::move(offsets), std::move(vertices));
}

Hypergraph Hypergraph::from_csr(std::size_t n,
                                std::vector<std::size_t> edge_offsets,
                                std::vector<VertexId> vertices) {
  Hypergraph h;
  h.n_ = n;
  h.edge_offsets_ = std::move(edge_offsets);
  h.vertices_ = std::move(vertices);
  h.index_edges();
  h.original_ids_.resize(h.edge_offsets_.size() - 1);
  std::iota(h.original_ids_.begin(), h.original_ids_.end(), EdgeId{0});
  return h;
}

void Hypergraph::index_edges() {
  PSL_EXPECTS(!edge_offsets_.empty() && edge_offsets_.front() == 0 &&
              edge_offsets_.back() == vertices_.size() &&
              std::is_sorted(edge_offsets_.begin(), edge_offsets_.end()));
  const std::size_t m = edge_offsets_.size() - 1;
  for (std::size_t e = 0; e < m; ++e) {
    const std::span<VertexId> verts(vertices_.data() + edge_offsets_[e],
                                    vertices_.data() + edge_offsets_[e + 1]);
    PSL_EXPECTS_MSG(!verts.empty(), "hyperedge " << e << " is empty");
    std::sort(verts.begin(), verts.end());
    PSL_EXPECTS_MSG(
        std::adjacent_find(verts.begin(), verts.end()) == verts.end(),
        "hyperedge " << e << " has duplicate vertices");
    PSL_EXPECTS_MSG(verts.back() < n_,
                    "hyperedge " << e << " vertex out of range");
  }
  // Count each vertex's degree and prefix-sum, so entry v ends row v.
  // Filling the rows from their ends while walking the edges from the
  // last one down leaves every row ascending and entry v at its start.
  incidence_offsets_.assign(n_ + 1, 0);
  for (const VertexId v : vertices_) ++incidence_offsets_[v];
  std::partial_sum(incidence_offsets_.begin(), incidence_offsets_.end(),
                   incidence_offsets_.begin());
  incidence_.resize(vertices_.size());
  for (std::size_t e = m; e-- > 0;)
    for (std::size_t i = edge_offsets_[e]; i < edge_offsets_[e + 1]; ++i)
      incidence_[--incidence_offsets_[vertices_[i]]] = static_cast<EdgeId>(e);
}

bool Hypergraph::edge_contains(EdgeId e, VertexId v) const {
  const auto verts = edge(e);
  return std::binary_search(verts.begin(), verts.end(), v);
}

std::size_t Hypergraph::rank() const {
  std::size_t r = 0;
  for (EdgeId e = 0; e < edge_count(); ++e) r = std::max(r, edge_size(e));
  return r;
}

std::size_t Hypergraph::corank() const {
  if (edge_count() == 0) return 0;
  std::size_t r = edge_size(0);
  for (EdgeId e = 0; e < edge_count(); ++e) r = std::min(r, edge_size(e));
  return r;
}

Graph Hypergraph::primal_graph() const {
  GraphBuilder b(n_);
  for (EdgeId e = 0; e < edge_count(); ++e) {
    const auto verts = edge(e);
    for (std::size_t i = 0; i < verts.size(); ++i)
      for (std::size_t j = i + 1; j < verts.size(); ++j)
        b.add_edge(verts[i], verts[j]);
  }
  return b.build();
}

Graph Hypergraph::incidence_graph() const {
  GraphBuilder b(n_ + edge_count());
  for (EdgeId e = 0; e < edge_count(); ++e)
    for (VertexId v : edge(e))
      b.add_edge(v, static_cast<VertexId>(n_ + e));
  return b.build();
}

Hypergraph Hypergraph::restrict_edges(const std::vector<bool>& keep) const {
  PSL_EXPECTS(keep.size() == edge_count());
  Hypergraph h;
  h.n_ = n_;
  h.edge_offsets_.push_back(0);
  for (EdgeId e = 0; e < edge_count(); ++e) {
    if (!keep[e]) continue;
    const auto verts = edge(e);
    h.vertices_.insert(h.vertices_.end(), verts.begin(), verts.end());
    h.edge_offsets_.push_back(h.vertices_.size());
    h.original_ids_.push_back(original_ids_[e]);
  }
  h.index_edges();
  return h;
}

}  // namespace pslocal
