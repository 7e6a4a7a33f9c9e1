#include "graph/graph.hpp"

#include <algorithm>

namespace pslocal {

Graph Graph::from_csr(std::vector<std::size_t> offsets,
                      std::vector<VertexId> neighbors) {
  PSL_EXPECTS(!offsets.empty() && offsets.front() == 0 &&
              offsets.back() == neighbors.size());
  const std::size_t n = offsets.size() - 1;
  std::size_t upper = 0;  // entries (u, v) with u < v
  for (std::size_t u = 0; u < n; ++u) {
    PSL_EXPECTS(offsets[u] <= offsets[u + 1]);
    for (std::size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const VertexId v = neighbors[i];
      PSL_EXPECTS_MSG(v < n && v != u &&
                          (i == offsets[u] || neighbors[i - 1] < v),
                      "row " << u << " entry " << v
                             << " breaks a sorted loop-free CSR for n=" << n);
      if (u < v) ++upper;
    }
  }
  PSL_EXPECTS_MSG(2 * upper == neighbors.size(),
                  "CSR rows do not hold each edge from both ends");
  Graph g;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  return g;
}

Graph Graph::from_edges(std::size_t n,
                        const std::vector<std::pair<VertexId, VertexId>>& edges,
                        bool dedup) {
  GraphBuilder b(n);
  for (auto [u, v] : edges) {
    if (dedup && u == v) continue;
    PSL_EXPECTS_MSG(u != v, "self-loop " << u);
    b.add_edge(u, v);
  }
  Graph g = b.build();
  if (!dedup) {
    PSL_CHECK_MSG(g.edge_count() == edges.size(),
                  "duplicate edges in input edge list");
  }
  return g;
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (VertexId v = 0; v < vertex_count(); ++v) d = std::max(d, degree(v));
  return d;
}

double Graph::average_degree() const {
  if (vertex_count() == 0) return 0.0;
  return 2.0 * static_cast<double>(edge_count()) /
         static_cast<double>(vertex_count());
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  PSL_EXPECTS(u < vertex_count() && v < vertex_count());
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<std::pair<VertexId, VertexId>> Graph::edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  out.reserve(edge_count());
  for (VertexId u = 0; u < vertex_count(); ++u)
    for (VertexId v : neighbors(u))
      if (u < v) out.emplace_back(u, v);
  return out;
}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  PSL_EXPECTS_MSG(u < n_ && v < n_,
                  "edge {" << u << "," << v << "} out of range n=" << n_);
  if (u == v) return;
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.offsets_.assign(n_ + 1, 0);
  for (auto [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.neighbors_.resize(edges_.size() * 2);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  // Scanning edges in (u, v) order fills every CSR row ascending: row x
  // first receives the u's of edges (u, x) in increasing u (< x), then
  // the v's of edges (x, v) in increasing v (> x).  No per-row sort.
  for (auto [u, v] : edges_) {
    g.neighbors_[cursor[u]++] = v;
    g.neighbors_[cursor[v]++] = u;
  }
  edges_.clear();
  return g;
}

}  // namespace pslocal
