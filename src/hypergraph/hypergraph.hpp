// Hypergraph H = (V, E), the input structure of the conflict-free
// multicoloring problem (paper, Section 1).
//
// Vertices are dense ids 0..n-1.  Hyperedges keep stable ids 0..m-1 and
// are stored flat, in CSR form as Graph is: edge e is the sorted run
// vertices[edge_offsets[e], edge_offsets[e+1]) of distinct vertices, and
// the incidence index is a second CSR whose row v lists the edges that
// contain v in ascending id order.  Both constructors validate through
// one routine, so a nested edge list and a flat one (the wire decoder's)
// store the same instance.  The Theorem 1.1 reduction runs on *edge
// subsets* H_i = (V, E_i) of the original hypergraph, represented by
// `restrict_edges`, which preserves original edge ids through
// `original_edge_id`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace pslocal {

using EdgeId = std::uint32_t;

class Hypergraph {
 public:
  Hypergraph() = default;

  /// Construct from explicit edge lists.  Each edge must be non-empty with
  /// distinct in-range vertices (any order; stored sorted).
  Hypergraph(std::size_t n, std::vector<std::vector<VertexId>> edges);

  /// Adopt flat edge rows: edge e is vertices[edge_offsets[e],
  /// edge_offsets[e+1]), so edge_offsets has m + 1 entries, starting at
  /// 0 and ending at vertices.size().  The rows carry the constructor's
  /// contract (non-empty, distinct, in range, any order; stored sorted)
  /// and are checked with its messages.
  static Hypergraph from_csr(std::size_t n,
                             std::vector<std::size_t> edge_offsets,
                             std::vector<VertexId> vertices);

  [[nodiscard]] std::size_t vertex_count() const { return n_; }
  [[nodiscard]] std::size_t edge_count() const { return original_ids_.size(); }

  /// Vertices of edge e, sorted ascending.
  [[nodiscard]] std::span<const VertexId> edge(EdgeId e) const {
    PSL_EXPECTS(e < edge_count());
    return {vertices_.data() + edge_offsets_[e],
            vertices_.data() + edge_offsets_[e + 1]};
  }

  [[nodiscard]] std::size_t edge_size(EdgeId e) const { return edge(e).size(); }

  /// Edges incident to vertex v, ascending.
  [[nodiscard]] std::span<const EdgeId> edges_of(VertexId v) const {
    PSL_EXPECTS(v < n_);
    return {incidence_.data() + incidence_offsets_[v],
            incidence_.data() + incidence_offsets_[v + 1]};
  }

  [[nodiscard]] std::size_t vertex_degree(VertexId v) const {
    return edges_of(v).size();
  }

  /// O(log |e|) membership test.
  [[nodiscard]] bool edge_contains(EdgeId e, VertexId v) const;

  /// Maximum / minimum edge size (rank / corank); 0 for edgeless H.
  [[nodiscard]] std::size_t rank() const;
  [[nodiscard]] std::size_t corank() const;

  /// The primal graph (a.k.a. communication graph in the LOCAL model over
  /// hypergraphs): u ~ v iff they share at least one hyperedge.
  [[nodiscard]] Graph primal_graph() const;

  /// The bipartite incidence graph: vertices 0..n-1 are the hypergraph
  /// vertices, vertices n..n+m-1 represent the hyperedges, with an edge
  /// v ~ (n + e) iff v ∈ e.  The alternative communication topology used
  /// by distributed hypergraph algorithms where hyperedges are agents.
  [[nodiscard]] Graph incidence_graph() const;

  /// Sub-hypergraph on the same vertex set keeping only the edges with
  /// keep[e] == true.  `original_edge_id(e')` on the result maps back.
  [[nodiscard]] Hypergraph restrict_edges(const std::vector<bool>& keep) const;

  /// Identity for directly constructed hypergraphs; for restrictions,
  /// the id of this edge in the hypergraph it was restricted from.
  [[nodiscard]] EdgeId original_edge_id(EdgeId e) const {
    PSL_EXPECTS(e < edge_count());
    return original_ids_[e];
  }

 private:
  /// The one validating routine: checks and sorts every edge row in id
  /// order, then fills the incidence index with one counting pass.
  void index_edges();

  std::size_t n_ = 0;
  std::vector<std::size_t> edge_offsets_;  // m + 1 entries once built
  std::vector<VertexId> vertices_;
  std::vector<std::size_t> incidence_offsets_;  // n + 1 entries once built
  std::vector<EdgeId> incidence_;
  std::vector<EdgeId> original_ids_;  // m entries; defines edge_count()
};

}  // namespace pslocal
