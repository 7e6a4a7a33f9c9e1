// Immutable simple undirected graph in CSR (compressed sparse row) form.
//
// All algorithms in the library take `const Graph&`.  Mutation happens only
// through GraphBuilder; this keeps phase-based algorithms (the Theorem 1.1
// reduction re-derives graphs every phase) free of aliasing surprises.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace pslocal {

using VertexId = std::uint32_t;

class GraphBuilder;

class Graph {
 public:
  /// The empty graph.
  Graph() = default;

  /// Build from an explicit edge list (duplicates and self-loops rejected
  /// unless `dedup` is set, in which case they are silently dropped).
  static Graph from_edges(std::size_t n,
                          const std::vector<std::pair<VertexId, VertexId>>& edges,
                          bool dedup = false);

  /// Adopt a CSR as is: row v is neighbors[offsets[v], offsets[v+1]).
  /// Every row must be strictly ascending, in range and free of v
  /// itself, and the rows must hold each edge from both ends — then the
  /// result equals GraphBuilder::build on the same edge set.
  static Graph from_csr(std::vector<std::size_t> offsets,
                        std::vector<VertexId> neighbors);

  [[nodiscard]] std::size_t vertex_count() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  [[nodiscard]] std::size_t edge_count() const { return neighbors_.size() / 2; }

  /// Sorted neighbor list of v.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    PSL_EXPECTS(v < vertex_count());
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::size_t degree(VertexId v) const {
    PSL_EXPECTS(v < vertex_count());
    return offsets_[v + 1] - offsets_[v];
  }

  [[nodiscard]] std::size_t max_degree() const;
  [[nodiscard]] double average_degree() const;

  /// O(log deg) membership test on the sorted adjacency list.
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// All edges as (u, v) with u < v, ascending.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edges() const;

  [[nodiscard]] bool operator==(const Graph& other) const = default;

 private:
  friend class GraphBuilder;

  std::vector<std::size_t> offsets_{0};
  std::vector<VertexId> neighbors_;
};

/// Incremental graph construction; deduplicates edges and drops self-loops.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t n) : n_(n) {}

  /// Add undirected edge {u, v}.  Self-loops are ignored; duplicates are
  /// deduplicated at build() time.
  void add_edge(VertexId u, VertexId v);

  [[nodiscard]] std::size_t vertex_count() const { return n_; }
  [[nodiscard]] std::size_t pending_edge_count() const { return edges_.size(); }

  /// Finalize into an immutable Graph.  The builder is left empty.
  [[nodiscard]] Graph build();

 private:
  std::size_t n_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace pslocal
