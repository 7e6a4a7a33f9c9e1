// The conflict graph G_k of conflict-free k-coloring a hypergraph H —
// the central construction of the paper (Section 2):
//
//   "The vertex set V(G_k) consists of all triples (e, v, c), e ∈ E(H),
//    v ∈ e, 1 <= c <= k.  The edge set E(G_k) is
//      E_vertex = {{(e,v,c),(g,v,d)} | v ∈ V(H), 1 <= c != d <= k}  ∪
//      E_edge   = {{(e,v,c),(e,u,d)} | e ∈ E(H), u,v ∈ e, 1 <= c,d <= k} ∪
//      E_color  = {{(e,v,c),(g,u,c)} | e,g ∈ E(H), 1 <= c <= k,
//                                      {u,v} ⊆ e or {u,v} ⊆ g}."
//
// Intuition: a triple (e, v, c) proposes "edge e is made happy by vertex v
// carrying color c".  E_vertex forbids giving one vertex two colors,
// E_edge forbids serving one edge twice, E_color forbids claiming c is
// unique for v while another vertex of the same edge also carries c.
//
// Reading note: in E_color we require u != v.  The paper's set notation
// "{u,v} ⊆ e" would admit u = v, but Lemma 2.1 a) only holds for the
// u != v reading (the proofs also argue with "a further node u != v");
// see the erratum note in conflict_graph.cpp for the derivation.
//
// Triples are densely indexed: the incidence pairs (e, v) are laid out
// edge-by-edge (in edge-vertex order), and triple_id = pair * k + (c-1),
// so the coloring<->IS correspondence maps are O(1)/O(log) per query.
//
// |V(G_k)| = k * sum_e |e|.  A single conflict-graph edge may fall into
// several of the three classes; edge_class_mask exposes the full tag.
// ConflictRows below is the one place the classes are enumerated.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "runtime/global.hpp"

namespace pslocal {

using TripleId = std::size_t;

/// A conflict-graph vertex: edge e of H, vertex v in e, color c in [1, k].
struct Triple {
  EdgeId e = 0;
  VertexId v = 0;
  std::size_t c = 1;

  [[nodiscard]] bool operator==(const Triple&) const = default;
};

/// The G_k rows of one hyperedge block at a time, sorted and
/// duplicate-free, straight from the hypergraph.  The triples of e can
/// only reach the blocks of e and of the edges g sharing a vertex with e
/// (the union of edges_of(u), u ∈ e, which holds edges_of(v) for every
/// v ∈ e).  load() lists those blocks in edge order; block by block, the
/// row of (e, v, c) is then
///   g == e:  every triple of e except (e, v, c)       E_edge
///   v ∈ g:   (g, v, d) for d != c                      E_vertex
///            and (g, u, c) for u ∈ g, u != v           E_color, {u,v} ⊆ g
///   v ∉ g:   (g, u, c) for u ∈ g ∩ e                   E_color, {u,v} ⊆ e
/// Blocks occupy ascending id ranges and a block is ordered by (vertex,
/// color), so the row comes out ascending, and its length does not
/// depend on c.  The k rows of (e, v, 1..k) are therefore consecutive
/// CSR rows of equal length, and write_rows() fills all k in one walk
/// over the blocks: per block, the color only shifts ids.  load() also
/// records, per block and per vertex of e, that vertex's position in the
/// block (a blocks × |e| table filled by the merge that finds g ∩ e), so
/// no row looks a vertex up.
class ConflictRows {
 public:
  explicit ConflictRows(std::size_t k) : k_(k) {}

  /// Prepare the rows of the triples of edge e.  `h` offers Hypergraph's
  /// edge(g) and edges_of(v) (both ascending); first_pair[g] is the
  /// incidence pair of g's first vertex.
  template <typename H>
  void load(const H& h, std::span<const std::size_t> first_pair, EdgeId e) {
    const std::span<const VertexId> own = h.edge(e);
    edges_.clear();
    for (const VertexId u : own) {
      const auto incident = h.edges_of(u);
      edges_.insert(edges_.end(), incident.begin(), incident.end());
    }
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
    blocks_.clear();
    shared_.clear();
    position_.clear();
    for (const EdgeId g : edges_)
      add_block(g == e, first_pair[g] * k_, h.edge(g), own);
  }

  /// Length of the row of (e, v, c), v the i-th vertex of e, for every c.
  [[nodiscard]] std::size_t row_size(std::size_t i) const;

  /// Write the rows of (e, v, 1), ..., (e, v, k), v the i-th vertex of
  /// e, back to back: k rows of row_size(i) ascending triple ids each.
  void write_rows(std::size_t i, VertexId* out) const;

 private:
  struct Block {
    bool own;                    // g == e
    std::size_t first_triple;    // id of (g, first vertex, 1)
    std::size_t size;            // |g|
    std::size_t shared_begin;    // [begin, end) of g ∩ e in shared_
    std::size_t shared_end;
    std::size_t position_begin;  // |e| entries of position_
  };

  void add_block(bool own, std::size_t first_triple,
                 std::span<const VertexId> g, std::span<const VertexId> e);
  /// Position in g of the i-th vertex of e, or g's size when absent.
  [[nodiscard]] std::size_t position_in(const Block& b, std::size_t i) const {
    return position_[b.position_begin + i];
  }

  std::size_t k_;
  std::vector<EdgeId> edges_;
  std::vector<Block> blocks_;
  /// Positions in g of g ∩ e per block, ascending.
  std::vector<std::size_t> shared_;
  /// Per block, the position in g of each vertex of e (g's size when
  /// absent), in e's vertex order.
  std::vector<std::size_t> position_;
};

class ConflictGraph {
 public:
  /// Build G_k for conflict-free k-coloring of h.  The hypergraph is
  /// copied so the conflict graph stays valid independently of h.
  /// PSL_EXPECTS 1 <= k < 2^32 and fewer than 2^32 triples.
  /// The row-length and row-fill passes of ConflictRows are plain loops
  /// over hyperedges, so the graph is a function of (h, k) alone.  The
  /// scheduler parameter is unused; it stays so existing callers compile.
  explicit ConflictGraph(Hypergraph h, std::size_t k,
                         runtime::Scheduler& sched =
                             runtime::global_scheduler());

  [[nodiscard]] const Hypergraph& hypergraph() const { return h_; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] const Graph& graph() const { return graph_; }

  [[nodiscard]] std::size_t triple_count() const {
    return graph_.vertex_count();
  }

  /// Decode a conflict-graph vertex id.
  [[nodiscard]] Triple triple(TripleId t) const;

  /// Encode (e, v, c); v must belong to edge e and 1 <= c <= k.
  [[nodiscard]] TripleId triple_id(EdgeId e, VertexId v, std::size_t c) const;

  /// Classification of a conflict-graph edge (a, b must be adjacent or at
  /// least valid triples): bit-or of the classes whose defining predicate
  /// the pair satisfies.
  enum EdgeClass : unsigned {
    kEVertex = 1u,
    kEEdge = 2u,
    kEColor = 4u,
  };
  [[nodiscard]] unsigned edge_class_mask(TripleId a, TripleId b) const;

  struct ClassCounts {
    std::size_t e_vertex = 0;  // edges satisfying the E_vertex predicate
    std::size_t e_edge = 0;
    std::size_t e_color = 0;
    std::size_t total = 0;     // distinct edges of G_k
  };
  /// Tally the classes over all edges of G_k (an edge counts once per
  /// class it belongs to; total counts it once).  Evaluates
  /// edge_class_mask's predicates row by row, in O(1) per edge.
  [[nodiscard]] ClassCounts count_edge_classes() const;

  /// alpha(G_k) <= m: the E_edge cliques {(e,?,?)} partition V(G_k) into
  /// m cliques (proof of Lemma 2.1 a).  With Lemma 2.1 a), equality holds
  /// whenever H admits a conflict-free k-coloring.
  [[nodiscard]] std::size_t independence_upper_bound() const {
    return h_.edge_count();
  }

 private:
  [[nodiscard]] std::size_t pair_of(EdgeId e, VertexId v) const;

  Hypergraph h_;
  std::size_t k_;
  Graph graph_;
  std::vector<std::size_t> edge_pair_offset_;  // edge -> first pair index
  std::vector<EdgeId> pair_edge_;              // pair -> edge
  std::vector<VertexId> pair_vertex_;          // pair -> vertex
};

}  // namespace pslocal
