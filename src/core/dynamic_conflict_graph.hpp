// Delta-maintained conflict graph: G_k patched in place per mutation
// instead of rebuilt from scratch.
//
// Why edge-local patching is *exact* here: every G_k edge class
// (core/conflict_graph.hpp) is defined by a predicate that references
// only the two endpoint triples' own hyperedges —
//
//   E_vertex {(e,v,c),(g,v,d)}  mentions e and g,
//   E_edge   {(e,v,c),(e,u,d)}  mentions e,
//   E_color  {(e,v,c),(g,u,c)}  mentions e and g ({u,v} ⊆ e or ⊆ g).
//
// So every G_k edge created or destroyed by mutating hyperedge e is
// incident to a triple of e.  A mutation therefore removes the triple
// blocks of the touched hyperedges, renumbers the survivors (their
// adjacency is *remapped*, never re-derived), and computes rows only for
// the fresh blocks — with ConflictRows, the row enumerator ConflictGraph
// builds from, so the edge classes are written down once.  Each
// survivor next to a fresh block merges the fresh ids that name it into
// its sorted row.  remove_vertex is handled as "remove the old edge
// block, re-attach the shrunk edge at the same position", which keeps
// one endpoint of every affected pair inside a touched block.
//
// The renumbering pass is O(|G_k|) (a linear remap of the survivor
// adjacency); what the delta path saves is enumerating the rows of every
// block — and, one level up, MIS *repair* (mis/repair.hpp) instead of a
// full re-solve.
//
// Canonical layout is identical to ConflictGraph: incidence pairs (e, v)
// laid out edge-by-edge in sorted-vertex order, triple_id =
// pair * k + (c - 1).  snapshot() must equal a fresh
// ConflictGraph(hypergraph(), k).graph() after every mutation, and
// graph_hash() streams exactly hash_graph's encoding — both are pinned
// by tests and the mis_repair_vs_recompute qc differential.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/conflict_graph.hpp"
#include "hypergraph/mutation.hpp"
#include "runtime/global.hpp"

namespace pslocal {

class DynamicConflictGraph {
 public:
  /// remap[] value for triples dropped by a mutation.
  static constexpr TripleId kRemoved = static_cast<TripleId>(-1);

  DynamicConflictGraph() = default;

  /// Seed from a hypergraph (builds G_k once via ConflictGraph).  The
  /// scheduler parameter is unused; it stays so existing callers compile.
  explicit DynamicConflictGraph(const Hypergraph& h, std::size_t k,
                                runtime::Scheduler& sched =
                                    runtime::global_scheduler());

  /// Seed from an already-built conflict graph (no rebuild).
  explicit DynamicConflictGraph(const ConflictGraph& cg);

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t vertex_count() const { return n_; }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] std::size_t triple_count() const { return adj_.size(); }
  [[nodiscard]] std::size_t gk_edge_count() const { return gk_edges_; }

  [[nodiscard]] std::span<const VertexId> hyperedge(EdgeId e) const {
    PSL_EXPECTS(e < edges_.size());
    return edges_[e];
  }

  [[nodiscard]] std::span<const TripleId> neighbors(TripleId t) const {
    PSL_EXPECTS(t < adj_.size());
    return *adj_[t];
  }

  /// Decode a triple id under the current layout.
  [[nodiscard]] Triple triple(TripleId t) const;

  /// What one mutation did to the triple id space and the edge set.
  struct Delta {
    /// Pre-mutation ids of dropped triples (blocks of deleted and
    /// content-changed hyperedges), ascending.
    std::vector<TripleId> removed;
    /// Post-mutation ids of fresh triples (blocks of appended and
    /// content-changed hyperedges), ascending.
    std::vector<TripleId> added;
    /// Post-mutation ids whose adjacency changed — fresh triples plus
    /// survivors that lost or gained a neighbor.  This is the dirty
    /// region MIS repair re-solves around.  Ascending.
    std::vector<TripleId> dirty;
    /// Old triple id -> new triple id; kRemoved for dropped triples.
    /// Strictly increasing over survivors (sorted lists stay sorted
    /// under remapping).
    std::vector<TripleId> remap;
    std::size_t gk_edges_removed = 0;
    std::size_t gk_edges_added = 0;
  };

  /// Apply one mutation; PSL_CHECKs validate_mutation.
  Delta apply(const Mutation& mut);

  /// Materialize the current hypergraph (reference semantics: equals
  /// apply_script(base, script-so-far)).
  [[nodiscard]] Hypergraph hypergraph() const;

  /// == hash_hypergraph(hypergraph()), streamed without materializing.
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Materialize the current G_k; must equal
  /// ConflictGraph(hypergraph(), k).graph() bit for bit.  The rows are
  /// kept sorted, so this only concatenates them.  The scheduler
  /// parameter is unused; it stays so existing callers compile.
  [[nodiscard]] Graph snapshot(runtime::Scheduler& =
                                   runtime::global_scheduler()) const;

  /// == hash_graph(snapshot()), streamed without materializing.
  [[nodiscard]] std::uint64_t graph_hash() const;

  /// alpha(G_k) <= current edge count (the E_edge cliques partition
  /// V(G_k) into m cliques; see ConflictGraph::independence_upper_bound).
  [[nodiscard]] std::size_t independence_upper_bound() const {
    return edges_.size();
  }

  /// How many adjacency rows this graph shares (pointer-identical row
  /// storage) with `other`, compared position-wise over the common id
  /// range.  Copies share every row; apply() reallocates only the rows a
  /// mutation actually rewrites, so this is the structural-sharing probe
  /// the session-store memory pin reads.
  [[nodiscard]] std::size_t shared_rows_with(
      const DynamicConflictGraph& other) const;

 private:
  /// One adjacency row, shared copy-on-write across graph copies.  The
  /// session store keeps many MutationStates that differ by a script
  /// suffix; sharing unchanged rows makes a stored copy cost O(rows the
  /// divergent suffix rewrites), not O(|G_k|).  Rows are immutable once
  /// published — apply() builds replacements and swaps pointers.
  using Row = std::shared_ptr<const std::vector<TripleId>>;

  void rebuild_incidence();
  void rebuild_pair_offsets();

  std::size_t n_ = 0;
  std::size_t k_ = 1;
  std::vector<std::vector<VertexId>> edges_;    // sorted vertex lists
  std::vector<std::vector<EdgeId>> incidence_;  // vertex -> edges, ascending
  std::vector<std::size_t> pair_offset_;        // edge -> first pair (m+1)
  std::vector<Row> adj_;  // triple -> sorted neighbors (COW rows)
  std::size_t gk_edges_ = 0;
};

}  // namespace pslocal
