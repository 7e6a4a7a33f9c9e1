// Operational proof of the paper's simulability claim (Section 2):
//
//   "The conflict graph G_k can be efficiently simulated in H in the
//    LOCAL model."
//
// core/simulation.* analyzes the host mapping (dilation <= 1); this layer
// goes further and *executes* an arbitrary broadcast LOCAL algorithm on
// G_k through H: every hypergraph vertex v hosts its triples (?, v, ?);
// per physical round each host bundles the virtual messages of all its
// triples into one (unbounded) LOCAL message to its H-neighbors, and each
// receiving host routes payloads to its triples along G_k adjacency.
//
// Guarantees:
//  * routing legality: every G_k edge joins triples whose hosts coincide
//    or are adjacent in H's primal graph, checked for every edge before
//    the run, so every delivery takes one hop and one virtual round costs
//    exactly one physical round;
//  * semantic equivalence: the virtual execution *is* run_local() on G_k
//    (same per-node RNG streams, same inbox order), so with the same seed
//    it is bit-identical to running the algorithm directly on G_k — tests
//    assert equality of final states via the caller's comparator.
//
// A round observer bills the congestion figures (physical message bytes)
// that a bandwidth-capped model (CONGEST) would charge — quantifying how
// hard the simulation leans on LOCAL's unbounded messages.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "core/conflict_graph.hpp"
#include "graph/graph.hpp"
#include "local/simulator.hpp"
#include "util/check.hpp"

namespace pslocal {

template <typename State>
struct VirtualRunResult {
  std::vector<State> states;     // final state per triple (virtual node)
  std::size_t physical_rounds = 0;
  bool all_halted = false;
  /// Largest single host->neighbors physical payload in bytes (sum of the
  /// bundled virtual messages plus an 8-byte routing id each).
  std::size_t max_physical_message_bytes = 0;
  std::size_t total_physical_message_bytes = 0;
};

/// Execute `algo` on cg.graph(), hosted on cg.hypergraph()'s primal graph.
template <typename State, typename Msg>
VirtualRunResult<State> run_local_on_hosts(const ConflictGraph& cg,
                                           BroadcastAlgorithm<State, Msg>& algo,
                                           std::uint64_t seed,
                                           std::size_t max_rounds) {
  const Graph& gk = cg.graph();
  const Graph primal = cg.hypergraph().primal_graph();

  std::vector<VertexId> host_of(gk.vertex_count());
  for (TripleId t = 0; t < host_of.size(); ++t) host_of[t] = cg.triple(t).v;
  // Routing legality: every virtual edge must be deliverable in one hop.
  for (auto [a, b] : gk.edges()) {
    const VertexId ha = host_of[a], hb = host_of[b];
    PSL_CHECK_MSG(ha == hb || primal.has_edge(ha, hb),
                  "G_k edge " << a << "-" << b
                              << " spans non-adjacent hosts " << ha << ", "
                              << hb);
  }

  // Each round, every host sends one bundled message: the virtual
  // messages of its triples, plus a routing id each.
  VirtualRunResult<State> run;
  std::vector<std::size_t> host_bytes(cg.hypergraph().vertex_count());
  auto local = run_local(
      gk, algo, seed, max_rounds,
      [&](std::span<const std::optional<Msg>> outbox) {
        std::fill(host_bytes.begin(), host_bytes.end(), 0);
        for (TripleId t = 0; t < outbox.size(); ++t)
          if (outbox[t])
            host_bytes[host_of[t]] += algo.message_size(*outbox[t]) + 8;
        for (std::size_t bytes : host_bytes) {
          run.max_physical_message_bytes =
              std::max(run.max_physical_message_bytes, bytes);
          run.total_physical_message_bytes += bytes;
        }
      });
  run.states = std::move(local.states);
  run.physical_rounds = local.rounds;
  run.all_halted = local.all_halted;
  return run;
}

}  // namespace pslocal
