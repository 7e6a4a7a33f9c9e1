#include "core/dynamic_conflict_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "hypergraph/generators.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pslocal {
namespace {

/// Draw one mutation that is valid for the current (n, edges) state.
Mutation random_valid_mutation(std::size_t n,
                               const std::vector<std::vector<VertexId>>& edges,
                               Rng& rng) {
  for (;;) {
    switch (rng.next_below(4)) {
      case 0: {  // add_edge: random distinct subset of size 1..4
        const std::size_t size =
            1 + static_cast<std::size_t>(rng.next_below(std::min<std::uint64_t>(4, n)));
        std::vector<VertexId> vs;
        while (vs.size() < size) {
          const auto v = static_cast<VertexId>(rng.next_below(n));
          if (std::find(vs.begin(), vs.end(), v) == vs.end()) vs.push_back(v);
        }
        return Mutation::add_edge(std::move(vs));
      }
      case 1:
        if (edges.empty()) continue;
        return Mutation::remove_edge(
            static_cast<EdgeId>(rng.next_below(edges.size())));
      case 2:
        return Mutation::add_vertex();
      default:
        return Mutation::remove_vertex(
            static_cast<VertexId>(rng.next_below(n)));
    }
  }
}

/// The pinned equivalence: after every step the patched graph must be
/// bit-identical to a from-scratch rebuild on the mutated hypergraph.
void check_against_rebuild(const DynamicConflictGraph& dyn) {
  const Hypergraph h = dyn.hypergraph();
  const ConflictGraph rebuilt(h, dyn.k());
  const Graph snap = dyn.snapshot();
  ASSERT_EQ(snap, rebuilt.graph());
  EXPECT_EQ(dyn.gk_edge_count(), rebuilt.graph().edge_count());
  EXPECT_EQ(dyn.triple_count(), rebuilt.triple_count());
  EXPECT_EQ(dyn.graph_hash(), hash_graph(rebuilt.graph()));
  EXPECT_EQ(dyn.content_hash(), hash_hypergraph(h));
}

TEST(DynamicConflictGraphTest, SeedMatchesConflictGraph) {
  const Hypergraph h(6, {{0, 1, 2}, {2, 3}, {3, 4, 5}});
  const ConflictGraph cg(h, 3);
  const DynamicConflictGraph from_cg(cg);
  const DynamicConflictGraph from_h(h, 3);
  EXPECT_EQ(from_cg.snapshot(), cg.graph());
  EXPECT_EQ(from_h.snapshot(), cg.graph());
  EXPECT_EQ(from_cg.gk_edge_count(), cg.graph().edge_count());
  EXPECT_EQ(from_h.graph_hash(), hash_graph(cg.graph()));
}

TEST(DynamicConflictGraphTest, AddVertexIsIdentityDelta) {
  const Hypergraph h(3, {{0, 1}, {1, 2}});
  DynamicConflictGraph dyn(h, 2);
  const auto before = dyn.triple_count();
  const auto delta = dyn.apply(Mutation::add_vertex());
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.dirty.empty());
  ASSERT_EQ(delta.remap.size(), before);
  for (TripleId t = 0; t < before; ++t) EXPECT_EQ(delta.remap[t], t);
  EXPECT_EQ(dyn.vertex_count(), 4u);
  check_against_rebuild(dyn);
}

TEST(DynamicConflictGraphTest, RemoveIsolatedVertexTouchesNothing) {
  const Hypergraph h(4, {{0, 1}});  // vertices 2, 3 isolated
  DynamicConflictGraph dyn(h, 2);
  const auto delta = dyn.apply(Mutation::remove_vertex(3));
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_TRUE(delta.dirty.empty());
  EXPECT_EQ(delta.gk_edges_removed, 0u);
  EXPECT_EQ(delta.gk_edges_added, 0u);
  check_against_rebuild(dyn);
}

TEST(DynamicConflictGraphTest, AddEdgeDeltaCountsReconcile) {
  const Hypergraph h(5, {{0, 1, 2}});
  DynamicConflictGraph dyn(h, 2);
  const auto edges_before = dyn.gk_edge_count();
  const auto delta = dyn.apply(Mutation::add_edge({1, 3}));
  EXPECT_EQ(delta.gk_edges_removed, 0u);  // nothing touched the old block
  EXPECT_EQ(dyn.gk_edge_count(), edges_before + delta.gk_edges_added);
  EXPECT_EQ(delta.added.size(), 2u * 2u);  // |{1,3}| pairs * k colors
  // The fresh block is dirty, and so is every old triple it attached to.
  for (const TripleId t : delta.added)
    EXPECT_TRUE(std::binary_search(delta.dirty.begin(), delta.dirty.end(), t));
  check_against_rebuild(dyn);
}

TEST(DynamicConflictGraphTest, RemoveEdgeRemapIsMonotone) {
  const Hypergraph h(6, {{0, 1}, {1, 2, 3}, {3, 4, 5}});
  DynamicConflictGraph dyn(h, 2);
  const auto before = dyn.triple_count();
  const auto delta = dyn.apply(Mutation::remove_edge(1));
  ASSERT_EQ(delta.remap.size(), before);
  TripleId last = 0;
  bool first = true;
  for (TripleId t = 0; t < before; ++t) {
    if (delta.remap[t] == DynamicConflictGraph::kRemoved) continue;
    if (!first) {
      EXPECT_GT(delta.remap[t], last);
    }
    last = delta.remap[t];
    first = false;
  }
  EXPECT_EQ(delta.removed.size(), 3u * 2u);  // block of edge 1
  check_against_rebuild(dyn);
}

TEST(DynamicConflictGraphTest, RandomScriptsMatchRebuildAtEveryPrefix) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    PlantedCfParams params;
    params.n = 12 + (seed % 3) * 2;
    params.m = 8 + (seed % 4) * 2;
    params.k = 2 + (seed % 2);
    auto inst = planted_cf_colorable(params, rng);
    DynamicConflictGraph dyn(inst.hypergraph, inst.k);

    std::size_t n = inst.hypergraph.vertex_count();
    std::vector<std::vector<VertexId>> edges;
    for (EdgeId e = 0; e < inst.hypergraph.edge_count(); ++e) {
      const auto vs = inst.hypergraph.edge(e);
      edges.emplace_back(vs.begin(), vs.end());
    }

    for (int step = 0; step < 10; ++step) {
      const Mutation mut = random_valid_mutation(n, edges, rng);
      apply_mutation(n, edges, mut);
      const auto delta = dyn.apply(mut);
      EXPECT_EQ(dyn.vertex_count(), n);
      EXPECT_EQ(dyn.edge_count(), edges.size());
      // Dirty ids are valid, sorted, and include every fresh triple.
      EXPECT_TRUE(std::is_sorted(delta.dirty.begin(), delta.dirty.end()));
      for (const TripleId t : delta.dirty) EXPECT_LT(t, dyn.triple_count());
      for (const TripleId t : delta.added)
        EXPECT_TRUE(
            std::binary_search(delta.dirty.begin(), delta.dirty.end(), t));
      ASSERT_NO_FATAL_FAILURE(check_against_rebuild(dyn))
          << "seed " << seed << " step " << step << " mut " << describe(mut);
    }
  }
}

TEST(DynamicConflictGraphTest, HugeKIsRejectedEvenWithoutEdges) {
  // An edgeless start has 0 triples at any k; an added edge would then
  // multiply its incidences by k in apply().
  EXPECT_THROW(DynamicConflictGraph(Hypergraph(2, {}), std::size_t{1} << 63),
               ContractViolation);
}

TEST(DynamicConflictGraphTest, TripleDecodeTracksLayout) {
  const Hypergraph h(4, {{0, 1}, {1, 2, 3}});
  DynamicConflictGraph dyn(h, 2);
  (void)dyn.apply(Mutation::remove_edge(0));
  // After the removal the only block is {1,2,3}'s; pair 1 is vertex 2.
  const Triple t = dyn.triple(2);  // pair 1, color 1
  EXPECT_EQ(t.e, 0u);
  EXPECT_EQ(t.v, 2u);
  EXPECT_EQ(t.c, 1u);
}

}  // namespace
}  // namespace pslocal
