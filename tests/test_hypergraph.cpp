#include "hypergraph/hypergraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hypergraph/properties.hpp"
#include "qc/gen.hpp"

namespace pslocal {
namespace {

Hypergraph make_sample() {
  // V = {0..5}; edges: {0,1,2}, {2,3}, {3,4,5}, {0,5}
  return Hypergraph(6, {{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}});
}

TEST(HypergraphTest, BasicAccessors) {
  const Hypergraph h = make_sample();
  EXPECT_EQ(h.vertex_count(), 6u);
  EXPECT_EQ(h.edge_count(), 4u);
  EXPECT_EQ(h.edge_size(0), 3u);
  EXPECT_EQ(h.rank(), 3u);
  EXPECT_EQ(h.corank(), 2u);
  EXPECT_TRUE(h.edge_contains(0, 1));
  EXPECT_FALSE(h.edge_contains(1, 1));
}

TEST(HypergraphTest, EdgesStoredSorted) {
  const Hypergraph h(4, {{3, 0, 2}});
  const auto e = h.edge(0);
  EXPECT_EQ(e[0], 0u);
  EXPECT_EQ(e[1], 2u);
  EXPECT_EQ(e[2], 3u);
}

TEST(HypergraphTest, IncidenceLists) {
  const Hypergraph h = make_sample();
  const auto of2 = h.edges_of(2);
  ASSERT_EQ(of2.size(), 2u);
  EXPECT_EQ(of2[0], 0u);
  EXPECT_EQ(of2[1], 1u);
  EXPECT_EQ(h.vertex_degree(1), 1u);
  EXPECT_EQ(h.vertex_degree(5), 2u);
}

TEST(HypergraphTest, ConstructionContracts) {
  EXPECT_THROW(Hypergraph(3, {{}}), ContractViolation);          // empty edge
  EXPECT_THROW(Hypergraph(3, {{0, 0}}), ContractViolation);      // duplicate
  EXPECT_THROW(Hypergraph(3, {{0, 3}}), ContractViolation);      // range
}

/// Two hypergraphs store the same instance, edge by edge and vertex by
/// vertex, with the same original ids.
void expect_same_instance(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    EXPECT_TRUE(std::ranges::equal(a.edge(e), b.edge(e))) << "edge " << e;
    EXPECT_EQ(a.original_edge_id(e), b.original_edge_id(e)) << "edge " << e;
  }
  for (VertexId v = 0; v < a.vertex_count(); ++v)
    EXPECT_TRUE(std::ranges::equal(a.edges_of(v), b.edges_of(v)))
        << "vertex " << v;
  EXPECT_EQ(a.rank(), b.rank());
  EXPECT_EQ(a.corank(), b.corank());
}

/// Each edge strictly ascending, and edges_of(v) exactly the ascending
/// ids of the edges that contain v.
void expect_consistent_index(const Hypergraph& h) {
  std::vector<std::vector<EdgeId>> incidence(h.vertex_count());
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    const auto verts = h.edge(e);
    EXPECT_TRUE(std::ranges::adjacent_find(verts, std::greater_equal<>()) ==
                verts.end())
        << "edge " << e;
    for (const VertexId v : verts) incidence[v].push_back(e);
  }
  for (VertexId v = 0; v < h.vertex_count(); ++v)
    EXPECT_TRUE(std::ranges::equal(h.edges_of(v), incidence[v]))
        << "vertex " << v;
}

TEST(HypergraphTest, FlatAndNestedPathsAgreeOnEveryQcFamily) {
  for (const std::string& family : qc::hyper_family_names()) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      SCOPED_TRACE(testing::Message() << family << " seed " << seed);
      const Hypergraph base = qc::make_family(family, seed).hypergraph;
      // Both paths get every edge reversed, so both must sort.
      std::vector<std::vector<VertexId>> rows;
      std::vector<std::size_t> offsets{0};
      std::vector<VertexId> flat;
      std::size_t rank = 0, corank = base.edge_count() == 0 ? 0 : SIZE_MAX;
      for (EdgeId e = 0; e < base.edge_count(); ++e) {
        const auto verts = base.edge(e);
        rows.emplace_back(verts.rbegin(), verts.rend());
        flat.insert(flat.end(), verts.rbegin(), verts.rend());
        offsets.push_back(flat.size());
        rank = std::max(rank, verts.size());
        corank = std::min(corank, verts.size());
      }
      const Hypergraph nested(base.vertex_count(), rows);
      const Hypergraph csr =
          Hypergraph::from_csr(base.vertex_count(), offsets, flat);
      expect_same_instance(nested, base);
      expect_same_instance(csr, base);
      expect_consistent_index(csr);
      EXPECT_EQ(csr.rank(), rank);
      EXPECT_EQ(csr.corank(), corank);

      // Every third edge dropped, then every other survivor: the ids
      // map back to the root instance through both restrictions.
      std::vector<bool> keep(base.edge_count());
      std::vector<EdgeId> kept;
      for (EdgeId e = 0; e < base.edge_count(); ++e)
        if ((keep[e] = e % 3 != 1)) kept.push_back(e);
      const Hypergraph restricted = csr.restrict_edges(keep);
      expect_same_instance(restricted, nested.restrict_edges(keep));
      expect_consistent_index(restricted);
      ASSERT_EQ(restricted.edge_count(), kept.size());
      std::vector<bool> keep_again(kept.size());
      std::vector<EdgeId> kept_again;
      for (EdgeId e = 0; e < kept.size(); ++e) {
        EXPECT_EQ(restricted.original_edge_id(e), kept[e]);
        EXPECT_TRUE(std::ranges::equal(restricted.edge(e), base.edge(kept[e])));
        if ((keep_again[e] = e % 2 == 0)) kept_again.push_back(kept[e]);
      }
      const Hypergraph twice = restricted.restrict_edges(keep_again);
      expect_consistent_index(twice);
      ASSERT_EQ(twice.edge_count(), kept_again.size());
      for (EdgeId e = 0; e < kept_again.size(); ++e)
        EXPECT_EQ(twice.original_edge_id(e), kept_again[e]);
    }
  }
}

TEST(HypergraphTest, FlatConstructionChecksWithTheNestedMessages) {
  // Both constructors validate through one routine, so a bad edge gets
  // the same contract text on either path.
  const auto message = [](const auto& build) {
    try {
      build();
    } catch (const ContractViolation& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "no contract violation";
    return std::string();
  };
  const std::vector<std::vector<std::vector<VertexId>>> bad = {
      {{0, 1}, {}}, {{1, 2}, {2, 0, 2}}, {{0, 1}, {3, 1}}};
  const char* const expected[] = {"hyperedge 1 is empty",
                                  "hyperedge 1 has duplicate vertices",
                                  "hyperedge 1 vertex out of range"};
  for (std::size_t i = 0; i < bad.size(); ++i) {
    std::vector<std::size_t> offsets{0};
    std::vector<VertexId> flat;
    for (const auto& row : bad[i]) {
      flat.insert(flat.end(), row.begin(), row.end());
      offsets.push_back(flat.size());
    }
    const std::string nested = message([&] { (void)Hypergraph(3, bad[i]); });
    const std::string csr =
        message([&] { (void)Hypergraph::from_csr(3, offsets, flat); });
    EXPECT_EQ(nested, csr);
    EXPECT_TRUE(nested.ends_with(std::string(" — ") + expected[i])) << nested;
  }
  // Offsets that are not a CSR over the vertex array.
  EXPECT_THROW((void)Hypergraph::from_csr(3, {}, {}), ContractViolation);
  EXPECT_THROW((void)Hypergraph::from_csr(3, {1, 2}, {0, 1}),
               ContractViolation);
  EXPECT_THROW((void)Hypergraph::from_csr(3, {0, 1}, {0, 1}),
               ContractViolation);
  EXPECT_THROW((void)Hypergraph::from_csr(3, {0, 3, 2}, {0, 1}),
               ContractViolation);
}

TEST(HypergraphTest, PrimalGraph) {
  const Hypergraph h = make_sample();
  const Graph p = h.primal_graph();
  EXPECT_TRUE(p.has_edge(0, 1));
  EXPECT_TRUE(p.has_edge(0, 2));
  EXPECT_TRUE(p.has_edge(2, 3));
  EXPECT_TRUE(p.has_edge(0, 5));
  EXPECT_FALSE(p.has_edge(1, 3));
  EXPECT_EQ(p.edge_count(), 3u + 1 + 3 + 1);
}

TEST(HypergraphTest, RestrictEdgesKeepsOriginalIds) {
  const Hypergraph h = make_sample();
  const Hypergraph h2 = h.restrict_edges({true, false, true, false});
  EXPECT_EQ(h2.edge_count(), 2u);
  EXPECT_EQ(h2.vertex_count(), 6u);
  EXPECT_EQ(h2.original_edge_id(0), 0u);
  EXPECT_EQ(h2.original_edge_id(1), 2u);
  // Chained restriction maps to the root ids.
  const Hypergraph h3 = h2.restrict_edges({false, true});
  EXPECT_EQ(h3.edge_count(), 1u);
  EXPECT_EQ(h3.original_edge_id(0), 2u);
}

TEST(HypergraphTest, RestrictWrongArityViolatesContract) {
  const Hypergraph h = make_sample();
  EXPECT_THROW(h.restrict_edges({true}), ContractViolation);
}

TEST(AlmostUniformTest, WitnessAndRejection) {
  // Sizes {2,3}: 3 <= (1+eps)*2 iff eps >= 0.5.
  const Hypergraph h = make_sample();
  EXPECT_TRUE(is_almost_uniform(h, 0.5));
  EXPECT_EQ(almost_uniform_witness(h, 0.5), std::size_t{2});
  EXPECT_FALSE(is_almost_uniform(h, 0.49));
  // Uniform hypergraph is almost uniform for any eps.
  const Hypergraph u(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(is_almost_uniform(u, 0.01));
  // Edgeless: vacuous.
  const Hypergraph empty(4, {});
  EXPECT_TRUE(is_almost_uniform(empty, 0.5));
}

TEST(AlmostUniformTest, EpsilonContract) {
  const Hypergraph h = make_sample();
  EXPECT_THROW(is_almost_uniform(h, 0.0), ContractViolation);
  EXPECT_THROW(is_almost_uniform(h, 1.5), ContractViolation);
}

TEST(StatsTest, Summary) {
  const auto s = hypergraph_stats(make_sample());
  EXPECT_EQ(s.vertices, 6u);
  EXPECT_EQ(s.edges, 4u);
  EXPECT_EQ(s.rank, 3u);
  EXPECT_EQ(s.corank, 2u);
  EXPECT_EQ(s.incidence_size, 10u);
  EXPECT_DOUBLE_EQ(s.avg_edge_size, 2.5);
  EXPECT_EQ(s.max_vertex_degree, 2u);
}

TEST(DistinctEdgesTest, DetectsDuplicates) {
  EXPECT_TRUE(has_distinct_edges(make_sample()));
  const Hypergraph dup(3, {{0, 1}, {1, 0}});
  EXPECT_FALSE(has_distinct_edges(dup));
}

}  // namespace
}  // namespace pslocal
