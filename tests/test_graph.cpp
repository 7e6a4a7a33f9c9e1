#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/io.hpp"

namespace pslocal {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
  EXPECT_TRUE(g.edges().empty());
}

TEST(GraphTest, BuilderDedupsAndDropsSelfLoops) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate, reversed
  b.add_edge(0, 1);  // duplicate
  b.add_edge(2, 2);  // self loop dropped
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphTest, BuilderOutOfRangeViolatesContract) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), ContractViolation);
}

TEST(GraphTest, NeighborsSortedAndDegreesMatch) {
  const Graph g = Graph::from_edges(5, {{3, 1}, {3, 0}, {3, 4}, {1, 0}});
  const auto nb = g.neighbors(3);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0u);
  EXPECT_EQ(nb[1], 1u);
  EXPECT_EQ(nb[2], 4u);
  EXPECT_EQ(g.degree(3), 3u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 * 4 / 5);
}

TEST(GraphTest, EdgesAreCanonical) {
  const Graph g = Graph::from_edges(4, {{2, 1}, {0, 3}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<VertexId, VertexId>{0, 3}));
  EXPECT_EQ(edges[1], (std::pair<VertexId, VertexId>{1, 2}));
}

TEST(GraphTest, FromEdgesRejectsDuplicatesUnlessAsked) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), ContractViolation);
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}}, /*dedup=*/true);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), ContractViolation);
}

TEST(GraphTest, FromCsrAdoptsOnlyCanonicalRows) {
  // The path 0-1-2, each edge held from both ends.
  EXPECT_EQ(Graph::from_csr({0, 1, 3, 4}, {1, 0, 2, 1}),
            Graph::from_edges(3, {{0, 1}, {1, 2}}));
  EXPECT_THROW(Graph::from_csr({0, 1, 3, 4}, {1, 2, 0, 1}),
               ContractViolation);  // row 1 not ascending
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {0, 0}),
               ContractViolation);  // self-loop
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {1, 5}),
               ContractViolation);  // neighbor out of range
  EXPECT_THROW(Graph::from_csr({0, 1, 2, 2}, {1, 2}),
               ContractViolation);  // {1, 2} missing from row 2
}

TEST(GraphTest, RoundTripThroughEdgeListIO) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {4, 5}, {0, 5}});
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(g, h);
}

TEST(GraphTest, ReadRejectsTruncatedInput) {
  std::stringstream ss("3 2\n0 1\n");  // promises 2 edges, has 1
  EXPECT_THROW(read_edge_list(ss), ContractViolation);
}

}  // namespace
}  // namespace pslocal
