#include "slocal/greedy_algorithms.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "coloring/coloring.hpp"
#include "graph/generators.hpp"
#include "mis/independent_set.hpp"

namespace pslocal {
namespace {

struct OrderCase {
  std::string name;
  bool reversed;
  std::uint64_t shuffle_seed;  // 0 = no shuffle
};

// gtest's fallback printer dumps the raw object bytes, which include the
// string's heap pointer, so the listed test names would change with the heap
// layout. Print the case by its name instead.
void PrintTo(const OrderCase& c, std::ostream* os) { *os << c.name; }

std::vector<VertexId> make_order(const Graph& g, const OrderCase& c) {
  std::vector<VertexId> order(g.vertex_count());
  std::iota(order.begin(), order.end(), VertexId{0});
  if (c.reversed) std::reverse(order.begin(), order.end());
  if (c.shuffle_seed != 0) {
    Rng rng(c.shuffle_seed);
    rng.shuffle(order);
  }
  return order;
}

class SLocalOrderTest : public ::testing::TestWithParam<OrderCase> {};

TEST_P(SLocalOrderTest, GreedyMisIsMaximalWithLocalityOne) {
  Rng rng(77);
  const Graph g = gnp(60, 0.1, rng);
  const auto order = make_order(g, GetParam());
  const auto res = slocal_greedy_mis(g, order);
  EXPECT_TRUE(is_maximal_independent_set(g, res.independent_set));
  EXPECT_EQ(res.locality, 1u);  // the paper's SLOCAL(1) claim
}

TEST_P(SLocalOrderTest, GreedyColoringIsProperDeltaPlusOne) {
  Rng rng(78);
  const Graph g = gnp(60, 0.15, rng);
  const auto order = make_order(g, GetParam());
  const auto res = slocal_greedy_coloring(g, order);
  EXPECT_TRUE(is_proper_coloring(g, res.coloring));
  EXPECT_LE(res.colors_used, g.max_degree() + 1);
  EXPECT_EQ(res.locality, 1u);
}

INSTANTIATE_TEST_SUITE_P(Orders, SLocalOrderTest,
                         ::testing::Values(OrderCase{"identity", false, 0},
                                           OrderCase{"reverse", true, 0},
                                           OrderCase{"shuffled1", false, 11},
                                           OrderCase{"shuffled2", false, 23}),
                         [](const auto& info) { return info.param.name; });

TEST(SLocalMisTest, ArbitraryOrderIsTheIntroAlgorithm) {
  // "iterating through the nodes in an arbitrary order and joining the
  //  independent set if none of the already processed neighbors is already
  //  contained in the set" — identity order on a ring.
  const Graph g = ring(7);
  std::vector<VertexId> order{0, 1, 2, 3, 4, 5, 6};
  const auto res = slocal_greedy_mis(g, order);
  EXPECT_EQ(res.independent_set, (std::vector<VertexId>{0, 2, 4}));
}

TEST(SLocalMisTest, EdgelessGraphTakesAll) {
  const Graph g = Graph::from_edges(5, {});
  std::vector<VertexId> order{4, 3, 2, 1, 0};
  const auto res = slocal_greedy_mis(g, order);
  EXPECT_EQ(res.independent_set.size(), 5u);
}

TEST(SLocalColoringTest, CompleteGraphUsesAllColors) {
  const Graph g = complete(5);
  std::vector<VertexId> order{0, 1, 2, 3, 4};
  const auto res = slocal_greedy_coloring(g, order);
  EXPECT_EQ(res.colors_used, 5u);
}

TEST(SLocalColoringTest, BipartiteGetsTwoColorsInGoodOrder) {
  const Graph g = complete_bipartite(4, 4);
  std::vector<VertexId> order{0, 1, 2, 3, 4, 5, 6, 7};  // side by side
  const auto res = slocal_greedy_coloring(g, order);
  EXPECT_EQ(res.colors_used, 2u);
}

}  // namespace
}  // namespace pslocal
