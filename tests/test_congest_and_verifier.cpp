#include <gtest/gtest.h>

#include "coloring/local_verifier.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "local/congest.hpp"

namespace pslocal {
namespace {

// Fixed-size-message flooding (same as the simulator test's probe).
struct FloodState {
  bool informed = false;
  std::size_t round = 0;
};

class Flood final : public BroadcastAlgorithm<FloodState, int> {
 public:
  explicit Flood(std::size_t stop) : stop_(stop) {}
  FloodState init(VertexId v, const Graph&, Rng&) override {
    return FloodState{v == 0, 0};
  }
  std::optional<int> emit(VertexId, const FloodState& s) override {
    if (s.informed) return 1;
    return std::nullopt;
  }
  void step(VertexId, FloodState& s, std::span<const std::optional<int>> inbox,
            Rng&) override {
    ++s.round;
    if (s.informed) return;
    for (const auto& m : inbox)
      if (m) {
        s.informed = true;
        return;
      }
  }
  bool halted(VertexId, const FloodState& s) override {
    return s.round >= stop_;
  }

 private:
  std::size_t stop_;
};

// Variable-size messages: node v broadcasts a v-byte payload.
class FatFlood final : public BroadcastAlgorithm<FloodState, std::size_t> {
 public:
  explicit FatFlood(std::size_t stop) : stop_(stop) {}
  FloodState init(VertexId v, const Graph&, Rng&) override {
    return FloodState{v == 0, 0};
  }
  std::optional<std::size_t> emit(VertexId v, const FloodState&) override {
    return static_cast<std::size_t>(v) + 1;  // declared size v+1
  }
  void step(VertexId, FloodState& s, std::span<const std::optional<std::size_t>>,
            Rng&) override {
    ++s.round;
  }
  bool halted(VertexId, const FloodState& s) override {
    return s.round >= stop_;
  }
  std::size_t message_size(const std::size_t& m) const override { return m; }

 private:
  std::size_t stop_;
};

TEST(CongestTest, SemanticsMatchLocalExactly) {
  const Graph g = grid(4, 4);
  Flood a(6), b(6);
  const auto local = run_local(g, a, 3, 100);
  const auto congest = run_congest(g, b, 3, 100, /*bandwidth=*/1024);
  ASSERT_EQ(local.states.size(), congest.local.states.size());
  for (std::size_t v = 0; v < local.states.size(); ++v)
    EXPECT_EQ(local.states[v].informed, congest.local.states[v].informed);
  EXPECT_EQ(local.rounds, congest.local.rounds);
  EXPECT_EQ(local.all_halted, congest.local.all_halted);
  EXPECT_EQ(local.messages_sent, congest.local.messages_sent);
  EXPECT_EQ(local.max_message_bytes, congest.local.max_message_bytes);
  EXPECT_EQ(local.total_message_bytes, congest.local.total_message_bytes);
  // Bandwidth above message size: one fragment per round.
  EXPECT_EQ(congest.physical_rounds, congest.local.rounds);
  EXPECT_EQ(congest.max_fragments_per_round, 1u);
}

TEST(CongestTest, FragmentationBillsExtraRounds) {
  const Graph g = path(8);
  FatFlood algo(3);  // biggest message each round: 8 bytes (node 7)
  const auto run = run_congest(g, algo, 1, 100, /*bandwidth=*/3);
  EXPECT_EQ(run.local.rounds, 3u);
  // ceil(8/3) = 3 fragments per algorithm round.
  EXPECT_EQ(run.max_fragments_per_round, 3u);
  EXPECT_EQ(run.physical_rounds, 9u);
}

TEST(CongestTest, ZeroBandwidthViolatesContract) {
  const Graph g = path(3);
  Flood algo(1);
  EXPECT_THROW(run_congest(g, algo, 1, 10, 0), ContractViolation);
}

TEST(IncidenceGraphTest, Structure) {
  const Hypergraph h(4, {{0, 1, 2}, {2, 3}});
  const Graph inc = h.incidence_graph();
  EXPECT_EQ(inc.vertex_count(), 6u);  // 4 vertices + 2 edge agents
  EXPECT_EQ(inc.edge_count(), 5u);    // sum of edge sizes
  EXPECT_TRUE(inc.has_edge(0, 4));
  EXPECT_TRUE(inc.has_edge(2, 4));
  EXPECT_TRUE(inc.has_edge(2, 5));
  EXPECT_TRUE(inc.has_edge(3, 5));
  EXPECT_FALSE(inc.has_edge(0, 5));
  EXPECT_FALSE(inc.has_edge(0, 1));  // vertices not directly joined
}

TEST(LocalVerifierTest, AcceptsValidColorings) {
  Rng rng(3);
  PlantedCfParams params;
  params.n = 24;
  params.m = 16;
  params.k = 3;
  const auto inst = planted_cf_colorable(params, rng);
  CfMulticoloring mc(inst.hypergraph.vertex_count());
  for (VertexId v = 0; v < inst.hypergraph.vertex_count(); ++v)
    mc.add_color(v, inst.planted_coloring[v]);

  const auto verdict = local_cf_verify(inst.hypergraph, mc);
  EXPECT_TRUE(verdict.accept);
  EXPECT_EQ(verdict.rounds, 2u);
  for (bool e : verdict.edge_happy) EXPECT_TRUE(e);
  for (bool v : verdict.vertex_accepts) EXPECT_TRUE(v);
}

TEST(LocalVerifierTest, RejectsAndLocalizesViolations) {
  const Hypergraph h(4, {{0, 1}, {2, 3}});
  CfMulticoloring mc(4);
  mc.add_color(0, 1);
  mc.add_color(1, 2);  // edge 0 happy
  mc.add_color(2, 5);
  mc.add_color(3, 5);  // edge 1 monochromatic in color 5 -> unhappy
  const auto verdict = local_cf_verify(h, mc);
  EXPECT_FALSE(verdict.accept);
  EXPECT_TRUE(verdict.edge_happy[0]);
  EXPECT_FALSE(verdict.edge_happy[1]);
  // The rejection is localized: members of edge 1 reject, edge 0's accept.
  EXPECT_TRUE(verdict.vertex_accepts[0]);
  EXPECT_TRUE(verdict.vertex_accepts[1]);
  EXPECT_FALSE(verdict.vertex_accepts[2]);
  EXPECT_FALSE(verdict.vertex_accepts[3]);
}

TEST(LocalVerifierTest, UncoloredVerticesRejectWhenEdgesNeedThem) {
  const Hypergraph h(2, {{0, 1}});
  const CfMulticoloring empty(2);
  const auto verdict = local_cf_verify(h, empty);
  EXPECT_FALSE(verdict.accept);
}

TEST(LocalVerifierTest, EdgelessAlwaysAccepts) {
  const Hypergraph h(3, {});
  const auto verdict = local_cf_verify(h, CfMulticoloring(3));
  EXPECT_TRUE(verdict.accept);
}

}  // namespace
}  // namespace pslocal
