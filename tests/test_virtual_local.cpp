#include "core/virtual_local.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "hypergraph/generators.hpp"
#include "local/luby_algorithm.hpp"
#include "mis/independent_set.hpp"

namespace pslocal {
namespace {

// Deterministic algorithm: every virtual node adopts the minimum id seen
// so far (min-gossip).  After diam(G_k) rounds all nodes in a component
// agree on its minimum — a clean probe for delivery correctness.
struct GossipState {
  std::size_t best = 0;
  std::size_t round = 0;
};

class MinGossip {
 public:
  using State = GossipState;
  using Msg = std::size_t;

  explicit MinGossip(std::size_t rounds) : rounds_(rounds) {}

  GossipState init(VertexId v, const Graph&, Rng&) {
    return GossipState{v, 0};
  }
  std::optional<std::size_t> emit(VertexId, const GossipState& s) {
    return s.best;
  }
  void step(VertexId, GossipState& s, InboxView<std::size_t> inbox, Rng&) {
    for (const auto& m : inbox)
      if (m && *m < s.best) s.best = *m;
    ++s.round;
  }
  bool halted(VertexId, const GossipState& s) {
    return s.round >= rounds_;
  }

 private:
  std::size_t rounds_;
};

// Randomized algorithm exercising the RNG-stream equivalence: each node
// draws a value per round and tracks a rolling xor with neighbor values.
struct NoiseState {
  std::uint64_t acc = 0;
  std::uint64_t mine = 0;
  std::size_t round = 0;
};

class NoiseMix {
 public:
  using State = NoiseState;
  using Msg = std::uint64_t;

  explicit NoiseMix(std::size_t rounds) : rounds_(rounds) {}

  NoiseState init(VertexId, const Graph&, Rng& rng) {
    NoiseState s;
    s.mine = rng.next_u64();
    return s;
  }
  std::optional<std::uint64_t> emit(VertexId, const NoiseState& s) {
    return s.mine;
  }
  void step(VertexId, NoiseState& s, InboxView<std::uint64_t> inbox,
            Rng& rng) {
    for (const auto& m : inbox)
      if (m) s.acc ^= *m;
    s.mine = rng.next_u64();
    ++s.round;
  }
  bool halted(VertexId, const NoiseState& s) {
    return s.round >= rounds_;
  }

 private:
  std::size_t rounds_;
};

ConflictGraph make_cg(std::size_t n, std::size_t m, std::size_t k,
                      std::uint64_t seed) {
  Rng rng(seed);
  PlantedCfParams params;
  params.n = n;
  params.m = m;
  params.k = k;
  auto inst = planted_cf_colorable(params, rng);
  return ConflictGraph(std::move(inst.hypergraph), k);
}

TEST(VirtualLocalTest, GossipConvergesThroughHosts) {
  const auto cg = make_cg(20, 12, 2, 5);
  const std::size_t diam = diameter(cg.graph());
  ASSERT_NE(diam, kUnreachable);
  MinGossip algo(diam + 1);
  const auto run = run_local_on_hosts(cg, algo, 1, 100);
  EXPECT_TRUE(run.all_halted);
  EXPECT_EQ(run.physical_rounds, diam + 1);
  for (const auto& s : run.states) EXPECT_EQ(s.best, 0u);
}

TEST(VirtualLocalTest, BitIdenticalToDirectExecution) {
  const auto cg = make_cg(24, 14, 3, 7);
  for (std::uint64_t seed : {1ull, 9ull, 123ull}) {
    NoiseMix direct_algo(6), hosted_algo(6);
    const auto direct = run_local(cg.graph(), direct_algo, seed, 100);
    const auto hosted = run_local_on_hosts(cg, hosted_algo, seed, 100);
    ASSERT_TRUE(direct.all_halted);
    ASSERT_TRUE(hosted.all_halted);
    ASSERT_EQ(direct.states.size(), hosted.states.size());
    for (std::size_t t = 0; t < direct.states.size(); ++t) {
      EXPECT_EQ(direct.states[t].acc, hosted.states[t].acc) << "t=" << t;
      EXPECT_EQ(direct.states[t].mine, hosted.states[t].mine);
    }
    EXPECT_EQ(direct.rounds, hosted.physical_rounds);
  }
}

TEST(VirtualLocalTest, CongestionIsBundledPerHost) {
  const auto cg = make_cg(16, 10, 2, 11);
  MinGossip algo(3);
  const auto run = run_local_on_hosts(cg, algo, 1, 100);
  // Max host load L implies a max bundled message of L * (payload + 8).
  std::vector<std::size_t> load(cg.hypergraph().vertex_count(), 0);
  for (TripleId t = 0; t < cg.triple_count(); ++t) ++load[cg.triple(t).v];
  const std::size_t max_load = *std::max_element(load.begin(), load.end());
  EXPECT_EQ(run.max_physical_message_bytes,
            max_load * (sizeof(std::size_t) + 8));
  EXPECT_GT(run.total_physical_message_bytes, 0u);
}

TEST(VirtualLocalTest, HostedLubyMatchesDirectLubyExactly) {
  // The real algorithm of the reduction: Luby's MIS on G_k, hosted vs
  // direct, same seed -> same independent set, same round count.
  const auto cg = make_cg(28, 18, 2, 19);
  for (std::uint64_t seed : {3ull, 77ull}) {
    detail::LubyAlgorithm direct_algo, hosted_algo;
    const std::size_t cap = detail::luby_default_round_cap(cg.triple_count());
    const auto direct = run_local(cg.graph(), direct_algo, seed, cap);
    const auto hosted = run_local_on_hosts(cg, hosted_algo, seed, cap);
    ASSERT_TRUE(direct.all_halted);
    ASSERT_TRUE(hosted.all_halted);
    EXPECT_EQ(direct.rounds, hosted.physical_rounds);

    std::vector<VertexId> direct_is, hosted_is;
    for (VertexId t = 0; t < cg.triple_count(); ++t) {
      if (direct.states[t].status == detail::LubyStatus::kIn)
        direct_is.push_back(t);
      if (hosted.states[t].status == detail::LubyStatus::kIn)
        hosted_is.push_back(t);
    }
    EXPECT_EQ(direct_is, hosted_is);
    EXPECT_TRUE(is_maximal_independent_set(cg.graph(), hosted_is));
  }
}

TEST(VirtualLocalTest, RoundCapReported) {
  const auto cg = make_cg(16, 10, 2, 13);
  MinGossip algo(50);
  const auto run = run_local_on_hosts(cg, algo, 1, 4);
  EXPECT_FALSE(run.all_halted);
  EXPECT_EQ(run.physical_rounds, 4u);
}

TEST(VirtualLocalTest, EdgelessHypergraphHostsNothing) {
  const ConflictGraph cg(Hypergraph(4, {}), 2);
  MinGossip algo(2);
  const auto run = run_local_on_hosts(cg, algo, 1, 10);
  EXPECT_TRUE(run.all_halted);
  EXPECT_TRUE(run.states.empty());
}

}  // namespace
}  // namespace pslocal
