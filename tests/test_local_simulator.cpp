#include "local/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace pslocal {
namespace {

// Flooding algorithm used to test the simulator's 1-hop-per-round
// semantics: node 0 holds a token; every informed node broadcasts it.
struct FloodState {
  bool informed = false;
  std::size_t informed_at_round = kUnreachable;
  std::size_t round = 0;
};

class FloodAlgorithm final : public BroadcastAlgorithm<FloodState, int> {
 public:
  explicit FloodAlgorithm(std::size_t stop_after) : stop_after_(stop_after) {}

  FloodState init(VertexId v, const Graph&, Rng&) override {
    FloodState s;
    if (v == 0) {
      s.informed = true;
      s.informed_at_round = 0;
    }
    return s;
  }

  std::optional<int> emit(VertexId, const FloodState& s) override {
    if (s.informed) return 1;
    return std::nullopt;  // silence
  }

  void step(VertexId, FloodState& s, std::span<const std::optional<int>> inbox,
            Rng&) override {
    ++s.round;
    if (s.informed) return;
    for (const auto& m : inbox) {
      if (m) {
        s.informed = true;
        s.informed_at_round = s.round;
        return;
      }
    }
  }

  bool halted(VertexId, const FloodState& s) override {
    return s.round >= stop_after_;
  }

 private:
  std::size_t stop_after_;
};

TEST(LocalSimulatorTest, InformationTravelsExactlyOneHopPerRound) {
  const Graph g = grid(5, 5);
  const auto dist = bfs_distances(g, 0);
  FloodAlgorithm algo(/*stop_after=*/12);
  const auto run = run_local(g, algo, 1, 100);
  EXPECT_TRUE(run.all_halted);
  EXPECT_EQ(run.rounds, 12u);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    // The token reaches v exactly at its BFS distance — no faster (the
    // model's locality constraint) and no slower (flooding).
    EXPECT_EQ(run.states[v].informed_at_round, dist[v]) << "v=" << v;
  }
}

TEST(LocalSimulatorTest, SilentNodesDeliverNullopt) {
  const Graph g = path(3);
  FloodAlgorithm algo(1);
  const auto run = run_local(g, algo, 1, 100);
  // After one round only node 1 (neighbor of 0) is informed.
  EXPECT_TRUE(run.states[1].informed);
  EXPECT_FALSE(run.states[2].informed);
}

TEST(LocalSimulatorTest, MaxRoundsCapStopsRun) {
  const Graph g = path(30);
  FloodAlgorithm algo(/*stop_after=*/1000);  // wants many rounds
  const auto run = run_local(g, algo, 1, 5);
  EXPECT_FALSE(run.all_halted);
  EXPECT_EQ(run.rounds, 5u);
}

TEST(LocalSimulatorTest, ZeroRoundsWhenEveryoneStartsHalted) {
  const Graph g = path(4);
  FloodAlgorithm algo(/*stop_after=*/0);
  const auto run = run_local(g, algo, 1, 100);
  EXPECT_EQ(run.rounds, 0u);
  EXPECT_TRUE(run.all_halted);
}

// Flooding with variable-size broadcasts: informed node v sends v + 1
// bytes, so the largest payload shows how far the token has got.
class SizedFlood final : public BroadcastAlgorithm<FloodState, VertexId> {
 public:
  explicit SizedFlood(std::size_t stop_after) : stop_after_(stop_after) {}

  FloodState init(VertexId v, const Graph&, Rng&) override {
    FloodState s;
    s.informed = v == 0;
    return s;
  }
  std::optional<VertexId> emit(VertexId v, const FloodState& s) override {
    if (s.informed) return v;
    return std::nullopt;
  }
  void step(VertexId, FloodState& s,
            std::span<const std::optional<VertexId>> inbox, Rng&) override {
    ++s.round;
    for (const auto& m : inbox) s.informed = s.informed || m.has_value();
  }
  bool halted(VertexId, const FloodState& s) override {
    return s.round >= stop_after_;
  }
  std::size_t message_size(const VertexId& v) const override { return v + 1; }

 private:
  std::size_t stop_after_;
};

TEST(LocalSimulatorTest, RoundObserverSeesEveryRoundsBroadcasts) {
  // On a path from node 0, round r's broadcasters are nodes 0..r-1, so
  // r rounds send r(r+1)/2 messages and the largest is r bytes.
  const Graph g = path(30);
  for (const std::size_t cap : {100u, 6u}) {  // halts after 10; cut at 6
    SizedFlood algo(/*stop_after=*/10);
    const auto caller = std::this_thread::get_id();
    std::size_t rounds = 0, messages = 0, max_bytes = 0;
    const auto run = run_local(
        g, algo, 1, cap,
        [&](std::span<const std::optional<VertexId>> outbox) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          ASSERT_EQ(outbox.size(), g.vertex_count());
          ++rounds;
          for (VertexId v = 0; v < outbox.size(); ++v) {
            EXPECT_EQ(outbox[v].has_value(), v < rounds) << "v=" << v;
            if (!outbox[v]) continue;
            ++messages;
            max_bytes = std::max(max_bytes, algo.message_size(*outbox[v]));
          }
        });
    const std::size_t expected = std::min<std::size_t>(cap, 10);
    EXPECT_EQ(run.all_halted, cap > 10);
    EXPECT_EQ(run.rounds, expected);
    EXPECT_EQ(rounds, run.rounds);
    EXPECT_EQ(messages, run.messages_sent);
    EXPECT_EQ(run.messages_sent, expected * (expected + 1) / 2);
    EXPECT_EQ(max_bytes, run.max_message_bytes);
    EXPECT_EQ(run.max_message_bytes, expected);
  }
}

// Determinism: per-node RNG substreams are seeded from the run seed only.
struct RandState {
  std::uint64_t value = 0;
  bool done = false;
};

class RandAlgorithm final : public BroadcastAlgorithm<RandState, int> {
 public:
  RandState init(VertexId, const Graph&, Rng& rng) override {
    return RandState{rng.next_u64(), false};
  }
  std::optional<int> emit(VertexId, const RandState&) override {
    return std::nullopt;
  }
  void step(VertexId, RandState& s, std::span<const std::optional<int>>,
            Rng& rng) override {
    s.value ^= rng.next_u64();
    s.done = true;
  }
  bool halted(VertexId, const RandState& s) override { return s.done; }
};

TEST(LocalSimulatorTest, MessageAccountingCountsPayloads) {
  const Graph g = path(4);
  FloodAlgorithm algo(/*stop_after=*/2);
  const auto run = run_local(g, algo, 1, 100);
  // Round 1: node 0 informed -> 1 message.  Round 2: nodes 0, 1 -> 2.
  EXPECT_EQ(run.messages_sent, 3u);
  EXPECT_EQ(run.max_message_bytes, sizeof(int));
  EXPECT_EQ(run.total_message_bytes, 3 * sizeof(int));
}

TEST(LocalSimulatorTest, SilentNodesCostNoBandwidth) {
  const Graph g = Graph::from_edges(3, {});  // nobody ever informed but 0
  FloodAlgorithm algo(/*stop_after=*/1);
  const auto run = run_local(g, algo, 1, 100);
  EXPECT_EQ(run.messages_sent, 1u);  // only node 0 broadcasts
}

TEST(LocalSimulatorTest, DeterministicPerSeedAndIndependentPerNode) {
  const Graph g = ring(10);
  RandAlgorithm algo;
  const auto a = run_local(g, algo, 7, 10);
  const auto b = run_local(g, algo, 7, 10);
  const auto c = run_local(g, algo, 8, 10);
  std::size_t same_seed_equal = 0, diff_seed_equal = 0, cross_node_equal = 0;
  for (VertexId v = 0; v < 10; ++v) {
    if (a.states[v].value == b.states[v].value) ++same_seed_equal;
    if (a.states[v].value == c.states[v].value) ++diff_seed_equal;
    for (VertexId w = v + 1; w < 10; ++w)
      if (a.states[v].value == a.states[w].value) ++cross_node_equal;
  }
  EXPECT_EQ(same_seed_equal, 10u);
  EXPECT_EQ(diff_seed_equal, 0u);
  EXPECT_EQ(cross_node_equal, 0u);
}

}  // namespace
}  // namespace pslocal
