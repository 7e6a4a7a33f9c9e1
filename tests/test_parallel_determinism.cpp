// The solvers that take a scheduler are sequential: for a fixed seed,
// each must produce byte-identical output on pools of 1, 2 and 8 lanes,
// and across repeated runs on the same pool, and none of them may open
// a region on the pool it is handed.  Serving lanes are the only
// parallelism (docs/runtime.md).
#include <gtest/gtest.h>

#include <vector>

#include "coloring/cf_baselines.hpp"
#include "core/conflict_graph.hpp"
#include "core/dynamic_conflict_graph.hpp"
#include "hypergraph/generators.hpp"
#include "local/congest.hpp"
#include "local/luby_algorithm.hpp"
#include "local/luby_mis.hpp"
#include "mis/greedy_maxis.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace pslocal {
namespace {

Hypergraph planted_instance() {
  PlantedCfParams params;
  params.n = 96;
  params.m = 96;
  params.k = 4;
  params.epsilon = 0.5;
  Rng rng(2024);
  return planted_cf_colorable(params, rng).hypergraph;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kThreadCounts[] = {1, 2, 8};
  Hypergraph h_ = planted_instance();
};

TEST_F(ParallelDeterminismTest, ConflictGraphBitIdenticalAcrossThreads) {
  runtime::ThreadPool ref_pool(1);
  const ConflictGraph ref(h_, 4, ref_pool);
  for (std::size_t threads : kThreadCounts) {
    runtime::ThreadPool pool(threads);
    for (int run = 0; run < 3; ++run) {
      const ConflictGraph cg(h_, 4, pool);
      // Graph operator== compares the raw CSR arrays: vertex order,
      // offsets and neighbor order all byte-identical.
      ASSERT_EQ(cg.graph(), ref.graph())
          << "threads=" << threads << " run=" << run;
    }
  }
}

TEST_F(ParallelDeterminismTest, LubyMisBitIdenticalAcrossThreads) {
  runtime::ThreadPool ref_pool(1);
  const ConflictGraph cg(h_, 4, ref_pool);
  const auto ref = luby_mis(cg.graph(), 7, 0, ref_pool);
  for (std::size_t threads : kThreadCounts) {
    runtime::ThreadPool pool(threads);
    for (int run = 0; run < 3; ++run) {
      const auto luby = luby_mis(cg.graph(), 7, 0, pool);
      ASSERT_EQ(luby.independent_set, ref.independent_set)
          << "threads=" << threads << " run=" << run;
      ASSERT_EQ(luby.rounds, ref.rounds);
      ASSERT_EQ(luby.messages_sent, ref.messages_sent);
      ASSERT_EQ(luby.max_message_bytes, ref.max_message_bytes);
    }
  }
}

TEST_F(ParallelDeterminismTest, GreedyMaxisIdenticalAcrossThreads) {
  runtime::ThreadPool ref_pool(1);
  const ConflictGraph cg(h_, 4, ref_pool);
  const auto ref = greedy_min_degree_maxis(cg.graph(), ref_pool);
  for (std::size_t threads : kThreadCounts) {
    runtime::ThreadPool pool(threads);
    const auto mis = greedy_min_degree_maxis(cg.graph(), pool);
    ASSERT_EQ(mis, ref) << "threads=" << threads;
  }
}

TEST_F(ParallelDeterminismTest, GreedyCfColoringIdenticalAcrossThreads) {
  runtime::ThreadPool ref_pool(1);
  const auto ref = greedy_cf_coloring(h_, ref_pool);
  for (std::size_t threads : kThreadCounts) {
    runtime::ThreadPool pool(threads);
    const auto res = greedy_cf_coloring(h_, pool);
    ASSERT_EQ(res.coloring, ref.coloring) << "threads=" << threads;
    ASSERT_EQ(res.colors_used, ref.colors_used);
  }
}

#if PSLOCAL_OBS_ENABLED

TEST_F(ParallelDeterminismTest, NoSolverOpensAPoolRegion) {
  // The pool counts every region it is asked to run, even one it runs
  // inline, so an unchanged count means no solver called run_chunks.
  runtime::ThreadPool pool(4);
  const auto regions = [] {
    return obs::snapshot().counter("runtime.regions");
  };
  const std::uint64_t before = regions();
  const ConflictGraph cg(h_, 4, pool);
  const DynamicConflictGraph dynamic(h_, 4, pool);
  const Graph snapshot = dynamic.snapshot(pool);
  EXPECT_EQ(snapshot, cg.graph());
  const auto luby = luby_mis(cg.graph(), 7, 0, pool);
  EXPECT_TRUE(luby.completed);
  detail::LubyAlgorithm algo;
  const auto congest = run_congest(
      cg.graph(), algo, 7,
      detail::luby_default_round_cap(cg.graph().vertex_count()),
      /*bandwidth_bytes=*/4);
  EXPECT_TRUE(congest.local.all_halted);
  EXPECT_FALSE(greedy_min_degree_maxis(cg.graph(), pool).empty());
  EXPECT_GT(greedy_cf_coloring(h_, pool).colors_used, 0u);
  EXPECT_EQ(regions(), before);
}

#endif  // PSLOCAL_OBS_ENABLED

TEST_F(ParallelDeterminismTest, DifferentSeedsStillDiffer) {
  // Guard against a "deterministic because constant" bug: Luby must
  // still respond to the seed.
  runtime::ThreadPool pool(4);
  const ConflictGraph cg(h_, 4, pool);
  const auto a = luby_mis(cg.graph(), 1, 0, pool);
  const auto b = luby_mis(cg.graph(), 2, 0, pool);
  // Both are valid MIS of the same graph; for different seeds the round
  // trajectories should differ (extremely unlikely to coincide).
  EXPECT_TRUE(a.independent_set != b.independent_set ||
              a.messages_sent != b.messages_sent);
}

}  // namespace
}  // namespace pslocal
