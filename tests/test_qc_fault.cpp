// qc/fault: the shuffled scheduler is a legal schedule (full coverage,
// no overlap) that provokes no result changes, and run_fault_plan
// absorbs seeded queue-full bursts, tiny caches and schedule shuffling
// without breaking any serving contract.
#include "qc/fault.hpp"

#include <gtest/gtest.h>

#include <set>

#include "qc/gen.hpp"
#include "service/request.hpp"

namespace pslocal::qc {
namespace {

TEST(QcFaultTest, ShuffledSchedulerCoversEveryChunkOnce) {
  ShuffledScheduler sched(11);
  const std::size_t n = 37, grain = 5;
  std::vector<int> covered(n, 0);
  std::set<std::size_t> chunk_ids;
  sched.run_chunks(n, grain, [&](runtime::ChunkRange r) {
    EXPECT_LE(r.end, n);
    EXPECT_LT(r.begin, r.end);
    chunk_ids.insert(r.index);
    for (std::size_t i = r.begin; i < r.end; ++i) ++covered[i];
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(covered[i], 1) << i;
  EXPECT_EQ(chunk_ids.size(), runtime::chunk_count(n, grain));
  EXPECT_EQ(sched.regions(), 1u);
}

TEST(QcFaultTest, ShuffledSchedulerActuallyPermutes) {
  // With 20 chunks, at least one seed must execute out of ascending
  // order — otherwise the "adversarial" schedule is the identity.
  bool permuted = false;
  for (std::uint64_t seed = 1; seed <= 5 && !permuted; ++seed) {
    ShuffledScheduler sched(seed);
    std::vector<std::size_t> order;
    sched.run_chunks(100, 5,
                     [&](runtime::ChunkRange r) { order.push_back(r.index); });
    permuted = !std::is_sorted(order.begin(), order.end());
  }
  EXPECT_TRUE(permuted);
}

TEST(QcFaultTest, SolverPayloadsImmuneToScheduleShuffling) {
  // The runtime determinism contract: chunk execution order must not
  // change any result.  Run every request kind under a shuffled and a
  // sequential scheduler and require byte-identical payloads.
  Rng rng(21);
  const service::TraceParams tp = arbitrary_trace_params(rng);
  const service::Trace trace = service::generate_trace(tp);
  runtime::SequentialScheduler sequential;
  ShuffledScheduler shuffled(99);
  for (const auto& req : trace.requests) {
    const std::string a = service::execute_request(req, sequential);
    const std::string b = service::execute_request(req, shuffled);
    EXPECT_EQ(a, b) << "request " << req.id << " ("
                    << service::kind_name(req.kind) << ")";
  }
}

TEST(QcFaultTest, FaultPlansAbsorbedOnSeededTraces) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const service::TraceParams tp = arbitrary_trace_params(rng);
    const FaultPlan plan = arbitrary_fault_plan(rng);
    const service::Trace trace = service::generate_trace(tp);
    const FaultReport report = run_fault_plan(plan, trace);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.error;
    EXPECT_TRUE(report.cache_untouched_on_reject) << "seed " << seed;
    EXPECT_EQ(report.served, trace.requests.size()) << "seed " << seed;
    // The burst was sized past the queue, so rejections really happened.
    if (plan.burst > plan.queue_capacity &&
        trace.requests.size() >= plan.burst) {
      EXPECT_GT(report.probe_rejected_full, 0u) << "seed " << seed;
    }
  }
}

TEST(QcFaultTest, TinyCacheForcesEvictionsWithoutMismatch) {
  Rng rng(33);
  const service::TraceParams tp = arbitrary_trace_params(rng);
  const service::Trace trace = service::generate_trace(tp);
  FaultPlan plan;
  plan.seed = 5;
  plan.cache_entries = 1;  // maximal churn
  plan.burst = 0;
  const FaultReport report = run_fault_plan(plan, trace);
  EXPECT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.mismatches, 0u);
}

TEST(QcFaultTest, ArbitraryFaultPlanIsDeterministic) {
  Rng a(77);
  Rng b(77);
  const FaultPlan pa = arbitrary_fault_plan(a);
  const FaultPlan pb = arbitrary_fault_plan(b);
  EXPECT_EQ(pa.seed, pb.seed);
  EXPECT_EQ(pa.queue_capacity, pb.queue_capacity);
  EXPECT_EQ(pa.burst, pb.burst);
  EXPECT_EQ(pa.cache_entries, pb.cache_entries);
  EXPECT_EQ(pa.disable_cache, pb.disable_cache);
  EXPECT_EQ(pa.shuffle_scheduler, pb.shuffle_scheduler);
  EXPECT_GE(pa.burst, pa.queue_capacity);
}

}  // namespace
}  // namespace pslocal::qc
