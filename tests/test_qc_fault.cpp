// qc/fault: run_fault_plan absorbs seeded queue-full bursts and tiny
// caches without breaking any serving contract.
#include "qc/fault.hpp"

#include <gtest/gtest.h>

#include "qc/gen.hpp"
#include "service/request.hpp"

namespace pslocal::qc {
namespace {

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
  EXPECT_EQ(pa.queue_capacity, pb.queue_capacity);
  EXPECT_EQ(pa.burst, pb.burst);
  EXPECT_EQ(pa.cache_entries, pb.cache_entries);
  EXPECT_EQ(pa.graph_cache_entries, pb.graph_cache_entries);
  EXPECT_EQ(pa.disable_cache, pb.disable_cache);
  EXPECT_GE(pa.burst, pa.queue_capacity);
  // The plan a seed draws is pinned: a fuzz seed replays the same plans
  // (the discarded first draw keeps these in place).
  EXPECT_EQ(pa.queue_capacity, 3u);
  EXPECT_EQ(pa.burst, 8u);
  EXPECT_EQ(pa.cache_entries, 4u);
  EXPECT_EQ(pa.graph_cache_entries, 1u);
  EXPECT_TRUE(pa.disable_cache);
}

}  // namespace
}  // namespace pslocal::qc
