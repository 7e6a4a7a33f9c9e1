// service/stages: every (stage, request kind) pair records into its own
// service.stage.<stage>.<kind> histogram, for every kind there is, and
// the engine records the dispatch wait of every request a lane pops.
#include "service/stages.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "service/engine.hpp"
#include "service/workload.hpp"

namespace pslocal::service::stages {
namespace {

#if PSLOCAL_OBS_ENABLED

TEST(ServiceStagesTest, EveryStageOfEveryKindLandsInItsOwnHistogram) {
  // One distinct value per pair: two pairs that share a histogram show
  // up as a wrong count or sum there, and as an empty histogram at the
  // name that got nothing.
  const auto value = [](std::size_t stage, std::size_t kind) {
    return std::uint64_t{1000 + 10 * stage + kind};
  };
  const obs::Snapshot before = obs::snapshot();
  for (std::size_t s = 0; s < kStageCount; ++s)
    for (std::size_t k = 0; k < kRequestKindCount; ++k)
      record(static_cast<Stage>(s), static_cast<RequestKind>(k), value(s, k));
  const obs::Snapshot after = obs::snapshot();

  for (std::size_t s = 0; s < kStageCount; ++s) {
    for (std::size_t k = 0; k < kRequestKindCount; ++k) {
      const std::string name = std::string("service.stage.") +
                               stage_name(static_cast<Stage>(s)) + "." +
                               kind_name(static_cast<RequestKind>(k));
      const obs::HistogramSnapshot was = before.histogram(name);
      const obs::HistogramSnapshot now = after.histogram(name);
      EXPECT_EQ(now.count - was.count, 1u) << name;
      EXPECT_EQ(now.sum - was.sum, value(s, k)) << name;
    }
  }
}

TEST(ServiceStagesTest, EngineRecordsDispatchWaitForEveryServedRequest) {
  // Each request a serving lane pops records submit -> pop once, under
  // its own kind.
  constexpr RequestKind kKind = RequestKind::kGreedyMaxis;
  constexpr std::size_t kRequests = 5;
  TraceParams tp;
  tp.seed = 3;
  tp.requests = kRequests;
  tp.instance_pool = 2;
  tp.n = 24;
  tp.m = 16;
  tp.k = 3;
  const Trace trace = generate_trace(tp);
  const std::string name =
      std::string("service.stage.dispatch_wait_ns.") + kind_name(kKind);
  const obs::Snapshot before = obs::snapshot();
  {
    ServiceEngine engine;
    engine.start();
    for (Request req : trace.requests) {
      req.kind = kKind;
      auto sub = engine.submit(req);
      ASSERT_EQ(sub.admission, Admission::kAccepted);
      EXPECT_EQ(sub.response.get().status, Response::Status::kOk);
    }
  }
  const obs::Snapshot after = obs::snapshot();
  EXPECT_EQ(after.histogram(name).count - before.histogram(name).count,
            kRequests);
}

#endif  // PSLOCAL_OBS_ENABLED

}  // namespace
}  // namespace pslocal::service::stages
