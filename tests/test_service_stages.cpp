// service/stages: every (stage, request kind) pair records into its own
// service.stage.<stage>.<kind> histogram, for every kind there is; the
// engine records the dispatch wait of every request a lane pops, and
// each answer's total latency under its outcome.
#include "service/stages.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
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
  // A serving lane records submit -> pop once for each request it pops,
  // under its kind.  Served one at a time, a repeated key is answered at
  // submit and never popped: it records one cache_probe_ns sample and
  // no dispatch_wait_ns sample.
  constexpr RequestKind kKind = RequestKind::kGreedyMaxis;
  TraceParams tp;
  tp.seed = 3;
  tp.requests = 5;
  tp.instance_pool = 2;
  tp.n = 24;
  tp.m = 16;
  tp.k = 3;
  const Trace trace = generate_trace(tp);
  std::set<std::uint64_t> keys;
  for (Request req : trace.requests) {
    req.kind = kKind;
    keys.insert(cache_key(req));
  }
  ASSERT_LT(keys.size(), trace.requests.size());  // the trace repeats keys
  const std::string dispatch =
      std::string("service.stage.dispatch_wait_ns.") + kind_name(kKind);
  const std::string probe =
      std::string("service.stage.cache_probe_ns.") + kind_name(kKind);
  const auto grew = [](const std::string& name, const obs::Snapshot& from,
                       const obs::Snapshot& to) {
    return to.histogram(name).count - from.histogram(name).count;
  };

  ServiceEngine engine;
  engine.start();
  const auto serve = [&engine](Request req) {
    req.kind = kKind;
    auto sub = engine.submit(req);
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    EXPECT_EQ(sub.response.get().status, Response::Status::kOk);
  };
  const obs::Snapshot before = obs::snapshot();
  for (const Request& req : trace.requests) serve(req);
  const obs::Snapshot served = obs::snapshot();
  EXPECT_EQ(grew(dispatch, before, served), keys.size());
  EXPECT_EQ(engine.stats().dispatch_cycles, keys.size());
  EXPECT_EQ(engine.stats().batches, keys.size());

  serve(trace.requests[0]);  // a warmed key: answered at submit
  const obs::Snapshot hit = obs::snapshot();
  EXPECT_EQ(grew(probe, served, hit), 1u);
  EXPECT_EQ(grew(dispatch, served, hit), 0u);
}

TEST(ServiceStagesTest, EngineRecordsTotalLatencyByOutcome) {
  // Every answer records its total_ns into service.total_ns.<outcome>:
  // a hit answered at submit, a miss, a solver error and a stop-time
  // rejection each add one sample to their own histogram and none to
  // the others'.
  using Counts = std::array<std::uint64_t, 4>;
  const std::array<std::string, 4> names = {
      "service.total_ns.hit", "service.total_ns.miss",
      "service.total_ns.error", "service.total_ns.rejected"};
  obs::Snapshot last = obs::snapshot();
  const auto grew = [&] {
    const obs::Snapshot now = obs::snapshot();
    Counts out{};
    for (std::size_t i = 0; i < names.size(); ++i)
      out[i] = now.histogram(names[i]).count - last.histogram(names[i]).count;
    last = now;
    return out;
  };

  TraceParams tp;
  tp.seed = 3;
  tp.requests = 3;
  tp.instance_pool = 3;
  tp.n = 24;
  tp.m = 16;
  const Trace trace = generate_trace(tp);
  Request bad = trace.requests[1];
  bad.kind = RequestKind::kRunReduction;
  bad.solver = "no-such-solver";
  {
    ServiceEngine engine;
    engine.start();
    const auto status_of = [&engine](const Request& req) {
      auto sub = engine.submit(req);
      EXPECT_EQ(sub.admission, Admission::kAccepted);
      return sub.response.get().status;
    };
    EXPECT_EQ(status_of(trace.requests[0]), Response::Status::kOk);
    EXPECT_EQ(grew(), (Counts{0, 1, 0, 0}));
    EXPECT_EQ(status_of(trace.requests[0]), Response::Status::kOk);
    EXPECT_EQ(grew(), (Counts{1, 0, 0, 0}));
    EXPECT_EQ(status_of(bad), Response::Status::kError);
    EXPECT_EQ(grew(), (Counts{0, 0, 1, 0}));
  }
  ServiceEngine idle;  // never started: stop() rejects what it queued
  auto sub = idle.submit(trace.requests[2]);
  ASSERT_EQ(sub.admission, Admission::kAccepted);
  idle.stop();
  EXPECT_EQ(sub.response.get().status, Response::Status::kRejected);
  EXPECT_EQ(grew(), (Counts{0, 0, 0, 1}));
}

#endif  // PSLOCAL_OBS_ENABLED

}  // namespace
}  // namespace pslocal::service::stages
