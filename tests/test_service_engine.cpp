// service/engine + workload: end-to-end serving determinism, admission
// control, shutdown semantics, cache hits answered on the submitting
// thread, one compute per key across serving lanes, and replay files.
// The ServiceEngineMultiLaneTest suite reruns the concurrency, shutdown,
// cache-total and replay cases on a 4-lane pool (4 serving lanes); the
// default config runs one lane.
#include "service/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "gate_scheduler.hpp"
#include "runtime/thread_pool.hpp"
#include "service/workload.hpp"
#include "util/hash.hpp"

namespace pslocal::service {
namespace {

TraceParams small_trace_params() {
  TraceParams tp;
  tp.seed = 7;
  tp.requests = 60;
  tp.instance_pool = 4;
  tp.n = 32;
  tp.m = 24;
  tp.k = 3;
  return tp;
}

/// Serve every trace request (serially submitted, FIFO) and return the
/// replay entries in id order.
std::vector<ReplayEntry> serve_all(const Trace& trace,
                                   const EngineConfig& cfg) {
  ServiceEngine engine(cfg);
  engine.start();
  std::vector<ReplayEntry> entries;
  entries.reserve(trace.requests.size());
  for (const auto& req : trace.requests) {
    auto sub = engine.submit(req);
    EXPECT_EQ(sub.admission, Admission::kAccepted);
    const Response resp = sub.response.get();
    EXPECT_EQ(resp.status, Response::Status::kOk) << resp.reason;
    entries.push_back({resp.id, resp.key, resp.result});
  }
  return entries;
}

EngineConfig on_scheduler(runtime::Scheduler& sched) {
  EngineConfig cfg;
  cfg.scheduler = &sched;
  return cfg;
}

/// Build-conflict-graph request on trace instance `i` at conflict
/// parameter k (distinct k, distinct key and G_k).
Request build_request(const Trace& trace, std::size_t i, std::size_t k) {
  Request req = trace.requests[i];
  req.kind = RequestKind::kBuildConflictGraph;
  req.k = k;
  return req;
}

TEST(ServiceEngineTest, PayloadsIdenticalAcrossThreadCounts) {
  const Trace trace = generate_trace(small_trace_params());
  runtime::ThreadPool seq(1), par(4);
  EngineConfig cfg_seq;
  cfg_seq.scheduler = &seq;
  EngineConfig cfg_par;
  cfg_par.scheduler = &par;
  const auto a = serve_all(trace, cfg_seq);
  const auto b = serve_all(trace, cfg_par);
  const auto verdict = verify_replay(a, b);
  EXPECT_TRUE(verdict.identical)
      << verdict.mismatches << " mismatches, first id "
      << verdict.first_mismatch_id;
  EXPECT_EQ(verdict.compared, trace.requests.size());
}

TEST(ServiceEngineTest, PayloadsIdenticalWithAndWithoutCache) {
  const Trace trace = generate_trace(small_trace_params());
  EngineConfig cached;
  EngineConfig uncached;
  uncached.cache.enabled = false;
  uncached.graph_cache_entries = 0;
  const auto verdict =
      verify_replay(serve_all(trace, cached), serve_all(trace, uncached));
  EXPECT_TRUE(verdict.identical);
}

void check_cache_hit_totals(const EngineConfig& cfg) {
  // Cache capacity is far above unique_keys: no evictions.
  const Trace trace = generate_trace(small_trace_params());
  ServiceEngine engine(cfg);
  engine.start();
  for (const auto& req : trace.requests) {
    auto sub = engine.submit(req);
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    (void)sub.response.get();
  }
  const auto stats = engine.stats();
  // With serial submission every repeated key is a cache hit; total
  // hits = requests - distinct keys, independent of timing.
  EXPECT_EQ(stats.served, trace.requests.size());
  EXPECT_EQ(stats.served_cached, trace.requests.size() - trace.unique_keys);
  EXPECT_EQ(stats.cache.misses, trace.unique_keys);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServiceEngineTest, CacheHitTotalsAreDeterministic) {
  check_cache_hit_totals(EngineConfig{});
}

TEST(ServiceEngineMultiLaneTest, CacheHitTotalsAreDeterministic) {
  runtime::ThreadPool pool(4);
  check_cache_hit_totals(on_scheduler(pool));
}

TEST(ServiceEngineTest, UnstartedEngineAdmitsExactlyCapacity) {
  const Trace trace = generate_trace(small_trace_params());
  EngineConfig cfg;
  cfg.queue_capacity = 5;
  ServiceEngine engine(cfg);  // never started: nothing drains
  std::vector<std::future<Response>> accepted;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    auto sub = engine.submit(trace.requests[i]);
    if (sub.admission == Admission::kAccepted)
      accepted.push_back(std::move(sub.response));
    else if (sub.admission == Admission::kQueueFull)
      ++rejected;
  }
  EXPECT_EQ(accepted.size(), 5u);
  EXPECT_EQ(rejected, 4u);
  engine.stop();
  // Every admitted request is still answered — rejected at shutdown.
  for (auto& f : accepted) {
    const Response resp = f.get();
    EXPECT_EQ(resp.status, Response::Status::kRejected);
    EXPECT_EQ(resp.reason, "shutdown");
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.rejected_full, 4u);
  EXPECT_EQ(stats.rejected_shutdown, 5u);
}

TEST(ServiceEngineTest, QueueFullRejectionLeavesCachesUntouched) {
  // Regression pin: a kQueueFull rejection happens entirely at
  // admission — before any cache lookup — so it must not mutate the
  // solver cache, the conflict-graph cache, or any served counter.
  const Trace trace = generate_trace(small_trace_params());
  EngineConfig cfg;
  cfg.queue_capacity = 3;
  ServiceEngine engine(cfg);  // un-started: the queue never drains
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 12; ++i)
    if (engine.submit(trace.requests[i]).admission == Admission::kQueueFull)
      ++rejected;
  ASSERT_EQ(rejected, 9u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
  EXPECT_EQ(stats.cache.evictions, 0u);
  EXPECT_EQ(stats.graph_cache.builds, 0u);
  EXPECT_EQ(stats.graph_cache.hits, 0u);
  EXPECT_EQ(stats.served, 0u);
  engine.stop();
}

TEST(ServiceEngineTest, SubmitAfterStopIsRejectedImmediately) {
  const Trace trace = generate_trace(small_trace_params());
  ServiceEngine engine;
  engine.start();
  engine.stop();
  auto sub = engine.submit(trace.requests[0]);
  EXPECT_EQ(sub.admission, Admission::kShutdown);
}

TEST(ServiceEngineTest, WarmedHitAfterStopIsRejected) {
  // The payload is still cached, but a stopped engine answers nothing:
  // the hit is refused at admission and counts no cache hit.
  const Trace trace = generate_trace(small_trace_params());
  ServiceEngine engine;
  engine.start();
  auto warm = engine.submit(trace.requests[0]);
  ASSERT_EQ(warm.admission, Admission::kAccepted);
  ASSERT_EQ(warm.response.get().status, Response::Status::kOk);
  engine.stop();
  auto sub = engine.submit(trace.requests[0]);
  EXPECT_EQ(sub.admission, Admission::kShutdown);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

TEST(ServiceEngineTest, MissesAndHitsEachCountOnce) {
  // M distinct keys, then H repeats of them: each served request counts
  // one cache miss or one cache hit, whether the hit is answered at
  // submit or by a lane.
  const Trace trace = generate_trace(small_trace_params());
  constexpr std::size_t kMisses = 3;
  constexpr std::size_t kHits = 7;
  ServiceEngine engine;
  engine.start();
  for (std::size_t i = 0; i < kMisses + kHits; ++i) {
    auto sub = engine.submit(build_request(trace, 0, 2 + i % kMisses));
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    const Response resp = sub.response.get();
    ASSERT_EQ(resp.status, Response::Status::kOk) << resp.reason;
    EXPECT_EQ(resp.cache_hit, i >= kMisses);
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.accepted, kMisses + kHits);
  EXPECT_EQ(stats.served, kMisses + kHits);
  EXPECT_EQ(stats.served_cached, kHits);
  EXPECT_EQ(stats.cache.hits, kHits);
  EXPECT_EQ(stats.cache.misses, kMisses);
}

TEST(ServiceEngineTest, SolverErrorYieldsErrorResponseNotCrash) {
  const Trace trace = generate_trace(small_trace_params());
  Request req = trace.requests[0];
  req.kind = RequestKind::kRunReduction;
  req.solver = "no-such-solver";
  ServiceEngine engine;
  engine.start();
  auto sub = engine.submit(req);
  ASSERT_EQ(sub.admission, Admission::kAccepted);
  const Response resp = sub.response.get();
  EXPECT_EQ(resp.status, Response::Status::kError);
  EXPECT_FALSE(resp.reason.empty());
  EXPECT_EQ(engine.stats().errors, 1u);
}

TEST(ServiceEngineTest, HugeKIsAnErrorResponseAndTheLaneServesOn) {
  // Σ|e| = 2, so Σ|e| * 2^63 wraps to 0 triples in 64 bits: k itself
  // must be rejected, or the G_k build writes past its offset array.
  const Trace trace = generate_trace(small_trace_params());
  Request req = build_request(trace, 0, std::size_t{1} << 63);
  req.instance = std::make_shared<const Hypergraph>(
      2, std::vector<std::vector<VertexId>>{{0, 1}});
  req.instance_hash = 0;
  ServiceEngine engine;
  engine.start();
  auto sub = engine.submit(req);
  ASSERT_EQ(sub.admission, Admission::kAccepted);
  const Response resp = sub.response.get();
  EXPECT_EQ(resp.status, Response::Status::kError);
  EXPECT_FALSE(resp.reason.empty());
  auto next = engine.submit(trace.requests[1]);
  ASSERT_EQ(next.admission, Admission::kAccepted);
  EXPECT_EQ(next.response.get().status, Response::Status::kOk);
}

TEST(ServiceEngineTest, FillsInstanceHashWhenCallerLeavesItZero) {
  const Trace trace = generate_trace(small_trace_params());
  Request req = trace.requests[0];
  const std::uint64_t expected = req.instance_hash;
  req.instance_hash = 0;
  ServiceEngine engine;
  engine.start();
  auto sub = engine.submit(req);
  ASSERT_EQ(sub.admission, Admission::kAccepted);
  const Response resp = sub.response.get();
  EXPECT_EQ(resp.status, Response::Status::kOk);
  Request keyed = trace.requests[0];
  keyed.instance_hash = expected;
  EXPECT_EQ(resp.key, cache_key(keyed));
}

/// Eight closed-loop clients share one trace with mutate requests mixed
/// in, retrying on kQueueFull.  Every request is served, and the
/// payloads are byte-identical to the same trace served serially on an
/// engine with both caches off, where repeated mutate scripts are served
/// from the mutation sessions instead.  The TSan and ASan jobs run this
/// as their serving smoke.
void check_concurrent_clients_all_served(const EngineConfig& cfg) {
  TraceParams tp = small_trace_params();
  tp.requests = 300;
  tp.weight_mutate = 25;
  const Trace trace = generate_trace(tp);
  ServiceEngine engine(cfg);
  engine.start();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> served{0};
  std::vector<ReplayEntry> entries(trace.requests.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= trace.requests.size()) return;
        for (;;) {
          auto sub = engine.submit(trace.requests[i]);
          if (sub.admission == Admission::kQueueFull) {
            std::this_thread::yield();
            continue;
          }
          ASSERT_EQ(sub.admission, Admission::kAccepted);
          const Response resp = sub.response.get();
          ASSERT_EQ(resp.status, Response::Status::kOk) << resp.reason;
          entries[i] = {resp.id, resp.key, resp.result};
          served.fetch_add(1);
          break;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(served.load(), trace.requests.size());
  EXPECT_EQ(engine.stats().served, trace.requests.size());

  EngineConfig uncached = cfg;
  uncached.cache.enabled = false;
  uncached.graph_cache_entries = 0;
  const auto verdict = verify_replay(serve_all(trace, uncached), entries);
  EXPECT_TRUE(verdict.identical)
      << verdict.mismatches << " mismatches, first id "
      << verdict.first_mismatch_id;
  EXPECT_EQ(verdict.compared, trace.requests.size());
}

TEST(ServiceEngineTest, ConcurrentClientsAllServed) {
  check_concurrent_clients_all_served(EngineConfig{});
}

TEST(ServiceEngineMultiLaneTest, ConcurrentClientsAllServed) {
  runtime::ThreadPool pool(4);
  check_concurrent_clients_all_served(on_scheduler(pool));
}

TEST(ServiceEngineTest, TraceGenerationIsDeterministic) {
  const Trace a = generate_trace(small_trace_params());
  const Trace b = generate_trace(small_trace_params());
  ASSERT_EQ(a.requests.size(), b.requests.size());
  EXPECT_EQ(a.unique_keys, b.unique_keys);
  EXPECT_EQ(a.instance_hashes, b.instance_hashes);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].kind, b.requests[i].kind);
    EXPECT_EQ(a.requests[i].seed, b.requests[i].seed);
    EXPECT_EQ(cache_key(a.requests[i]), cache_key(b.requests[i]));
  }
}

void check_replay_round_trip(const EngineConfig& cfg) {
  TraceParams tp = small_trace_params();
  tp.requests = 20;
  const Trace trace = generate_trace(tp);
  const auto entries = serve_all(trace, cfg);
  const std::string path = ::testing::TempDir() + "service_replay_test.json";
  write_replay_file(path, entries, tp.seed);
  const auto loaded = read_replay_file(path);
  const auto verdict = verify_replay(entries, loaded);
  EXPECT_TRUE(verdict.identical);
  EXPECT_EQ(verdict.compared, entries.size());
}

TEST(ServiceEngineTest, ReplayFileRoundTripsByteExactly) {
  check_replay_round_trip(EngineConfig{});
}

TEST(ServiceEngineMultiLaneTest, ReplayFileRoundTripsByteExactly) {
  runtime::ThreadPool pool(4);
  check_replay_round_trip(on_scheduler(pool));
}

void check_stop_drain_serves_everything(EngineConfig cfg) {
  // Graceful drain: stop(kDrain) keeps the lanes serving until the
  // queue is empty, so every admitted request gets its real answer even
  // when stop() races the submissions.
  const Trace trace = generate_trace(small_trace_params());
  cfg.queue_capacity = trace.requests.size();
  ServiceEngine engine(cfg);
  engine.start();
  std::vector<std::future<Response>> futures;
  for (const auto& req : trace.requests) {
    auto sub = engine.submit(req);
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    futures.push_back(std::move(sub.response));
  }
  engine.stop(ServiceEngine::StopMode::kDrain);
  for (auto& f : futures) {
    const Response resp = f.get();
    EXPECT_EQ(resp.status, Response::Status::kOk) << resp.reason;
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.served, trace.requests.size());
  EXPECT_EQ(stats.rejected_shutdown, 0u);
}

TEST(ServiceEngineTest, StopDrainServesEverythingAdmitted) {
  check_stop_drain_serves_everything(EngineConfig{});
}

TEST(ServiceEngineMultiLaneTest, StopDrainServesEverythingAdmitted) {
  runtime::ThreadPool pool(4);
  check_stop_drain_serves_everything(on_scheduler(pool));
}

void check_stop_reject_answers_exactly_once(EngineConfig cfg) {
  // Fast shutdown: whatever was not yet dispatched when stop(kReject)
  // lands is answered kRejected("shutdown") instead of computed.  The
  // split between served and rejected depends on timing; the invariant
  // is that every future resolves, to exactly one of the two.
  const Trace trace = generate_trace(small_trace_params());
  cfg.queue_capacity = trace.requests.size();
  ServiceEngine engine(cfg);
  engine.start();
  std::vector<std::future<Response>> futures;
  for (const auto& req : trace.requests) {
    auto sub = engine.submit(req);
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    futures.push_back(std::move(sub.response));
  }
  engine.stop(ServiceEngine::StopMode::kReject);
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    const Response resp = f.get();
    if (resp.status == Response::Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, Response::Status::kRejected);
      EXPECT_EQ(resp.reason, "shutdown");
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, trace.requests.size());
  const auto stats = engine.stats();
  EXPECT_EQ(stats.served, ok);
  EXPECT_EQ(stats.rejected_shutdown, rejected);
}

TEST(ServiceEngineTest, StopRejectAnswersEveryFutureExactlyOnce) {
  check_stop_reject_answers_exactly_once(EngineConfig{});
}

TEST(ServiceEngineMultiLaneTest, StopRejectAnswersEveryFutureExactlyOnce) {
  runtime::ThreadPool pool(4);
  check_stop_reject_answers_exactly_once(on_scheduler(pool));
}

TEST(ServiceEngineTest, StopDrainOnUnstartedEngineStillAnswers) {
  // With no lane running there is nothing to drain with: the queued
  // requests are answered kRejected rather than abandoned.
  const Trace trace = generate_trace(small_trace_params());
  EngineConfig cfg;
  cfg.queue_capacity = 8;
  ServiceEngine engine(cfg);
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 5; ++i) {
    auto sub = engine.submit(trace.requests[i]);
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    futures.push_back(std::move(sub.response));
  }
  engine.stop(ServiceEngine::StopMode::kDrain);
  for (auto& f : futures) {
    const Response resp = f.get();
    EXPECT_EQ(resp.status, Response::Status::kRejected);
    EXPECT_EQ(resp.reason, "shutdown");
  }
}

void check_verify_replay_flags_tampering(const EngineConfig& cfg) {
  TraceParams tp = small_trace_params();
  tp.requests = 10;
  const Trace trace = generate_trace(tp);
  auto entries = serve_all(trace, cfg);
  auto tampered = entries;
  tampered[3].result[5] ^= 1;
  const auto verdict = verify_replay(entries, tampered);
  EXPECT_FALSE(verdict.identical);
  EXPECT_EQ(verdict.mismatches, 1u);
  EXPECT_EQ(verdict.first_mismatch_id, 3u);
}

TEST(ServiceEngineTest, VerifyReplayFlagsTamperedPayload) {
  check_verify_replay_flags_tampering(EngineConfig{});
}

TEST(ServiceEngineMultiLaneTest, VerifyReplayFlagsTamperedPayload) {
  runtime::ThreadPool pool(4);
  check_verify_replay_flags_tampering(on_scheduler(pool));
}

TEST(ServiceEngineMultiLaneTest, SameKeyQueuedBeforeStartComputesOnce) {
  // Eight copies of one request wait in the queue when four lanes
  // start.  The first lane to pop claims the key and stalls in the
  // compute at the closed gate; every other copy is popped and parks on
  // that compute (all eight pops happen with one region held), then is
  // answered from it as a hit.
  const Trace trace = generate_trace(small_trace_params());
  const Request req = build_request(trace, 0, 3);
  runtime::GateScheduler gate(4);
  ServiceEngine engine(on_scheduler(gate));
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    auto sub = engine.submit(req);
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    futures.push_back(std::move(sub.response));
  }
  gate.close();
  engine.start();
  const bool held = gate.wait_held(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.stats().dispatch_cycles < 8 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto parked = engine.stats();
  const std::size_t computing = gate.held();
  gate.open();

  EXPECT_TRUE(held);
  EXPECT_EQ(parked.dispatch_cycles, 8u);
  EXPECT_EQ(parked.batches, 1u);
  EXPECT_EQ(parked.served, 0u);
  EXPECT_EQ(computing, 1u);
  std::string first;
  std::size_t computed = 0;
  for (auto& f : futures) {
    const Response resp = f.get();
    ASSERT_EQ(resp.status, Response::Status::kOk) << resp.reason;
    if (first.empty()) first = resp.result;
    EXPECT_EQ(resp.result, first);
    if (!resp.cache_hit) ++computed;
  }
  EXPECT_EQ(computed, 1u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.served_cached, 7u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.graph_cache.builds, 1u);
}

TEST(ServiceEngineMultiLaneTest, SameKeyOnAFourLanePoolComputesOnce) {
  // The same queue-before-start burst on a real pool, where the timing
  // decides whether a copy parks or finds the cached payload: either
  // way exactly one copy computes.
  const Trace trace = generate_trace(small_trace_params());
  const Request req = build_request(trace, 0, 3);
  runtime::ThreadPool pool(4);
  ServiceEngine engine(on_scheduler(pool));
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    auto sub = engine.submit(req);
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    futures.push_back(std::move(sub.response));
  }
  engine.start();
  for (auto& f : futures)
    EXPECT_EQ(f.get().status, Response::Status::kOk);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.served_cached, 7u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

TEST(ServiceEngineMultiLaneTest, HitIsAnsweredWhileAMissComputes) {
  // Two lanes: one is held inside a slow miss, the other answers a
  // cache hit submitted after it — no cycle barrier makes the hit wait.
  const Trace trace = generate_trace(small_trace_params());
  const Request hot = build_request(trace, 0, 2);
  const Request slow = build_request(trace, 1, 3);
  runtime::GateScheduler gate(2);
  ServiceEngine engine(on_scheduler(gate));
  engine.start();
  auto warm = engine.submit(hot);
  ASSERT_EQ(warm.admission, Admission::kAccepted);
  ASSERT_FALSE(warm.response.get().cache_hit);

  gate.close();
  auto miss = engine.submit(slow);
  ASSERT_EQ(miss.admission, Admission::kAccepted);
  const bool computing = gate.wait_held(1);
  auto hit = engine.submit(hot);
  ASSERT_EQ(hit.admission, Admission::kAccepted);
  const bool hit_answered = hit.response.wait_for(std::chrono::seconds(30)) ==
                            std::future_status::ready;
  const bool miss_pending = miss.response.wait_for(std::chrono::seconds(0)) ==
                            std::future_status::timeout;
  gate.open();

  EXPECT_TRUE(computing);
  EXPECT_TRUE(hit_answered);
  EXPECT_TRUE(miss_pending);
  const Response hit_resp = hit.response.get();
  EXPECT_EQ(hit_resp.status, Response::Status::kOk);
  EXPECT_TRUE(hit_resp.cache_hit);
  const Response miss_resp = miss.response.get();
  EXPECT_EQ(miss_resp.status, Response::Status::kOk) << miss_resp.reason;
  EXPECT_FALSE(miss_resp.cache_hit);
}

/// What a completion saw: the thread it ran on, and the answer.
struct Answered {
  std::thread::id thread;
  Response resp;
};

/// A completion that hands its thread and answer to `promise`.
Completion answer_into(std::shared_ptr<std::promise<Answered>> promise) {
  return [promise = std::move(promise)](Response resp) {
    promise->set_value({std::this_thread::get_id(), std::move(resp)});
  };
}

TEST(ServiceEngineTest, HitIsAnsweredOnTheSubmittingThreadWhileTheLaneIsBusy) {
  // The only lane is held inside a miss at the closed gate.  A hit
  // submitted meanwhile needs neither the queue nor the lane: its
  // completion runs on this thread before submit() returns.
  const Trace trace = generate_trace(small_trace_params());
  const Request hot = build_request(trace, 0, 2);
  const Request slow = build_request(trace, 1, 3);
  runtime::GateScheduler gate(1);
  ServiceEngine engine(on_scheduler(gate));
  engine.start();
  auto warm = engine.submit(hot);
  ASSERT_EQ(warm.admission, Admission::kAccepted);
  ASSERT_FALSE(warm.response.get().cache_hit);

  gate.close();
  auto miss = engine.submit(slow);
  ASSERT_EQ(miss.admission, Admission::kAccepted);
  const bool computing = gate.wait_held(1);
  auto promise = std::make_shared<std::promise<Answered>>();
  std::future<Answered> hit = promise->get_future();
  const AdmissionVerdict verdict = engine.submit(hot, answer_into(promise));
  const bool answered_at_return =
      hit.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  const bool miss_pending = miss.response.wait_for(std::chrono::seconds(0)) ==
                            std::future_status::timeout;
  gate.open();

  EXPECT_TRUE(computing);
  EXPECT_EQ(verdict.admission, Admission::kAccepted);
  EXPECT_TRUE(answered_at_return);
  EXPECT_TRUE(miss_pending);
  const Answered answered = hit.get();
  EXPECT_EQ(answered.thread, std::this_thread::get_id());
  EXPECT_EQ(answered.resp.status, Response::Status::kOk);
  EXPECT_TRUE(answered.resp.cache_hit);
  EXPECT_EQ(answered.resp.queue_ns, 0u);
  const Response miss_resp = miss.response.get();
  EXPECT_EQ(miss_resp.status, Response::Status::kOk) << miss_resp.reason;
  EXPECT_FALSE(miss_resp.cache_hit);
}

TEST(ServiceEngineTest, HitIsServedWhenTheQueueIsFull) {
  // Capacity 1: the lane is held in one miss and a second miss fills
  // the queue, so a third miss is refused.  A warmed hit takes no queue
  // slot, so it is still accepted and answered.
  const Trace trace = generate_trace(small_trace_params());
  const Request hot = build_request(trace, 0, 2);
  runtime::GateScheduler gate(1);
  EngineConfig cfg = on_scheduler(gate);
  cfg.queue_capacity = 1;
  ServiceEngine engine(cfg);
  engine.start();
  auto warm = engine.submit(hot);
  ASSERT_EQ(warm.admission, Admission::kAccepted);
  ASSERT_FALSE(warm.response.get().cache_hit);

  gate.close();
  auto held = engine.submit(build_request(trace, 1, 3));
  ASSERT_EQ(held.admission, Admission::kAccepted);
  const bool computing = gate.wait_held(1);
  auto queued = engine.submit(build_request(trace, 2, 3));
  ASSERT_EQ(queued.admission, Admission::kAccepted);
  const Admission refused = engine.submit(build_request(trace, 3, 3)).admission;
  auto hit = engine.submit(hot);
  const bool answered_at_return =
      hit.admission == Admission::kAccepted &&
      hit.response.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready;
  gate.open();

  EXPECT_TRUE(computing);
  EXPECT_EQ(refused, Admission::kQueueFull);
  ASSERT_EQ(hit.admission, Admission::kAccepted);
  EXPECT_TRUE(answered_at_return);
  const Response hit_resp = hit.response.get();
  EXPECT_EQ(hit_resp.status, Response::Status::kOk);
  EXPECT_TRUE(hit_resp.cache_hit);
  EXPECT_EQ(held.response.get().status, Response::Status::kOk);
  EXPECT_EQ(queued.response.get().status, Response::Status::kOk);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.rejected_full, 1u);
  EXPECT_EQ(stats.served, 4u);
}

/// Submit the whole trace at once, twice, and check every response's
/// stage brackets.  A miss that computed spent compute_ns > 0 after its
/// queue wait and inside its total; a parked or cached answer computed
/// nothing; a hit answered on the submitting thread never queued.  The
/// first pass computes each key once; the second is all such hits.
void check_stage_brackets(const EngineConfig& cfg) {
  const Trace trace = generate_trace(small_trace_params());
  std::set<std::uint64_t> keys;
  for (const Request& req : trace.requests) keys.insert(cache_key(req));
  ASSERT_LT(keys.size(), trace.requests.size());  // the trace repeats keys
  ServiceEngine engine(cfg);
  engine.start();
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::future<Answered>> answers;
    for (const Request& req : trace.requests) {
      auto promise = std::make_shared<std::promise<Answered>>();
      answers.push_back(promise->get_future());
      ASSERT_EQ(engine.submit(req, answer_into(promise)).admission,
                Admission::kAccepted);
    }
    std::size_t computed = 0;
    std::size_t at_submit = 0;
    for (auto& answer : answers) {
      const Answered a = answer.get();
      const Response& resp = a.resp;
      ASSERT_EQ(resp.status, Response::Status::kOk) << resp.reason;
      if (resp.cache_hit) {
        EXPECT_EQ(resp.compute_ns, 0u) << "id " << resp.id;
      } else {
        ++computed;
        EXPECT_GT(resp.compute_ns, 0u) << "id " << resp.id;
      }
      EXPECT_LE(resp.queue_ns + resp.compute_ns, resp.total_ns)
          << "id " << resp.id;
      if (a.thread == std::this_thread::get_id()) {
        ++at_submit;
        EXPECT_TRUE(resp.cache_hit) << "id " << resp.id;
        EXPECT_EQ(resp.queue_ns, 0u) << "id " << resp.id;
      }
    }
    EXPECT_EQ(computed, pass == 0 ? keys.size() : 0u) << "pass " << pass;
    if (pass == 1) {
      EXPECT_EQ(at_submit, trace.requests.size());
    }
  }
}

TEST(ServiceEngineTest, StageBracketsHoldOnEveryResponse) {
  check_stage_brackets(EngineConfig{});
}

TEST(ServiceEngineMultiLaneTest, StageBracketsHoldOnEveryResponse) {
  runtime::ThreadPool pool(4);
  check_stage_brackets(on_scheduler(pool));
}

}  // namespace
}  // namespace pslocal::service
