// qos/: tenant registry + token-bucket determinism, weighted-fair
// admission (DRR exactness, lane bounds, deadline stamping), the engine
// integration (shed verdicts with backoff hints, token charges for
// hits answered at submit, deadline sheds at dispatch, the stats
// surface), and the end-to-end typed-NACK contract
// over real sockets.  QosEngineMultiLaneTest reruns the engine cases on
// a 4-lane pool (4 serving lanes).  All suites match the TSan CI filter
// `*Qos*`.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "qos/fair_queue.hpp"
#include "qos/tenant.hpp"
#include "runtime/thread_pool.hpp"
#include "service/engine.hpp"
#include "service/workload.hpp"
#include "util/json.hpp"

namespace pslocal {
namespace {

using service::Admission;
using service::Pending;

TEST(QosTenantTest, RegistryIndexZeroIsAlwaysTheDefaultTenant) {
  qos::TenantRegistry empty;
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty.resolve(""), 0u);
  EXPECT_EQ(empty.resolve("nobody-configured-this"), 0u);
  EXPECT_EQ(empty.config(0).weight, 1u);
  EXPECT_EQ(empty.config(0).rate_rps, 0.0);

  qos::TenantConfig gold;
  gold.name = "gold";
  gold.weight = 4;
  qos::TenantConfig dflt;  // "" overrides the default tenant's policy
  dflt.weight = 2;
  qos::TenantRegistry reg({gold, dflt});
  ASSERT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.resolve("gold"), 1u);
  EXPECT_EQ(reg.config(1).weight, 4u);
  // Unknown wire tenants degrade to the default lane, not an error —
  // that is what keeps pre-QoS senders servable.
  EXPECT_EQ(reg.resolve("silver"), 0u);
  EXPECT_EQ(reg.config(0).weight, 2u);
}

TEST(QosTenantTest, TokenBucketIsAPureFunctionOfTheTimestampSchedule) {
  // rate 1000 rps, burst 2: two tokens up front, then exactly one per
  // millisecond of caller-supplied clock.  No wall time anywhere.
  qos::TokenBucket a(1000.0, 2.0), b(1000.0, 2.0);
  const std::uint64_t t0 = 1;
  EXPECT_TRUE(a.try_acquire(t0).admitted);
  EXPECT_TRUE(a.try_acquire(t0).admitted);
  const auto shed = a.try_acquire(t0);
  EXPECT_FALSE(shed.admitted);
  // The hint names the instant a whole token exists: 1ms at this rate.
  EXPECT_GE(shed.retry_after_us, 999u);
  EXPECT_LE(shed.retry_after_us, 1001u);
  // Honoring the hint admits.
  EXPECT_TRUE(a.try_acquire(t0 + shed.retry_after_us * 1000).admitted);

  // A second bucket fed the identical schedule produces the identical
  // verdicts (the determinism the qc properties lean on).
  EXPECT_TRUE(b.try_acquire(t0).admitted);
  EXPECT_TRUE(b.try_acquire(t0).admitted);
  const auto shed_b = b.try_acquire(t0);
  EXPECT_FALSE(shed_b.admitted);
  EXPECT_EQ(shed_b.retry_after_us, shed.retry_after_us);

  // rate 0 = unlimited: always admitted, never a hint.
  qos::TokenBucket open(0.0, 0.0);
  for (int i = 0; i < 64; ++i) {
    const auto v = open.try_acquire(static_cast<std::uint64_t>(i));
    EXPECT_TRUE(v.admitted);
    EXPECT_EQ(v.retry_after_us, 0u);
  }
}

qos::QosConfig two_tenant_config() {
  qos::QosConfig config;
  config.enabled = true;
  config.quantum = 2;
  qos::TenantConfig a;
  a.name = "a";
  a.weight = 3;
  qos::TenantConfig b;
  b.name = "b";
  b.weight = 1;
  config.tenants = {a, b};
  return config;
}

Pending make_pending(const std::string& tenant, std::uint64_t submit_ns) {
  Pending p;
  p.request.tenant = tenant;
  p.submit_ns = submit_ns;
  return p;
}

TEST(QosFairQueueTest, DrrRoundServesQuantumTimesWeightPerBackloggedLane) {
  qos::FairQueue q(two_tenant_config(), 64);
  std::uint64_t clock = 1;
  for (int i = 0; i < 12; ++i)
    ASSERT_EQ(q.admit(make_pending("a", clock++)).admission,
              Admission::kAccepted);
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(q.admit(make_pending("b", clock++)).admission,
              Admission::kAccepted);

  // One DRR visit credits quantum x weight: a gets 6, b gets 2 —
  // exactly, not asymptotically, because both lanes stay backlogged.
  std::vector<Pending> out;
  ASSERT_EQ(q.pop_batch(out, 8), 8u);
  std::size_t from_a = 0, from_b = 0;
  for (const Pending& p : out)
    (p.request.tenant == "a" ? from_a : from_b)++;
  EXPECT_EQ(from_a, 6u);
  EXPECT_EQ(from_b, 2u);

  // FIFO within a lane: a's pops arrive in admission order.
  std::uint64_t prev = 0;
  for (const Pending& p : out)
    if (p.request.tenant == "a") {
      EXPECT_GT(p.submit_ns, prev);
      prev = p.submit_ns;
    }
  q.shutdown();
}

TEST(QosFairQueueTest, SinglePopsResumeTheRoundInsteadOfRestartingIt) {
  // Serving lanes pop one request at a time.  Each pop must continue
  // the DRR round where the previous one stopped: two weight-1 tenants
  // at quantum 4 alternate in runs of four, whether popped one by one
  // or sixteen at once, and no deficit grows past one visit's credit.
  qos::QosConfig config;
  config.enabled = true;
  config.quantum = 4;
  qos::TenantConfig a;
  a.name = "a";
  qos::TenantConfig b;
  b.name = "b";
  config.tenants = {a, b};
  qos::FairQueue whole(config, 64), single(config, 64);
  std::uint64_t clock = 1;
  for (const char* tenant : {"a", "b"})
    for (int i = 0; i < 8; ++i, ++clock) {
      ASSERT_EQ(whole.admit(make_pending(tenant, clock)).admission,
                Admission::kAccepted);
      ASSERT_EQ(single.admit(make_pending(tenant, clock)).admission,
                Admission::kAccepted);
    }
  std::vector<Pending> all, one;
  ASSERT_EQ(whole.pop_batch(all, 16), 16u);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(single.pop_batch(one, 1), 1u);
    for (const auto& lane : single.tenant_stats())
      EXPECT_LE(lane.deficit, config.quantum);
  }
  std::string whole_order, single_order;
  for (const Pending& p : all) whole_order += p.request.tenant;
  for (const Pending& p : one) single_order += p.request.tenant;
  EXPECT_EQ(single_order, whole_order);
  const bool a_first = whole_order.front() == 'a';
  EXPECT_EQ(whole_order,
            a_first ? "aaaabbbbaaaabbbb" : "bbbbaaaabbbbaaaa");
  whole.shutdown();
  single.shutdown();
}

TEST(QosFairQueueTest, GlobalCapacityBoundIsQueueFullNotShed) {
  qos::FairQueue q(two_tenant_config(), 2);
  EXPECT_EQ(q.admit(make_pending("a", 1)).admission, Admission::kAccepted);
  EXPECT_EQ(q.admit(make_pending("b", 2)).admission, Admission::kAccepted);
  const auto v = q.admit(make_pending("a", 3));
  // Same contract as the pre-QoS RequestQueue: nothing was computed,
  // the client may retry — but it is not a shed (no hint).
  EXPECT_EQ(v.admission, Admission::kQueueFull);
  EXPECT_EQ(v.retry_after_us, 0u);
  EXPECT_EQ(q.depth(), 2u);
  q.shutdown();
}

TEST(QosFairQueueTest, LaneBoundAndRateLimitShedWithHints) {
  qos::QosConfig config;
  config.enabled = true;
  qos::TenantConfig bounded;
  bounded.name = "bounded";
  bounded.queue_limit = 1;
  qos::TenantConfig limited;
  limited.name = "limited";
  limited.rate_rps = 1000.0;
  limited.burst = 1.0;
  config.tenants = {bounded, limited};
  qos::FairQueue q(config, 64);

  // Per-lane FIFO bound: the lane is full, the global queue is not.
  ASSERT_EQ(q.admit(make_pending("bounded", 1)).admission,
            Admission::kAccepted);
  const auto lane_shed = q.admit(make_pending("bounded", 2));
  EXPECT_EQ(lane_shed.admission, Admission::kShed);
  EXPECT_GT(lane_shed.retry_after_us, 0u);

  // Token bucket: burst 1 admits once, then sheds with the refill hint.
  ASSERT_EQ(q.admit(make_pending("limited", 10)).admission,
            Admission::kAccepted);
  const auto rate_shed = q.admit(make_pending("limited", 10));
  EXPECT_EQ(rate_shed.admission, Admission::kShed);
  EXPECT_GE(rate_shed.retry_after_us, 999u);
  EXPECT_LE(rate_shed.retry_after_us, 1001u);

  const auto stats = q.tenant_stats();
  ASSERT_EQ(stats.size(), 3u);  // default + 2
  EXPECT_EQ(stats[0].name, "default");
  EXPECT_EQ(stats[1].name, "bounded");
  EXPECT_EQ(stats[1].admitted, 1u);
  EXPECT_EQ(stats[1].shed_rate, 1u);
  EXPECT_EQ(stats[2].name, "limited");
  EXPECT_EQ(stats[2].shed_rate, 1u);
  q.shutdown();
}

TEST(QosFairQueueTest, DeadlineClassStampsDeadlineAtAdmission) {
  qos::QosConfig config;
  config.enabled = true;
  qos::TenantConfig t;
  t.name = "slo";
  t.deadline_ms = 5;
  config.tenants = {t};
  qos::FairQueue q(config, 8);
  ASSERT_EQ(q.admit(make_pending("slo", 1'000)).admission,
            Admission::kAccepted);
  // Unknown tenant -> default lane, which has no deadline class.
  ASSERT_EQ(q.admit(make_pending("who", 2'000)).admission,
            Admission::kAccepted);

  std::vector<Pending> out;
  ASSERT_EQ(q.pop_batch(out, 8), 2u);
  for (const Pending& p : out) {
    if (p.request.tenant == "slo")
      EXPECT_EQ(p.deadline_ns, 1'000u + 5'000'000u);
    else
      EXPECT_EQ(p.deadline_ns, 0u);
  }
  q.shutdown();
}

TEST(QosFairQueueTest, ShutdownRefusesAdmissionAndDrainReturnsBacklog) {
  qos::FairQueue q(two_tenant_config(), 8);
  ASSERT_EQ(q.admit(make_pending("a", 1)).admission, Admission::kAccepted);
  ASSERT_EQ(q.admit(make_pending("b", 2)).admission, Admission::kAccepted);
  q.shutdown();
  EXPECT_EQ(q.admit(make_pending("a", 3)).admission, Admission::kShutdown);
  std::vector<Pending> out;
  EXPECT_EQ(q.drain(out), 2u);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(q.depth(), 0u);
}

service::Trace qos_trace() {
  service::TraceParams tp;
  tp.seed = 23;
  tp.requests = 6;
  tp.instance_pool = 2;
  tp.n = 24;
  tp.m = 18;
  tp.k = 2;
  return service::generate_trace(tp);
}

/// Engine config on `sched` (nullptr: the global pool).
service::EngineConfig on_scheduler(runtime::Scheduler* sched) {
  service::EngineConfig cfg;
  cfg.scheduler = sched;
  return cfg;
}

void check_shed_verdict(runtime::Scheduler* sched) {
  const service::Trace trace = qos_trace();

  // Reference bytes from a qos-off engine (no tenant field at all).
  service::ServiceEngine ref{on_scheduler(sched)};
  ref.start();
  auto ref_sub = ref.submit(trace.requests[0]);
  ASSERT_EQ(ref_sub.admission, Admission::kAccepted);
  const std::string ref_bytes = ref_sub.response.get().result;
  EXPECT_FALSE(ref.stats().qos_enabled);
  EXPECT_TRUE(ref.stats().qos_tenants.empty());

  service::EngineConfig cfg = on_scheduler(sched);
  cfg.qos.enabled = true;
  qos::TenantConfig t;
  t.name = "t";
  t.rate_rps = 1.0;  // one token per second: the 2nd submit must shed
  t.burst = 1.0;
  cfg.qos.tenants = {t};
  service::ServiceEngine engine(cfg);
  engine.start();

  service::Request probe = trace.requests[0];
  probe.tenant = "t";
  auto first = engine.submit(probe);
  ASSERT_EQ(first.admission, Admission::kAccepted);
  EXPECT_EQ(first.response.get().result, ref_bytes);

  auto second = engine.submit(probe);
  EXPECT_EQ(second.admission, Admission::kShed);
  EXPECT_GT(second.retry_after_us, 0u);

  const auto stats = engine.stats();
  EXPECT_TRUE(stats.qos_enabled);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_deadline, 0u);
  ASSERT_EQ(stats.qos_tenants.size(), 2u);
  EXPECT_EQ(stats.qos_tenants[1].name, "t");
  EXPECT_EQ(stats.qos_tenants[1].admitted, 1u);
  EXPECT_EQ(stats.qos_tenants[1].shed_rate, 1u);
  engine.stop();
}

TEST(QosEngineTest, ShedVerdictCarriesHintAndAcceptedBytesStayPure) {
  check_shed_verdict(nullptr);
}

TEST(QosEngineMultiLaneTest, ShedVerdictCarriesHintAndAcceptedBytesStayPure) {
  runtime::ThreadPool pool(4);
  check_shed_verdict(&pool);
}

void check_hits_pay_tokens(runtime::Scheduler* sched) {
  // A warmed key is answered at submit, yet each hit still takes one
  // token from its tenant's bucket: a burst of hits is accepted exactly
  // `burst` times, and the rest are shed with the bucket's refill hint,
  // as queued requests are.  A shed hit counts no cache hit.
  const service::Trace trace = qos_trace();
  service::EngineConfig cfg = on_scheduler(sched);
  cfg.qos.enabled = true;
  qos::TenantConfig t;
  t.name = "t";
  t.rate_rps = 0.1;  // one token per 10 s: nothing refills mid-test
  t.burst = 3.0;
  cfg.qos.tenants = {t};
  service::ServiceEngine engine(cfg);
  engine.start();
  auto warm = engine.submit(trace.requests[0]);  // the unlimited default
  ASSERT_EQ(warm.admission, Admission::kAccepted);
  ASSERT_FALSE(warm.response.get().cache_hit);

  service::Request hot = trace.requests[0];
  hot.tenant = "t";
  std::size_t accepted = 0;
  std::vector<std::uint64_t> hints;
  for (int i = 0; i < 7; ++i) {
    auto sub = engine.submit(hot);
    if (sub.admission == Admission::kAccepted) {
      ++accepted;
      EXPECT_TRUE(sub.response.get().cache_hit);
    } else {
      EXPECT_EQ(sub.admission, Admission::kShed);
      hints.push_back(sub.retry_after_us);
    }
  }
  EXPECT_EQ(accepted, 3u);
  ASSERT_EQ(hints.size(), 4u);
  for (const std::uint64_t hint : hints) {
    EXPECT_GT(hint, 9'000'000u);
    EXPECT_LE(hint, 10'000'000u);
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.shed, 4u);
  EXPECT_EQ(stats.served_cached, 3u);
  EXPECT_EQ(stats.cache.hits, 3u);
  ASSERT_EQ(stats.qos_tenants.size(), 2u);
  EXPECT_EQ(stats.qos_tenants[1].admitted, 3u);
  EXPECT_EQ(stats.qos_tenants[1].shed_rate, 4u);
  engine.stop();
}

TEST(QosEngineTest, HitsPayTheirTenantsTokens) {
  check_hits_pay_tokens(nullptr);
}

TEST(QosEngineMultiLaneTest, HitsPayTheirTenantsTokens) {
  runtime::ThreadPool pool(4);
  check_hits_pay_tokens(&pool);
}

void check_deadline_shed(runtime::Scheduler* sched) {
  const service::Trace trace = qos_trace();
  service::EngineConfig cfg = on_scheduler(sched);
  cfg.qos.enabled = true;
  qos::TenantConfig t;
  t.name = "slo";
  t.deadline_ms = 1;
  cfg.qos.tenants = {t};
  service::ServiceEngine engine(cfg);  // not started: the request parks

  service::Request probe = trace.requests[0];
  probe.tenant = "slo";
  auto sub = engine.submit(probe);
  ASSERT_EQ(sub.admission, Admission::kAccepted);
  // Let the 1ms deadline class expire while the request is queued, then
  // start the lanes: they must answer with a shed, not burn solver time
  // on an answer nobody is waiting for.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine.start();
  const service::Response resp = sub.response.get();
  EXPECT_EQ(resp.status, service::Response::Status::kRejected);
  EXPECT_EQ(resp.reason, "shed");
  EXPECT_EQ(resp.retry_after_us, 1000u);  // deadline_ms as the hint

  const auto stats = engine.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.served, 0u);
  ASSERT_EQ(stats.qos_tenants.size(), 2u);
  EXPECT_EQ(stats.qos_tenants[1].shed_deadline, 1u);
  engine.stop();
}

TEST(QosEngineTest, PastDeadlineRequestIsShedAtDispatchNotServed) {
  check_deadline_shed(nullptr);
}

TEST(QosEngineMultiLaneTest, PastDeadlineRequestIsShedAtDispatchNotServed) {
  runtime::ThreadPool pool(4);
  check_deadline_shed(&pool);
}

void check_stats_json_qos_block(runtime::Scheduler* sched) {
  service::EngineConfig cfg = on_scheduler(sched);
  cfg.queue_capacity = 99;
  cfg.qos.enabled = true;
  qos::TenantConfig t;
  t.name = "gold";
  t.weight = 4;
  cfg.qos.tenants = {t};
  service::ServiceEngine engine(cfg);

  const json::Value doc = json::parse(service::stats_json(engine.stats()));
  EXPECT_EQ(doc.at("queue_capacity").as_number(), 99.0);
  const json::Value& qos = doc.at("qos");
  EXPECT_EQ(qos.at("enabled").as_number(), 1.0);
  const auto& tenants = qos.at("tenants").as_array();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].at("name").as_string(), "default");
  EXPECT_EQ(tenants[1].at("name").as_string(), "gold");
  EXPECT_EQ(tenants[1].at("weight").as_number(), 4.0);

  // QoS off: the block stays present (scrapers need a stable shape) but
  // reports disabled with no tenant lanes.
  service::ServiceEngine off{on_scheduler(sched)};
  const json::Value off_doc = json::parse(service::stats_json(off.stats()));
  EXPECT_EQ(off_doc.at("qos").at("enabled").as_number(), 0.0);
  EXPECT_TRUE(off_doc.at("qos").at("tenants").as_array().empty());
}

TEST(QosEngineTest, StatsJsonCarriesTheQosBlock) {
  check_stats_json_qos_block(nullptr);
}

TEST(QosEngineMultiLaneTest, StatsJsonCarriesTheQosBlock) {
  runtime::ThreadPool pool(4);
  check_stats_json_qos_block(&pool);
}

TEST(QosNetTest, ShedBecomesTypedNackWithBackoffHint) {
  // End to end over loopback: a rate-limited tenant's second frame is
  // answered NACK(kShedRetryAfter) carrying the deterministic hint, the
  // first is served normally, and the server tallies the shed.
  const service::Trace trace = qos_trace();
  service::EngineConfig cfg;
  cfg.qos.enabled = true;
  qos::TenantConfig t;
  t.name = "t";
  t.rate_rps = 1.0;
  t.burst = 1.0;
  cfg.qos.tenants = {t};
  service::ServiceEngine engine(cfg);
  engine.start();
  net::Server server(engine, {});
  server.start();
  net::Client::Config cc;
  cc.port = server.port();
  net::Client client(cc);
  client.connect();

  service::Request req = trace.requests[0];
  req.tenant = "t";
  // Pipeline both sends before waiting, so the second reaches admission
  // well inside the 1s refill window.
  const std::uint64_t first_id = client.send(req);
  const std::uint64_t second_id = client.send(req);

  const net::Client::Result first = client.wait(first_id);
  ASSERT_EQ(first.outcome, net::Client::Outcome::kOk) << first.error;
  const net::Client::Result second = client.wait(second_id);
  ASSERT_EQ(second.outcome, net::Client::Outcome::kNack) << second.error;
  EXPECT_EQ(second.nack_code, net::wire::NackCode::kShedRetryAfter);
  EXPECT_GT(second.retry_after_us, 0u);

  EXPECT_EQ(server.stats().nacks_shed, 1u);
  EXPECT_EQ(server.stats().nacks_queue_full, 0u);

  // An untagged sender on the same socket lands in the default tenant
  // and is served — the abusive lane's limit never bleeds across.
  const net::Client::Result untagged = client.call(trace.requests[1]);
  EXPECT_EQ(untagged.outcome, net::Client::Outcome::kOk) << untagged.error;

  server.stop();
  engine.stop();
}

TEST(QosNetTest, DeadlineShedBecomesTypedNackWithBackoffHint) {
  // A request whose deadline class expires while it is queued is shed
  // by the serving lane that pops it; the server sends that answer as
  // NACK(kShedRetryAfter), like an admission-time shed, and tallies it.
  const service::Trace trace = qos_trace();
  service::EngineConfig cfg;
  cfg.qos.enabled = true;
  qos::TenantConfig t;
  t.name = "slo";
  t.deadline_ms = 1;
  cfg.qos.tenants = {t};
  service::ServiceEngine engine(cfg);  // not started: the request waits
  net::Server server(engine, {});
  server.start();
  net::Client::Config cc;
  cc.port = server.port();
  net::Client client(cc);
  client.connect();

  service::Request req = trace.requests[0];
  req.tenant = "slo";
  const std::uint64_t id = client.send(req);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().requests_dispatched == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine.start();

  const net::Client::Result shed = client.wait(id);
  ASSERT_EQ(shed.outcome, net::Client::Outcome::kNack) << shed.error;
  EXPECT_EQ(shed.nack_code, net::wire::NackCode::kShedRetryAfter);
  EXPECT_EQ(shed.retry_after_us, 1000u);  // deadline_ms as the hint

  server.stop();
  EXPECT_EQ(server.stats().nacks_shed, 1u);
  EXPECT_EQ(engine.stats().shed_deadline, 1u);
  engine.stop();
}

}  // namespace
}  // namespace pslocal
