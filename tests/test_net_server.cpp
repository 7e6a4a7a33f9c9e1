// net/server: end-to-end serving over real loopback sockets — payload
// parity with in-process execution over one and over several concurrent
// connections, cache visibility, the typed-NACK backpressure contract,
// per-connection fault isolation, answers leaving in completion order,
// hits answered while every lane is busy, and answers that arrive after
// the server is gone.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gate_scheduler.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "service/workload.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace pslocal::net {
namespace {

service::TraceParams small_trace_params() {
  service::TraceParams tp;
  tp.seed = 11;
  tp.requests = 12;
  tp.instance_pool = 3;
  tp.n = 32;
  tp.m = 24;
  tp.k = 3;
  return tp;
}

service::Trace small_trace() {
  return service::generate_trace(small_trace_params());
}

Client make_client(const Server& server) {
  Client::Config cc;
  cc.port = server.port();
  return Client(cc);
}

/// Serves `trace` from `connections` client threads, each on its own
/// connection and taking the next unclaimed trace index, through a
/// Server with `io_threads` loops in front of an engine on `cfg`.  Every
/// response must carry the payload execute_request computes in-process,
/// no client may end with an unresolved or unclaimed frame, and the
/// server must answer every frame it read.
void check_calls_match_in_process_execution(const service::Trace& trace,
                                            std::size_t connections,
                                            const service::EngineConfig& cfg,
                                            std::size_t io_threads) {
  runtime::ThreadPool direct_pool(1);
  std::vector<std::string> expected;
  expected.reserve(trace.requests.size());
  for (const service::Request& req : trace.requests)
    expected.push_back(service::execute_request(req, direct_pool));

  service::ServiceEngine engine(cfg);
  engine.start();
  Server::Config sc;
  sc.io_threads = io_threads;
  Server server(engine, sc);
  server.start();

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      Client client = make_client(server);
      client.connect();
      for (std::size_t i = next.fetch_add(1); i < trace.requests.size();
           i = next.fetch_add(1)) {
        const service::Request& req = trace.requests[i];
        const Client::Result r = client.call(req);
        ASSERT_EQ(r.outcome, Client::Outcome::kOk) << r.error;
        EXPECT_EQ(r.response.key, service::cache_key(req));
        // The bytes that crossed the wire are the canonical payload the
        // library computes in-process for the same request.
        EXPECT_EQ(r.response.result, expected[i]);
        EXPECT_GT(r.rtt_ns, 0u);
      }
      EXPECT_EQ(client.inflight(), 0u);
      EXPECT_EQ(client.parked(), 0u);
    });
  }
  for (auto& t : clients) t.join();

  // An io loop counts a frame after send() returns, which can be after
  // the client already holds the reply; stop() joins the loops first.
  server.stop();
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, connections);
  EXPECT_EQ(stats.frames_rx, trace.requests.size());
  EXPECT_EQ(stats.frames_tx, trace.requests.size());
  EXPECT_EQ(stats.requests_dispatched, trace.requests.size());
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.nacks_queue_full, 0u);
}

TEST(NetServerTest, EndToEndCallMatchesInProcessExecution) {
  check_calls_match_in_process_execution(small_trace(), 1, {}, 1);
}

TEST(NetServerTest, ConcurrentConnectionsMatchInProcessExecution) {
  // Four client threads, each on its own connection, to a 4-lane engine
  // behind two io loops, over a trace with mutate requests mixed in.
  service::TraceParams tp = small_trace_params();
  tp.requests = 48;
  tp.weight_mutate = 25;
  runtime::ThreadPool lanes(4);
  service::EngineConfig cfg;
  cfg.scheduler = &lanes;
  check_calls_match_in_process_execution(service::generate_trace(tp), 4, cfg,
                                         2);
}

TEST(NetServerTest, RepeatedRequestIsServedFromCache) {
  const service::Trace trace = small_trace();
  service::ServiceEngine engine;
  engine.start();
  Server server(engine, {});
  server.start();
  Client client = make_client(server);
  client.connect();

  const Client::Result first = client.call(trace.requests[0]);
  ASSERT_EQ(first.outcome, Client::Outcome::kOk) << first.error;
  EXPECT_FALSE(first.response.cache_hit);
  const Client::Result second = client.call(trace.requests[0]);
  ASSERT_EQ(second.outcome, Client::Outcome::kOk) << second.error;
  EXPECT_TRUE(second.response.cache_hit);
  EXPECT_EQ(second.response.result, first.response.result);
}

TEST(NetServerTest, QueueFullBecomesTypedNackNotSilence) {
  // An un-started engine with capacity 1 makes admission deterministic:
  // the first request parks in the queue forever, the second is refused
  // at the door.  The server must answer the refusal with NACK(queue_full)
  // immediately — even though the first request's future never resolves —
  // and the parked request must still get its shutdown answer at stop().
  const service::Trace trace = small_trace();
  service::EngineConfig cfg;
  cfg.queue_capacity = 1;
  service::ServiceEngine engine(cfg);  // never started
  Server server(engine, {});
  server.start();
  Client client = make_client(server);
  client.connect();

  const std::uint64_t parked_id = client.send(trace.requests[0]);
  const Client::Result nacked = client.call(trace.requests[1]);
  ASSERT_EQ(nacked.outcome, Client::Outcome::kNack) << nacked.error;
  EXPECT_EQ(nacked.nack_code, wire::NackCode::kQueueFull);
  EXPECT_EQ(server.stats().nacks_queue_full, 1u);

  engine.stop();  // answers the parked request with kRejected("shutdown")
  const Client::Result drained = client.wait(parked_id);
  ASSERT_EQ(drained.outcome, Client::Outcome::kRejected) << drained.error;
  EXPECT_EQ(drained.response.reason, "shutdown");
}

TEST(NetServerTest, ReadyResponseIsNotHeldBehindASlowerOne) {
  // Two lanes, two connections.  A's miss is held mid-compute at the
  // closed gate; B's hit, admitted after it, must come back while the
  // gate is still closed: each answer leaves from the lane that made
  // it, so no slower answer admitted earlier, on any connection, holds
  // it up.
  const service::Trace trace = small_trace();
  service::Request hot = trace.requests[0];
  hot.kind = service::RequestKind::kBuildConflictGraph;
  hot.k = 2;
  service::Request slow = trace.requests[1];
  slow.kind = service::RequestKind::kBuildConflictGraph;
  slow.k = 3;
  runtime::GateScheduler gate(2);
  service::EngineConfig cfg;
  cfg.scheduler = &gate;
  service::ServiceEngine engine(cfg);
  engine.start();
  Server server(engine, {});
  server.start();
  Client a = make_client(server);
  a.connect();
  Client b = make_client(server);
  b.connect();
  ASSERT_EQ(b.call(hot).outcome, Client::Outcome::kOk);  // warm the hit

  gate.close();
  const std::uint64_t slow_id = a.send(slow);
  const bool computing = gate.wait_held(1);
  const Client::Result hit = b.call(hot, /*timeout_ms=*/5000);
  const std::size_t held_after_hit = gate.held();
  gate.open();

  EXPECT_TRUE(computing);
  ASSERT_EQ(hit.outcome, Client::Outcome::kOk)
      << Client::outcome_name(hit.outcome);
  EXPECT_TRUE(hit.response.cache_hit);
  EXPECT_EQ(held_after_hit, 1u);
  const Client::Result miss = a.wait(slow_id);
  ASSERT_EQ(miss.outcome, Client::Outcome::kOk) << miss.error;
  EXPECT_FALSE(miss.response.cache_hit);
}

TEST(NetServerTest, HitIsAnsweredWhileEveryLaneIsBusy) {
  // The engine's only lane is held mid-compute in A's miss at the
  // closed gate.  B's warmed hit needs no lane: the io loop that
  // decoded it answers it inside submit() and writes it.
  const service::Trace trace = small_trace();
  service::Request hot = trace.requests[0];
  hot.kind = service::RequestKind::kBuildConflictGraph;
  hot.k = 2;
  service::Request slow = trace.requests[1];
  slow.kind = service::RequestKind::kBuildConflictGraph;
  slow.k = 3;
  runtime::GateScheduler gate(1);
  service::EngineConfig cfg;
  cfg.scheduler = &gate;
  service::ServiceEngine engine(cfg);
  engine.start();
  Server server(engine, {});
  server.start();
  Client a = make_client(server);
  a.connect();
  Client b = make_client(server);
  b.connect();
  ASSERT_EQ(b.call(hot).outcome, Client::Outcome::kOk);  // warm the hit

  gate.close();
  const std::uint64_t slow_id = a.send(slow);
  const bool computing = gate.wait_held(1);
  const Client::Result hit = b.call(hot, /*timeout_ms=*/5000);
  const std::size_t held_after_hit = gate.held();
  gate.open();

  EXPECT_TRUE(computing);
  ASSERT_EQ(hit.outcome, Client::Outcome::kOk)
      << Client::outcome_name(hit.outcome);
  EXPECT_TRUE(hit.response.cache_hit);
  EXPECT_EQ(held_after_hit, 1u);
  const Client::Result miss = a.wait(slow_id);
  ASSERT_EQ(miss.outcome, Client::Outcome::kOk) << miss.error;
  EXPECT_FALSE(miss.response.cache_hit);
}

TEST(NetServerTest, AnswerAfterTheServerIsGoneIsDropped) {
  // The engine outlives the server.  A request admitted through a
  // server that is destroyed before the engine answers it is answered
  // into the void: its completion touches only the loop outbox it
  // shares, never the freed server (ASan checks this).
  const service::Trace trace = small_trace();
  service::ServiceEngine engine;  // never started: the request waits
  {
    Server server(engine, {});
    server.start();
    Client client = make_client(server);
    client.connect();
    client.send(trace.requests[0]);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.stats().requests_dispatched == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server.stats().requests_dispatched, 1u);
  }
  engine.stop();  // answers the queued request with kRejected("shutdown")
  EXPECT_EQ(engine.stats().rejected_shutdown, 1u);
}

TEST(NetServerTest, GarbageStreamClosesOnlyThatConnection) {
  const service::Trace trace = small_trace();
  service::ServiceEngine engine;
  engine.start();
  Server server(engine, {});
  server.start();

  // Raw socket speaking nonsense: the server must close it...
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string garbage(64, '\xff');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0) << "expected EOF";
  ::close(fd);

  // ...while a well-behaved connection keeps being served.
  Client client = make_client(server);
  client.connect();
  const Client::Result r = client.call(trace.requests[0]);
  EXPECT_EQ(r.outcome, Client::Outcome::kOk) << r.error;
  EXPECT_GE(server.stats().decode_errors, 1u);
  EXPECT_GE(server.stats().closed, 1u);
}

TEST(NetServerTest, ServerStopLeavesClientWithTransportError) {
  const service::Trace trace = small_trace();
  service::ServiceEngine engine;
  engine.start();
  Server server(engine, {});
  server.start();
  Client client = make_client(server);
  client.connect();
  ASSERT_EQ(client.call(trace.requests[0]).outcome, Client::Outcome::kOk);

  server.stop();
  // The next exchange cannot succeed; it must fail promptly and loudly —
  // a transport outcome from wait(), or send() itself throwing once the
  // kernel reports the reset — never a hang.
  try {
    const Client::Result r =
        client.call(trace.requests[1], /*timeout_ms=*/2000);
    EXPECT_TRUE(r.outcome == Client::Outcome::kTransport ||
                r.outcome == Client::Outcome::kTimeout)
        << Client::outcome_name(r.outcome);
  } catch (const ContractViolation&) {
    // send() noticed the dead socket first — equally acceptable.
  }
}

TEST(NetServerTest, StatsRequestAnsweredInlineWithDeterministicJson) {
  // The live telemetry plane (docs/tracing.md): a kStatsRequest frame
  // is answered from the io loop with one JSON object — engine stats,
  // obs snapshot, per-loop server gauges — without touching the
  // dispatch queue.
  const service::Trace trace = small_trace();
  service::ServiceEngine engine;
  engine.start();
  Server::Config sc;
  sc.name = "stats-under-test";
  Server server(engine, sc);
  server.start();
  Client client = make_client(server);
  client.connect();

  // Scrape works on an idle server...
  const Client::Result idle = client.stats();
  ASSERT_EQ(idle.outcome, Client::Outcome::kOk) << idle.error;
  const json::Value idle_doc = json::parse(idle.stats_json);
  EXPECT_EQ(idle_doc.at("engine").at("served").as_number(), 0.0);

  // ...and mid-traffic, interleaved with real requests on the SAME
  // connection.
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(client.call(trace.requests[i]).outcome, Client::Outcome::kOk);
  const Client::Result r = client.stats();
  ASSERT_EQ(r.outcome, Client::Outcome::kOk) << r.error;

  const json::Value doc = json::parse(r.stats_json);
  EXPECT_EQ(doc.at("engine").at("served").as_number(), 4.0);
  EXPECT_TRUE(doc.at("obs").is_object());
  EXPECT_TRUE(doc.at("obs").at("histograms").is_object());
  const json::Value& srv = doc.at("server");
  EXPECT_EQ(srv.at("name").as_string(), "stats-under-test");
  EXPECT_EQ(static_cast<std::size_t>(srv.at("io_loops").as_number()),
            srv.at("loops").as_array().size());
  EXPECT_GE(srv.at("connections").as_number(), 1.0);
  for (const auto& loop : srv.at("loops").as_array()) {
    EXPECT_TRUE(loop.has("connections"));
    EXPECT_TRUE(loop.has("queued_bytes"));
  }

  // Stats frames are not dispatched requests: the engine never sees
  // them and the dispatch counter counts only the 4 real calls.
  EXPECT_EQ(server.stats().requests_dispatched, 4u);

#if PSLOCAL_OBS_ENABLED
  // With instrumentation compiled in, serving 4 requests must have
  // populated the per-stage histograms the scraper summarizes.
  bool saw_stage = false;
  for (const auto& [name, hist] : doc.at("obs").at("histograms").members()) {
    if (name.rfind("service.stage.", 0) == 0 &&
        hist.at("count").as_number() > 0.0)
      saw_stage = true;
  }
  EXPECT_TRUE(saw_stage);
#endif
}

TEST(NetServerTest, ResponseFrameEchoesRequestTraceContext) {
  // Trace ids stamped into a request frame come back on the response
  // frame even in an OBS=OFF build — the words are wire plumbing, not
  // instrumentation.
  const service::Trace trace = small_trace();
  service::ServiceEngine engine;
  engine.start();
  Server server(engine, {});
  server.start();
  Client client = make_client(server);
  client.connect();

  service::Request req = trace.requests[0];
  req.trace_id = 0x7e57ab1e;
  req.parent_span_id = 5;
  const Client::Result r = client.call(req);
  ASSERT_EQ(r.outcome, Client::Outcome::kOk) << r.error;
  EXPECT_EQ(r.trace_id, 0x7e57ab1eu);
}

#if PSLOCAL_OBS_ENABLED
TEST(NetServerTest, ObsCountersTrackTraffic) {
  const service::Trace trace = small_trace();
  const obs::Snapshot before = obs::snapshot();
  service::ServiceEngine engine;
  engine.start();
  Server server(engine, {});
  server.start();
  {
    Client client = make_client(server);
    client.connect();
    for (int i = 0; i < 3; ++i)
      ASSERT_EQ(client.call(trace.requests[i]).outcome, Client::Outcome::kOk);
  }
  server.stop();
  const obs::Snapshot after = obs::snapshot();
  EXPECT_GE(after.counter("net.accepted") - before.counter("net.accepted"),
            1u);
  EXPECT_GE(after.counter("net.frames_rx") - before.counter("net.frames_rx"),
            3u);
  EXPECT_GE(after.counter("net.frames_tx") - before.counter("net.frames_tx"),
            3u);
  EXPECT_GT(after.counter("net.bytes_rx"), before.counter("net.bytes_rx"));
  EXPECT_GT(after.counter("net.bytes_tx"), before.counter("net.bytes_tx"));
  // Every connection opened here is closed again: the gauge nets to 0.
  EXPECT_EQ(after.gauge("net.conn_active"), 0);
  const auto rtt =
      after.histogram("net.rtt_ns").count - before.histogram("net.rtt_ns").count;
  EXPECT_GE(rtt, 3u);
}
#endif  // PSLOCAL_OBS_ENABLED

}  // namespace
}  // namespace pslocal::net
