// Closed-loop TCP loopback load generator for the net tier (docs/net.md).
//
// Replays a seeded trace (service/workload.hpp) through the full stack —
// net::Client -> wire frames -> net::Server -> ServiceEngine — from
// --clients closed-loop client threads, each owning one TCP connection.
// Two passes run over the same trace (1 client, then --clients clients)
// so the report shows what connection parallelism buys; the two passes
// must produce byte-identical response payloads (verify_replay), and
// every pass asserts zero lost and zero duplicated responses (every
// request resolves kOk exactly once; no client holds unclaimed parked
// frames at the end).
//
// A third pass pins the backpressure contract: a deliberately undersized
// engine queue (--nack-queue-capacity, cache off) makes
// admission fail under concurrent load, the server answers with typed
// NACK(queue_full) frames, and call_with_retry's seeded backoff drives
// every request to eventual completion — NACKs observed > 0, errors 0.
//
// By default the bench hosts its own server on an ephemeral loopback
// port; --connect=host:port targets an already-running pslocal_netserve
// instead (used by the CI smoke job; the NACK pass and server-side stats
// are skipped, since the remote queue depth is not ours to undersize).
//
// Knobs: --requests --pool --n --m --k --seed-variants (trace shape),
// --clients, --queue-capacity --cache-entries (local engine),
// --nack-queue-capacity --nack-requests --nack=false (backpressure pass),
// --connect=host:port, --iters-small (CI-sized run), --threads, --seed.
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "bench_main.hpp"
#include "load_gen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/engine.hpp"
#include "service/workload.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

using namespace pslocal;

namespace {

struct NetPass {
  benchload::ClosedLoopResult loop;
  // Log2-resolution quantiles from the obs net.rtt_ns histogram.
  std::uint64_t obs_p50_ns = 0, obs_p99_ns = 0;
  std::uint64_t nack_retries = 0;  // extra sends forced by NACK(queue_full)
  std::vector<service::ReplayEntry> entries;
};

/// Worker-thread context: one connection, plus a destructor that tallies
/// unresolved ids and unclaimed parked frames into `unclaimed` — both
/// must be zero for a loss/duplication-free pass.
struct NetCtx {
  std::unique_ptr<net::Client> client;
  std::atomic<std::uint64_t>* unclaimed = nullptr;

  NetCtx(std::unique_ptr<net::Client> c, std::atomic<std::uint64_t>* u)
      : client(std::move(c)), unclaimed(u) {}
  NetCtx(NetCtx&&) = default;
  NetCtx& operator=(NetCtx&&) = default;
  ~NetCtx() {
    if (client && unclaimed != nullptr)
      unclaimed->fetch_add(client->inflight() + client->parked(),
                           std::memory_order_relaxed);
  }
};

NetPass run_net_pass(const service::Trace& trace, const std::string& host,
                     std::uint16_t port, std::size_t clients,
                     const net::Client::RetryPolicy& policy) {
  NetPass result;
  const obs::Snapshot before = obs::snapshot();
  const std::size_t total = trace.requests.size();
  result.entries.resize(total);
  std::atomic<std::uint64_t> unclaimed{0};
  std::atomic<std::uint64_t> nack_retries{0};

  result.loop = benchload::run_closed_loop(
      total, clients,
      [&](std::size_t) {
        net::Client::Config cc;
        cc.host = host;
        cc.port = port;
        auto client = std::make_unique<net::Client>(cc);
        client->connect();
        return NetCtx(std::move(client), &unclaimed);
      },
      [&](NetCtx& ctx, std::size_t i) -> benchload::OneResult {
        const net::Client::Result r =
            ctx.client->call_with_retry(trace.requests[i], policy);
        benchload::OneResult one;
        one.ok = r.outcome == net::Client::Outcome::kOk;
        one.latency_ns = r.rtt_ns;
        one.retries = r.attempts - 1;
        nack_retries.fetch_add(r.attempts - 1, std::memory_order_relaxed);
        if (one.ok)
          result.entries[i] = service::ReplayEntry{i, r.response.key,
                                                   r.response.result};
        else
          std::cerr << "request " << i << " failed: "
                    << net::Client::outcome_name(r.outcome)
                    << (r.error.empty() ? "" : " (" + r.error + ")") << "\n";
        return one;
      });

  PSL_CHECK_MSG(result.loop.errors == 0,
                result.loop.errors << "/" << total
                    << " requests lost or failed (see stderr)");
  PSL_CHECK_MSG(unclaimed.load() == 0,
                unclaimed.load() << " duplicated/unclaimed response frames");

  result.nack_retries = nack_retries.load();
  const obs::Snapshot after = obs::snapshot();
  const auto rtt_hist = benchload::diff_histogram(
      before.histogram("net.rtt_ns"), after.histogram("net.rtt_ns"));
  result.obs_p50_ns = rtt_hist.value_at_quantile(0.50);
  result.obs_p99_ns = rtt_hist.value_at_quantile(0.99);
  return result;
}

/// Host+port of whichever server this run talks to: an in-process
/// net::Server over a fresh engine by default, or an external one when
/// --connect=host:port is given (engine/server stay null then).
struct Target {
  std::string host;
  std::uint16_t port = 0;
  std::unique_ptr<service::ServiceEngine> engine;
  std::unique_ptr<net::Server> server;

  [[nodiscard]] bool local() const { return server != nullptr; }
};

Target make_local_target(const service::EngineConfig& cfg) {
  Target t;
  t.engine = std::make_unique<service::ServiceEngine>(cfg);
  t.engine->start();
  net::Server::Config sc;  // ephemeral loopback port
  t.server = std::make_unique<net::Server>(*t.engine, sc);
  t.server->start();
  t.host = sc.host;
  t.port = t.server->port();
  return t;
}

Target parse_connect_target(const std::string& spec) {
  const auto colon = spec.rfind(':');
  PSL_CHECK_MSG(colon != std::string::npos && colon + 1 < spec.size(),
                "--connect expects host:port, got \"" << spec << "\"");
  Target t;
  t.host = spec.substr(0, colon);
  const int port = std::stoi(spec.substr(colon + 1));
  PSL_CHECK_MSG(port > 0 && port <= 65535,
                "--connect port out of range: " << port);
  t.port = static_cast<std::uint16_t>(port);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  return benchmain::run(
      argc, argv, "net", 1, [](benchmain::Context& ctx) {
        const bool small = ctx.opts.get_bool("iters-small", false);
        service::TraceParams tp;
        tp.seed = ctx.seed;
        tp.requests = static_cast<std::size_t>(
            ctx.opts.get_int("requests", small ? 400 : 10000));
        tp.instance_pool =
            static_cast<std::size_t>(ctx.opts.get_int("pool", 24));
        tp.n = static_cast<std::size_t>(ctx.opts.get_int("n", 48));
        tp.m = static_cast<std::size_t>(ctx.opts.get_int("m", 40));
        tp.k = static_cast<std::size_t>(ctx.opts.get_int("k", 3));
        tp.seed_variants =
            static_cast<std::size_t>(ctx.opts.get_int("seed-variants", 2));
        const auto clients =
            static_cast<std::size_t>(ctx.opts.get_int("clients", 8));

        service::EngineConfig cfg;
        cfg.queue_capacity =
            static_cast<std::size_t>(ctx.opts.get_int("queue-capacity", 256));
        cfg.cache.max_entries =
            static_cast<std::size_t>(ctx.opts.get_int("cache-entries", 512));

        const service::Trace trace = service::generate_trace(tp);
        ctx.report.metric("requests", static_cast<double>(tp.requests))
            .metric("unique_keys", static_cast<double>(trace.unique_keys))
            .metric("clients", static_cast<double>(clients));

        const std::string connect = ctx.opts.get_string("connect", "");
        Target target = connect.empty() ? make_local_target(cfg)
                                        : parse_connect_target(connect);
        std::cout << "target: " << (target.local() ? "in-process server on "
                                                   : "external server at ")
                  << target.host << ":" << target.port << ", "
                  << tp.requests << " requests (" << trace.unique_keys
                  << " distinct cache keys)\n";

        net::Client::RetryPolicy policy;
        policy.seed = ctx.seed;

        const NetPass single =
            run_net_pass(trace, target.host, target.port, 1, policy);
        const NetPass multi =
            run_net_pass(trace, target.host, target.port, clients, policy);

        // Same trace through the same server — the payload bytes must
        // not depend on how many connections carried them.
        const auto verdict = service::verify_replay(single.entries,
                                                    multi.entries);
        PSL_CHECK_MSG(verdict.identical,
                      "multi-client pass diverged from single-client pass "
                      "at id " << verdict.first_mismatch_id << " ("
                          << verdict.mismatches << " mismatches)");

        Table table("Loopback serving throughput — 1 vs " +
                    std::to_string(clients) + " client connections");
        table.header({"pass", "wall s", "req/s", "p50 ms", "p99 ms",
                      "mean ms", "obs p50 ms", "obs p99 ms", "errors",
                      "retries"});
        const auto row = [&](const std::string& name, const NetPass& r) {
          table.row({name, fmt_double(r.loop.wall_s, 2),
                     fmt_double(r.loop.throughput_rps, 0),
                     fmt_double(r.loop.p50_ms, 3), fmt_double(r.loop.p99_ms, 3),
                     fmt_double(r.loop.mean_ms, 3),
                     fmt_double(static_cast<double>(r.obs_p50_ns) / 1e6, 3),
                     fmt_double(static_cast<double>(r.obs_p99_ns) / 1e6, 3),
                     fmt_size(r.loop.errors), fmt_size(r.loop.retries)});
        };
        row("1 client", single);
        row(std::to_string(clients) + " clients", multi);
        std::cout << table.render();
        ctx.report.add_table(table);

        ctx.report.metric("throughput_rps", multi.loop.throughput_rps)
            .metric("single_client_rps", single.loop.throughput_rps)
            .metric("client_scaling",
                    multi.loop.throughput_rps /
                        std::max(single.loop.throughput_rps, 1e-9))
            .metric("latency_p50_ms", multi.loop.p50_ms)
            .metric("latency_p99_ms", multi.loop.p99_ms)
            .metric("latency_mean_ms", multi.loop.mean_ms)
            .metric("obs_rtt_p50_ns", static_cast<double>(multi.obs_p50_ns))
            .metric("obs_rtt_p99_ns", static_cast<double>(multi.obs_p99_ns))
            .metric("errors", static_cast<double>(multi.loop.errors));

        {
          // Per-connection completion counts: a closed loop self-balances,
          // so a skewed vector flags a slow connection or server loop.
          std::ostringstream per_conn;
          per_conn << "[";
          for (std::size_t c = 0; c < multi.loop.per_client.size(); ++c) {
            if (c != 0) per_conn << ",";
            per_conn << multi.loop.per_client[c];
          }
          per_conn << "]";
          ctx.report.metric("per_connection", per_conn.str());
        }

        if (target.local()) {
          const net::Server::Stats ss = target.server->stats();
          ctx.report.metric("frames_rx", static_cast<double>(ss.frames_rx))
              .metric("frames_tx", static_cast<double>(ss.frames_tx))
              .metric("bytes_rx", static_cast<double>(ss.bytes_rx))
              .metric("bytes_tx", static_cast<double>(ss.bytes_tx))
              .metric("decode_errors", static_cast<double>(ss.decode_errors));
          PSL_CHECK_MSG(ss.decode_errors == 0,
                        "server saw " << ss.decode_errors
                            << " decode errors on a clean load");
          target.server->stop();
          target.engine->stop();
        }

        // --- Backpressure pass: undersized queue must NACK, not drop.
        if (target.local() && ctx.opts.get_bool("nack", true)) {
          service::EngineConfig tiny = cfg;
          tiny.queue_capacity = static_cast<std::size_t>(
              ctx.opts.get_int("nack-queue-capacity", 2));
          tiny.cache.enabled = false;  // real compute per request, so the
          tiny.graph_cache_entries = 0;  // queue actually backs up
          service::TraceParams nack_tp = tp;
          nack_tp.requests = static_cast<std::size_t>(
              ctx.opts.get_int("nack-requests", small ? 120 : 2000));
          const service::Trace nack_trace = service::generate_trace(nack_tp);

          Target nt = make_local_target(tiny);
          // A deliberately starved queue NACKs most sends, and slow
          // builds (sanitizers) stretch each compute, so the retry
          // budget is sized for the worst case: the pass must end with
          // every request served, not with exhausted clients.
          net::Client::RetryPolicy nack_policy;
          nack_policy.seed = ctx.seed;
          nack_policy.max_attempts = 512;
          nack_policy.base_delay_us = 100;
          nack_policy.max_delay_us = 20000;
          const NetPass nacked = run_net_pass(nack_trace, nt.host, nt.port,
                                              clients, nack_policy);
          const net::Server::Stats ns = nt.server->stats();
          nt.server->stop();
          nt.engine->stop();

          const double nack_rate =
              static_cast<double>(ns.nacks_queue_full) /
              static_cast<double>(nack_tp.requests + ns.nacks_queue_full);
          std::cout << "backpressure: queue capacity "
                    << tiny.queue_capacity << ", " << nack_tp.requests
                    << " requests -> " << ns.nacks_queue_full
                    << " NACK(queue_full) (" << fmt_double(nack_rate * 100, 1)
                    << "% of sends), " << nacked.nack_retries
                    << " retries, 0 lost\n";
          PSL_CHECK_MSG(ns.nacks_queue_full > 0,
                        "undersized queue produced no NACKs — backpressure "
                        "path untested (capacity " << tiny.queue_capacity
                            << ", " << clients << " clients)");
          ctx.report
              .metric("nacks_queue_full",
                      static_cast<double>(ns.nacks_queue_full))
              .metric("nack_rate", nack_rate)
              .metric("nack_retries",
                      static_cast<double>(nacked.nack_retries))
              .metric("nack_errors",
                      static_cast<double>(nacked.loop.errors));
        }
        return 0;
      });
}
