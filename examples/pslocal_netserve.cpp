// pslocal_netserve — TCP front-end for the serving engine.
//
// Spins up a ServiceEngine and a net::Server on a loopback (or given)
// address, prints the bound endpoint, and serves wire-protocol requests
// until the duration elapses or SIGINT/SIGTERM arrives, then prints its
// server stats and exits 0.  This is the process half of the "Serving
// over TCP" quickstart (docs/net.md); pslocal_stats --connect=host:port
// scrapes it from another process.
//
//   pslocal_netserve                          # ephemeral port, prints it
//   pslocal_netserve --port=7411 --threads=4  # fixed port, 4 serving lanes
//   pslocal_netserve --self-test=32           # loopback round-trip, exit
//
// --self-test=N short-circuits the serving loop: an in-process
// net::Client sends N seeded requests through the real socket stack,
// checks every response, prints the stats and exits 0 — a one-command
// smoke test of the whole tier (ctest runs exactly this).
//
// Knobs: --host --port --duration-s --self-test=N --queue-capacity
// --cache-entries --max-connections --threads --seed.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <thread>

#include "net/client.hpp"
#include "net/server.hpp"
#include "service/engine.hpp"
#include "service/workload.hpp"
#include "util/bench_report.hpp"
#include "util/check.hpp"
#include "util/options.hpp"

using namespace pslocal;

namespace {

std::atomic<bool> g_stop{false};
extern "C" void handle_signal(int) { g_stop.store(true); }

void print_stats(const net::Server::Stats& s) {
  std::cout << "server stats: accepted=" << s.accepted
            << " frames_rx=" << s.frames_rx << " frames_tx=" << s.frames_tx
            << " bytes_rx=" << s.bytes_rx << " bytes_tx=" << s.bytes_tx
            << " dispatched=" << s.requests_dispatched
            << " nack_queue_full=" << s.nacks_queue_full
            << " nack_shutdown=" << s.nacks_shutdown
            << " decode_errors=" << s.decode_errors << "\n";
}

int self_test(net::Server& server, const std::string& host,
              std::uint16_t port, std::uint64_t seed, std::size_t requests) {
  service::TraceParams tp;
  tp.seed = seed;
  tp.requests = requests;
  tp.instance_pool = 4;
  tp.n = 32;
  tp.m = 24;
  const service::Trace trace = service::generate_trace(tp);

  net::Client::Config cc;
  cc.host = host;
  cc.port = port;
  net::Client client(cc);
  client.connect();

  net::Client::RetryPolicy policy;
  policy.seed = seed;
  std::size_t ok = 0;
  for (const service::Request& req : trace.requests) {
    const net::Client::Result r = client.call_with_retry(req, policy);
    if (r.outcome == net::Client::Outcome::kOk) {
      ++ok;
    } else {
      std::cerr << "self-test request failed: "
                << net::Client::outcome_name(r.outcome)
                << (r.error.empty() ? "" : " (" + r.error + ")") << "\n";
    }
  }
  std::cout << "self-test: " << ok << "/" << trace.requests.size()
            << " requests ok\n";
  print_stats(server.stats());
  return ok == trace.requests.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  apply_thread_option(opts);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  service::EngineConfig cfg;
  cfg.queue_capacity =
      static_cast<std::size_t>(opts.get_int("queue-capacity", 256));
  cfg.cache.max_entries =
      static_cast<std::size_t>(opts.get_int("cache-entries", 512));
  service::ServiceEngine engine(cfg);
  engine.start();

  net::Server::Config sc;
  sc.host = opts.get_string("host", "127.0.0.1");
  sc.port = static_cast<std::uint16_t>(opts.get_int("port", 0));
  sc.max_connections =
      static_cast<std::size_t>(opts.get_int("max-connections", 64));
  net::Server server(engine, sc);
  server.start();
  // Flushed immediately so a parent process (the CI smoke job) can read
  // the bound port before the first connection arrives.
  std::cout << "listening on " << sc.host << ":" << server.port()
            << std::endl;

  const auto self_requests = opts.get_int("self-test", 0);
  if (self_requests > 0) {
    const int rc = self_test(server, sc.host, server.port(), seed,
                             static_cast<std::size_t>(self_requests));
    server.stop();
    engine.stop();
    return rc;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  const double duration_s = opts.get_double("duration-s", 0.0);
  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (duration_s > 0.0) {
      const std::chrono::duration<double> up =
          std::chrono::steady_clock::now() - started;
      if (up.count() >= duration_s) break;
    }
  }

  print_stats(server.stats());
  server.stop();
  engine.stop(service::ServiceEngine::StopMode::kDrain);
  return 0;
}
