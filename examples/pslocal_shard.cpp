// pslocal_shard — in-process shard cluster round-trip (docs/shard.md).
//
// Spins up an N-shard LocalCluster (one ServiceEngine + net::Server per
// shard on ephemeral loopback ports), runs the router's deterministic
// placement self-test, then drives a seeded trace through a ShardClient
// with the requested replication factor and checks every response.
// With --replay-out the canonical payloads are recorded; because
// placement never leaks into payload bytes, replay files from different
// shard counts and replication factors are cmp-identical — the
// shard-smoke CI job runs this binary at --shards=1/2 and rf=1/2 and
// byte-compares the outputs.
//
//   pslocal_shard --shards=2                         # round-trip, exit 0
//   pslocal_shard --shards=4 --replication=2         # fan-out pair
//   pslocal_shard --shards=2 --replay-out=r2.json    # record payloads
//   pslocal_shard --self-test-only                   # placement check only
//
// --kill-shard=i stops shard i after the first quarter of the trace —
// a scripted failover demo: with replication >= 2 (or i not the only
// shard) the run still answers every request.
//
// With --trace-out=<path> the whole run is recorded as one Chrome
// trace (docs/tracing.md): the driving client thread, each shard's io
// loops and serving lanes appear as named "shard<i>.*" tracks,
// and every request's spans (shard.call -> shard.attempt ->
// net.dispatch -> service.solve -> net.serialize) carry its trace_id.
//
// Knobs: --shards --replication --requests --pool --n --m --k
// --weight-mutate --cache-entries --io-threads --vnodes --replay-out
// --kill-shard --self-test-only --trace-out --threads --seed.
#include <unistd.h>

#include <iostream>
#include <string>

#include "obs/obs.hpp"
#include "service/engine.hpp"
#include "service/workload.hpp"
#include "shard/shard.hpp"
#include "util/bench_report.hpp"
#include "util/check.hpp"
#include "util/options.hpp"

using namespace pslocal;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  apply_thread_option(opts);  // starts the trace session on --trace-out
  obs::set_trace_process(static_cast<std::uint32_t>(::getpid()),
                         "pslocal_shard");
  obs::set_thread_label("client");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  shard::LocalClusterConfig cc;
  cc.shards = static_cast<std::size_t>(opts.get_int("shards", 2));
  cc.replication = static_cast<std::size_t>(
      opts.get_int("replication", 1));
  cc.engine.cache.max_entries =
      static_cast<std::size_t>(opts.get_int("cache-entries", 512));
  cc.io_threads = static_cast<std::size_t>(opts.get_int("io-threads", 1));
  cc.vnodes = static_cast<std::size_t>(opts.get_int("vnodes", 64));
  cc.ring_seed = seed;

  // Placement self-test on the requested shard count (socket-free).
  {
    shard::Topology topo;
    topo.ring_seed = cc.ring_seed;
    topo.vnodes = cc.vnodes;
    for (std::size_t s = 0; s < cc.shards; ++s)
      topo.shards.push_back(shard::Endpoint{"127.0.0.1", 1});
    const auto st = shard::ShardRouter(topo).self_test();
    std::cout << "router " << st.detail << "\n";
    if (!st.ok) return 1;
    if (opts.get_bool("self-test-only", false)) return 0;
  }

  service::TraceParams tp;
  tp.seed = seed;
  tp.requests = static_cast<std::size_t>(opts.get_int("requests", 48));
  tp.instance_pool = static_cast<std::size_t>(opts.get_int("pool", 6));
  tp.n = static_cast<std::size_t>(opts.get_int("n", 32));
  tp.m = static_cast<std::size_t>(opts.get_int("m", 24));
  tp.k = static_cast<std::size_t>(opts.get_int("k", 3));
  tp.weight_mutate =
      static_cast<unsigned>(opts.get_int("weight-mutate", 0));
  const service::Trace trace = service::generate_trace(tp);

  shard::LocalCluster cluster(cc);
  cluster.start();
  std::cout << "cluster: " << topology_json(cluster.topology()) << "\n";

  shard::ShardClientConfig scc;
  scc.topology = cluster.topology();
  scc.retry.seed = seed;
  shard::ShardClient client(scc);
  client.connect();

  const auto kill_shard = opts.get_int("kill-shard", -1);
  const std::size_t kill_at = trace.requests.size() / 4;

  std::vector<service::ReplayEntry> entries;
  entries.reserve(trace.requests.size());
  std::size_t ok = 0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    if (kill_shard >= 0 && i == kill_at) {
      std::cout << "killing shard " << kill_shard << " at request " << i
                << "\n";
      cluster.kill_shard(static_cast<std::size_t>(kill_shard));
    }
    const net::Client::Result r = client.call(trace.requests[i]);
    if (r.outcome == net::Client::Outcome::kOk) {
      ++ok;
      entries.push_back(
          service::ReplayEntry{i, r.response.key, r.response.result});
    } else {
      std::cerr << "request " << i << " failed: "
                << net::Client::outcome_name(r.outcome)
                << (r.error.empty() ? "" : " (" + r.error + ")") << "\n";
    }
  }
  client.drain();

  const auto stats = client.stats();
  std::cout << "served " << ok << "/" << trace.requests.size() << " over "
            << cc.shards << " shards (rf=" << client.replication()
            << "): sends=" << stats.sends
            << " fanout=" << stats.fanout_sends
            << " dups_suppressed=" << stats.duplicates_suppressed
            << " failovers=" << stats.failovers
            << " reroutes=" << stats.reroutes_queue_full << "\n";
  std::cout << "routed per shard: [";
  const auto routed = client.routed_per_shard();
  for (std::size_t s = 0; s < routed.size(); ++s)
    std::cout << (s == 0 ? "" : ",") << routed[s];
  std::cout << "]\n";
  for (std::size_t s = 0; s < cluster.shards(); ++s) {
    std::cout << "shard " << s << " engine: "
              << service::stats_json(cluster.engine(s).stats()) << "\n";
  }

  const std::string replay_out = opts.get_string("replay-out", "");
  if (!replay_out.empty() && ok == trace.requests.size()) {
    service::write_replay_file(replay_out, entries, tp.seed);
    std::cout << "replay written to " << replay_out << "\n";
  }

  cluster.stop();
  obs::finish_tracing();  // writes the --trace-out file, if a session ran
  return ok == trace.requests.size() ? 0 : 1;
}
