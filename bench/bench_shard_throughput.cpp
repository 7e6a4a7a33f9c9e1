// Multi-shard serving throughput over the shard tier (docs/shard.md).
//
// Replays one seeded trace through LocalCluster topologies of 1, 2 and
// 4 shards (replication factor 1), plus a 2-shard rf=2 fan-out pass and
// a 2-shard rf=2 *failover* pass that kills one shard halfway through
// the trace.  Every pass must produce byte-identical response payloads
// (verify_replay against the 1-shard recording) with zero lost requests
// — including the failover pass, where the surviving replica absorbs
// the dead shard's keys mid-run.
//
// What the 1→2 shard speedup measures on a single-core host: this
// machine is CPU-bound, so sharding cannot add compute.  What it adds
// is *aggregate cache capacity*: each shard's SolverCache holds
// --cache-entries entries (deliberately sized below the trace's
// distinct-key count), so one shard thrashes its LRU and recomputes,
// while the consistent-hash partition splits the key set until it fits.
// That is the honest multi-node story — shards scale the memory tier,
// and on multi-core hosts the epoll-per-core server scales the CPU tier
// on top (BENCH_net measures that axis).  The rf=2 pass shows the
// fan-out tradeoff: every request computes on two replicas, buying
// tail-latency/availability with throughput.
//
// Per-connection request counts and per-shard routed counts go into the
// JSON so client- and shard-imbalance are visible.
//
// Knobs: --requests --pool --n --m --k --seed-variants (trace shape),
// --clients, --cache-entries --queue-capacity (per-shard
// engine), --vnodes, --io-threads (per-shard server loops),
// --iters-small (CI-sized run), --threads, --seed.
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.hpp"
#include "load_gen.hpp"
#include "net/client.hpp"
#include "service/engine.hpp"
#include "service/workload.hpp"
#include "shard/shard.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

using namespace pslocal;

namespace {

std::string counts_json(const std::vector<std::uint64_t>& counts) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) os << ",";
    os << counts[i];
  }
  os << "]";
  return os.str();
}

struct ShardPass {
  benchload::ClosedLoopResult loop;
  std::vector<service::ReplayEntry> entries;
  shard::ShardClient::Stats agg;                // summed over workers
  std::vector<std::uint64_t> routed;            // per shard, all workers
  std::vector<std::string> engine_stats;        // stats_json per shard
  /// Live telemetry scraped from each shard at the halfway request
  /// while the other workers keep driving load (kStatsRequest answered
  /// on the shard's io loop — docs/tracing.md).  "null" for a shard
  /// that was dead or unreachable at scrape time (the kill pass).
  std::vector<std::string> mid_stats;
};

/// One kStatsRequest round-trip against a shard endpoint; "null" when
/// the shard refuses or the scrape fails (it may be mid-kill).
std::string scrape_stats(const shard::Endpoint& ep) {
  try {
    net::Client::Config cc;
    cc.host = ep.host;
    cc.port = ep.port;
    cc.connect_timeout_ms = 2000;
    cc.io_timeout_ms = 5000;
    net::Client client(cc);
    client.connect();
    const net::Client::Result r = client.stats();
    if (r.outcome != net::Client::Outcome::kOk) return "null";
    return r.stats_json;
  } catch (const ContractViolation&) {
    return "null";
  }
}

/// Worker context: one ShardClient; the destructor drains duplicate
/// responses and folds the client's tallies into the shared aggregates.
struct ShardCtx {
  std::unique_ptr<shard::ShardClient> client;
  shard::ShardClient::Stats* agg = nullptr;
  std::vector<std::uint64_t>* routed = nullptr;

  ShardCtx(std::unique_ptr<shard::ShardClient> c,
           shard::ShardClient::Stats* a, std::vector<std::uint64_t>* r)
      : client(std::move(c)), agg(a), routed(r) {}
  ShardCtx(ShardCtx&&) = default;
  ShardCtx& operator=(ShardCtx&&) = default;
  ~ShardCtx() {
    if (client == nullptr) return;
    client->drain();
    const auto s = client->stats();
    // Workers are joined before the aggregates are read, but the folds
    // themselves run concurrently — guarded by the closed loop's design
    // of one context per worker thread plus this mutex.
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    agg->calls += s.calls;
    agg->sends += s.sends;
    agg->fanout_sends += s.fanout_sends;
    agg->duplicates_suppressed += s.duplicates_suppressed;
    agg->reroutes_queue_full += s.reroutes_queue_full;
    agg->failovers += s.failovers;
    agg->reconnects += s.reconnects;
    agg->pending_duplicates += s.pending_duplicates;
    const auto per_shard = client->routed_per_shard();
    for (std::size_t i = 0; i < per_shard.size(); ++i)
      (*routed)[i] += per_shard[i];
  }
};

struct PassConfig {
  std::size_t shards = 1;
  std::size_t replication = 1;
  std::size_t kill_shard = SIZE_MAX;  // fault injection target
  std::size_t kill_at = SIZE_MAX;     // request index that triggers it
};

ShardPass run_shard_pass(const service::Trace& trace,
                         const shard::LocalClusterConfig& cluster_cfg,
                         const PassConfig& pass, std::size_t clients,
                         const net::Client::RetryPolicy& policy,
                         int io_timeout_ms) {
  ShardPass result;
  const std::size_t total = trace.requests.size();
  result.entries.resize(total);
  result.routed.assign(pass.shards, 0);
  result.mid_stats.assign(pass.shards, "null");

  shard::LocalClusterConfig cc = cluster_cfg;
  cc.shards = pass.shards;
  cc.replication = pass.replication;
  shard::LocalCluster cluster(cc);
  cluster.start();
  std::atomic<bool> kill_armed{pass.kill_at != SIZE_MAX};

  result.loop = benchload::run_closed_loop(
      total, clients,
      [&](std::size_t) {
        shard::ShardClientConfig scc;
        scc.topology = cluster.topology();
        scc.retry = policy;
        scc.io_timeout_ms = io_timeout_ms;
        auto client = std::make_unique<shard::ShardClient>(scc);
        client->connect();
        return ShardCtx(std::move(client), &result.agg, &result.routed);
      },
      [&](ShardCtx& ctx, std::size_t i) -> benchload::OneResult {
        if (i == pass.kill_at && kill_armed.exchange(false)) {
          cluster.kill_shard(pass.kill_shard);
        }
        const net::Client::Result r = ctx.client->call(trace.requests[i]);
        benchload::OneResult one;
        one.ok = r.outcome == net::Client::Outcome::kOk;
        one.latency_ns = r.rtt_ns;
        one.retries = r.attempts - 1;
        if (one.ok)
          result.entries[i] = service::ReplayEntry{i, r.response.key,
                                                   r.response.result};
        else
          std::cerr << "request " << i << " failed: "
                    << net::Client::outcome_name(r.outcome)
                    << (r.error.empty() ? "" : " (" + r.error + ")") << "\n";
        return one;
      },
      [&] {
        // Mid-run scrape: the cluster is under load from every other
        // worker while these stats round-trips run.
        for (std::size_t s = 0; s < pass.shards; ++s) {
          if (!cluster.alive(s)) continue;
          result.mid_stats[s] = scrape_stats(cluster.topology().shards[s]);
        }
      });

  for (std::size_t s = 0; s < cluster.shards(); ++s)
    result.engine_stats.push_back(service::stats_json(cluster.engine(s).stats()));
  cluster.stop();

  PSL_CHECK_MSG(result.loop.errors == 0,
                result.loop.errors << "/" << total
                    << " requests lost or failed (see stderr)");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  return benchmain::run(
      argc, argv, "shard", 1, [](benchmain::Context& ctx) {
        const bool small = ctx.opts.get_bool("iters-small", false);
        service::TraceParams tp;
        tp.seed = ctx.seed;
        tp.requests = static_cast<std::size_t>(
            ctx.opts.get_int("requests", small ? 600 : 6000));
        tp.instance_pool = static_cast<std::size_t>(
            ctx.opts.get_int("pool", small ? 24 : 48));
        tp.n = static_cast<std::size_t>(ctx.opts.get_int("n", 48));
        tp.m = static_cast<std::size_t>(ctx.opts.get_int("m", 40));
        tp.k = static_cast<std::size_t>(ctx.opts.get_int("k", 3));
        tp.seed_variants =
            static_cast<std::size_t>(ctx.opts.get_int("seed-variants", 2));
        const auto clients =
            static_cast<std::size_t>(ctx.opts.get_int("clients", 8));

        const service::Trace trace = service::generate_trace(tp);

        shard::LocalClusterConfig cc;
        cc.engine.queue_capacity =
            static_cast<std::size_t>(ctx.opts.get_int("queue-capacity", 256));
        // Per-shard cache deliberately smaller than the key set: the
        // partition, not one LRU, has to hold the working set (header).
        cc.engine.cache.max_entries = static_cast<std::size_t>(
            ctx.opts.get_int("cache-entries",
                             static_cast<long long>(trace.unique_keys / 3)));
        cc.vnodes =
            static_cast<std::size_t>(ctx.opts.get_int("vnodes", 64));
        cc.io_threads =
            static_cast<std::size_t>(ctx.opts.get_int("io-threads", 1));
        cc.ring_seed = ctx.seed;

        ctx.report.metric("requests", static_cast<double>(tp.requests))
            .metric("unique_keys", static_cast<double>(trace.unique_keys))
            .metric("clients", static_cast<double>(clients))
            .metric("cache_entries_per_shard",
                    static_cast<double>(cc.engine.cache.max_entries));
        std::cout << tp.requests << " requests, " << trace.unique_keys
                  << " distinct cache keys, " << cc.engine.cache.max_entries
                  << " cache entries per shard, " << clients
                  << " client workers\n";

        net::Client::RetryPolicy policy;
        policy.seed = ctx.seed;
        policy.max_attempts = 64;
        const int io_timeout_ms = 60000;  // sanitizer builds are slow

        // Router self-test on the widest topology before any traffic.
        {
          shard::Topology topo;
          topo.ring_seed = cc.ring_seed;
          topo.vnodes = cc.vnodes;
          for (std::size_t s = 0; s < 4; ++s)
            topo.shards.push_back(shard::Endpoint{"127.0.0.1", 1});
          const auto st = shard::ShardRouter(topo).self_test();
          std::cout << st.detail << "\n";
          PSL_CHECK_MSG(st.ok, "router self-test failed: " << st.detail);
        }

        struct Named {
          std::string name;
          PassConfig pass;
        };
        std::vector<Named> passes = {
            {"1 shard", {1, 1, SIZE_MAX, SIZE_MAX}},
            {"2 shards", {2, 1, SIZE_MAX, SIZE_MAX}},
            {"4 shards", {4, 1, SIZE_MAX, SIZE_MAX}},
            {"2 shards rf=2", {2, 2, SIZE_MAX, SIZE_MAX}},
            {"2 shards rf=2 +kill", {2, 2, 1, tp.requests / 2}},
        };

        Table table("Sharded serving — capacity scaling, fan-out, failover");
        table.header({"pass", "wall s", "req/s", "p50 ms", "p99 ms", "errors",
                      "fanout", "dups", "failovers", "routed/shard"});
        std::vector<ShardPass> results;
        results.reserve(passes.size());
        for (const Named& named : passes) {
          ShardPass pass = run_shard_pass(trace, cc, named.pass, clients,
                                          policy, io_timeout_ms);
          table.row({named.name, fmt_double(pass.loop.wall_s, 2),
                     fmt_double(pass.loop.throughput_rps, 0),
                     fmt_double(pass.loop.p50_ms, 3),
                     fmt_double(pass.loop.p99_ms, 3),
                     fmt_size(pass.loop.errors),
                     fmt_size(pass.agg.fanout_sends),
                     fmt_size(pass.agg.duplicates_suppressed),
                     fmt_size(pass.agg.failovers),
                     counts_json(pass.routed)});
          results.push_back(std::move(pass));
        }
        std::cout << table.render();
        ctx.report.add_table(table);

        // Byte-identical replay across every topology and fault pattern.
        for (std::size_t p = 1; p < results.size(); ++p) {
          const auto verdict =
              service::verify_replay(results[0].entries, results[p].entries);
          PSL_CHECK_MSG(verdict.identical,
                        "pass \"" << passes[p].name
                            << "\" diverged from the 1-shard recording at id "
                            << verdict.first_mismatch_id << " ("
                            << verdict.mismatches << " mismatches)");
        }
        std::cout << "replay: all " << results.size()
                  << " passes byte-identical\n";

        const double rps1 = results[0].loop.throughput_rps;
        const double rps2 = results[1].loop.throughput_rps;
        const double rps4 = results[2].loop.throughput_rps;
        const double scaling2 = rps2 / std::max(rps1, 1e-9);
        std::cout << "scaling: 1 shard " << fmt_double(rps1, 0)
                  << " rps -> 2 shards " << fmt_double(rps2, 0)
                  << " rps (x" << fmt_double(scaling2, 2) << ") -> 4 shards "
                  << fmt_double(rps4, 0) << " rps\n";

        const ShardPass& kill = results[4];
        PSL_CHECK_MSG(kill.agg.failovers > 0,
                      "kill pass recorded no failovers — the fault never "
                      "reached a client");

        ctx.report.metric("throughput_rps_1shard", rps1)
            .metric("throughput_rps_2shard", rps2)
            .metric("throughput_rps_4shard", rps4)
            .metric("shard_scaling_1_to_2", scaling2)
            .metric("shard_scaling_1_to_4", rps4 / std::max(rps1, 1e-9))
            .metric("throughput_rps_rf2", results[3].loop.throughput_rps)
            .metric("throughput_rps_rf2_kill", kill.loop.throughput_rps)
            .metric("rf2_duplicates_suppressed",
                    static_cast<double>(results[3].agg.duplicates_suppressed))
            .metric("kill_failovers", static_cast<double>(kill.agg.failovers))
            .metric("kill_errors", static_cast<double>(kill.loop.errors))
            .metric("latency_p50_ms_2shard", results[1].loop.p50_ms)
            .metric("latency_p99_ms_2shard", results[1].loop.p99_ms)
            .metric("routed_per_shard_2shard",
                    counts_json(results[1].routed))
            .metric("routed_per_shard_4shard",
                    counts_json(results[2].routed))
            .metric("per_connection_2shard",
                    counts_json(results[1].loop.per_client))
            .metric("engine_stats_2shard",
                    "[" + results[1].engine_stats[0] + "," +
                        results[1].engine_stats[1] + "]");

        // Per-shard live telemetry captured at the halfway request of
        // each pass: obs snapshot (service.stage.* breakdowns with tail
        // exemplars), engine stats and per-loop gauges, as scraped from
        // the running shard — not a post-mortem snapshot.
        for (std::size_t p = 0; p < results.size(); ++p) {
          std::string arr = "[";
          for (std::size_t s = 0; s < results[p].mid_stats.size(); ++s) {
            if (s != 0) arr += ",";
            arr += results[p].mid_stats[s];
          }
          arr += "]";
          std::string key = "obs_midrun_pass" + std::to_string(p);
          ctx.report.metric_json(key, arr);
        }
        // The 2-shard pass must have scraped both shards live.
        for (const std::string& s : results[1].mid_stats) {
          PSL_CHECK_MSG(s != "null",
                        "2-shard pass failed to scrape a live shard mid-run");
        }
        return 0;
      });
}
