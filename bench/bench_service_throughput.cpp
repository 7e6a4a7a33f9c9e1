// Closed-loop load generator for the serving engine (docs/service.md).
//
// Replays a seeded trace (service/workload.hpp) against a ServiceEngine
// from --clients closed-loop client threads: each client submits one
// request, waits for its response, then takes the next unclaimed trace
// index.  Two passes run over the same trace — solver cache enabled and
// disabled — so one report shows both the hit rate and what the hits buy
// in latency.  An admission probe (filling an engine that is never
// started, so nothing drains) pins the deterministic reject-with-reason behavior of the
// bounded queue into the report.
//
// Determinism check: response payloads are byte-identical across runs,
// thread counts and cache states.  --replay-out=<path> records the
// cache-on pass; --replay-in=<path> verifies the current run against a
// recording (exit 1 on any byte difference).  The cache-off pass is
// always verified in-process against the cache-on pass.
//
// Knobs: --requests --pool --n --m --k --seed-variants
// --weight-mutate (trace shape),
// --clients --queue-capacity --cache-entries (engine),
// --threads (solver pool), --seed, --replay-out, --replay-in,
// --nocache=false (skip the comparison pass).
#include <iostream>
#include <thread>
#include <vector>

#include "bench_main.hpp"
#include "load_gen.hpp"
#include "obs/metrics.hpp"
#include "service/engine.hpp"
#include "service/workload.hpp"
#include "util/table.hpp"

using namespace pslocal;

namespace {

struct PassResult {
  benchload::ClosedLoopResult loop;
  // Log2-resolution quantiles from the obs service.latency_ns histogram.
  std::uint64_t obs_p50_ns = 0, obs_p99_ns = 0;
  service::ServiceEngine::Stats stats;
  std::vector<service::ReplayEntry> entries;
};

PassResult run_pass(const service::Trace& trace, service::EngineConfig cfg,
                    std::size_t clients) {
  PassResult result;
  const obs::Snapshot before = obs::snapshot();
  service::ServiceEngine engine(cfg);
  engine.start();

  const std::size_t total = trace.requests.size();
  result.entries.resize(total);
  result.loop = benchload::run_closed_loop(
      total, clients, [](std::size_t) { return 0; },
      [&](int&, std::size_t i) -> benchload::OneResult {
        benchload::OneResult one;
        for (;;) {
          auto sub = engine.submit(trace.requests[i]);
          if (sub.admission == service::Admission::kQueueFull) {
            ++one.retries;
            std::this_thread::yield();
            continue;
          }
          PSL_CHECK_MSG(sub.admission == service::Admission::kAccepted,
                        "service rejected request " << i << " with "
                            << admission_name(sub.admission));
          const service::Response resp = sub.response.get();
          one.ok = resp.status == service::Response::Status::kOk;
          one.latency_ns = resp.total_ns;
          result.entries[i] =
              service::ReplayEntry{resp.id, resp.key, resp.result};
          return one;
        }
      });

  result.stats = engine.stats();
  engine.stop();

  const obs::Snapshot after = obs::snapshot();
  const auto pass_hist =
      benchload::diff_histogram(before.histogram("service.latency_ns"),
                                after.histogram("service.latency_ns"));
  result.obs_p50_ns = pass_hist.value_at_quantile(0.50);
  result.obs_p99_ns = pass_hist.value_at_quantile(0.99);
  return result;
}

/// Deterministic admission-control probe: an engine whose serving lanes
/// are never started admits exactly `capacity` requests and rejects the rest
/// with kQueueFull; stop() answers the admitted ones with "shutdown".
void admission_probe(const service::Trace& trace, BenchReport& report) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kOverflow = 4;
  service::EngineConfig cfg;
  cfg.queue_capacity = kCapacity;
  service::ServiceEngine engine(cfg);

  std::size_t accepted = 0, rejected_full = 0;
  std::vector<std::future<service::Response>> futures;
  for (std::size_t i = 0; i < kCapacity + kOverflow; ++i) {
    auto sub = engine.submit(trace.requests[i % trace.requests.size()]);
    if (sub.admission == service::Admission::kAccepted) {
      ++accepted;
      futures.push_back(std::move(sub.response));
    } else if (sub.admission == service::Admission::kQueueFull) {
      ++rejected_full;
    }
  }
  engine.stop();
  std::size_t shutdown_rejected = 0;
  for (auto& f : futures)
    if (f.get().status == service::Response::Status::kRejected)
      ++shutdown_rejected;

  PSL_CHECK_MSG(accepted == kCapacity && rejected_full == kOverflow &&
                    shutdown_rejected == kCapacity,
                "admission probe: expected " << kCapacity << "/" << kOverflow
                    << ", got " << accepted << "/" << rejected_full << "/"
                    << shutdown_rejected);
  report.metric("probe_capacity", static_cast<double>(kCapacity))
      .metric("probe_rejected_full", static_cast<double>(rejected_full))
      .metric("probe_rejected_shutdown",
              static_cast<double>(shutdown_rejected));
}

}  // namespace

int main(int argc, char** argv) {
  return benchmain::run(
      argc, argv, "service", 1, [](benchmain::Context& ctx) {
        service::TraceParams tp;
        tp.seed = ctx.seed;
        tp.requests =
            static_cast<std::size_t>(ctx.opts.get_int("requests", 10000));
        tp.instance_pool =
            static_cast<std::size_t>(ctx.opts.get_int("pool", 24));
        tp.n = static_cast<std::size_t>(ctx.opts.get_int("n", 48));
        tp.m = static_cast<std::size_t>(ctx.opts.get_int("m", 40));
        tp.k = static_cast<std::size_t>(ctx.opts.get_int("k", 3));
        tp.seed_variants =
            static_cast<std::size_t>(ctx.opts.get_int("seed-variants", 2));
        tp.weight_mutate =
            static_cast<unsigned>(ctx.opts.get_int("weight-mutate", 0));
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

        admission_probe(trace, ctx.report);

        std::cout << "trace: " << tp.requests << " requests over "
                  << tp.instance_pool << " instances (" << trace.unique_keys
                  << " distinct cache keys), " << clients << " clients\n";

        const PassResult cached = run_pass(trace, cfg, clients);
        const double hit_rate =
            cached.stats.served > 0
                ? static_cast<double>(cached.stats.served_cached) /
                      static_cast<double>(cached.stats.served)
                : 0.0;

        PassResult uncached;
        const bool run_nocache = ctx.opts.get_bool("nocache", true);
        if (run_nocache) {
          service::EngineConfig nocache_cfg = cfg;
          nocache_cfg.cache.enabled = false;
          nocache_cfg.graph_cache_entries = 0;
          uncached = run_pass(trace, nocache_cfg, clients);
          // Same trace, caches off — the bytes must not change.
          const auto verdict =
              service::verify_replay(cached.entries, uncached.entries);
          PSL_CHECK_MSG(verdict.identical,
                        "cache-off pass diverged from cache-on pass at id "
                            << verdict.first_mismatch_id << " ("
                            << verdict.mismatches << " mismatches)");
        }

        Table table("Serving throughput — cache on vs off (same trace)");
        table.header({"pass", "wall s", "req/s", "p50 ms", "p99 ms",
                      "mean ms", "hit rate", "errors", "retries"});
        const auto row = [&](const char* name, const PassResult& r,
                             double hits) {
          table.row({name, fmt_double(r.loop.wall_s, 2),
                     fmt_double(r.loop.throughput_rps, 0),
                     fmt_double(r.loop.p50_ms, 3), fmt_double(r.loop.p99_ms, 3),
                     fmt_double(r.loop.mean_ms, 3), fmt_double(hits, 3),
                     fmt_size(r.loop.errors), fmt_size(r.loop.retries)});
        };
        row("cache", cached, hit_rate);
        if (run_nocache) row("no-cache", uncached, 0.0);
        std::cout << table.render();
        ctx.report.add_table(table);

        ctx.report.metric("throughput_rps", cached.loop.throughput_rps)
            .metric("latency_p50_ms", cached.loop.p50_ms)
            .metric("latency_p99_ms", cached.loop.p99_ms)
            .metric("latency_mean_ms", cached.loop.mean_ms)
            .metric("obs_latency_p50_ns",
                    static_cast<double>(cached.obs_p50_ns))
            .metric("obs_latency_p99_ns",
                    static_cast<double>(cached.obs_p99_ns))
            .metric("cache_hit_rate", hit_rate)
            .metric("cache_hits", static_cast<double>(cached.stats.cache.hits))
            .metric("cache_misses",
                    static_cast<double>(cached.stats.cache.misses))
            .metric("cache_evictions",
                    static_cast<double>(cached.stats.cache.evictions))
            .metric("served_cached",
                    static_cast<double>(cached.stats.served_cached))
            .metric("batches", static_cast<double>(cached.stats.batches))
            .metric("dispatch_cycles",
                    static_cast<double>(cached.stats.dispatch_cycles))
            .metric("errors", static_cast<double>(cached.loop.errors))
            .metric("queue_retries", static_cast<double>(cached.loop.retries));
        if (run_nocache) {
          ctx.report
              .metric("nocache_throughput_rps", uncached.loop.throughput_rps)
              .metric("nocache_latency_mean_ms", uncached.loop.mean_ms)
              .metric("nocache_latency_p50_ms", uncached.loop.p50_ms)
              .metric("nocache_latency_p99_ms", uncached.loop.p99_ms);
          std::cout << "cache speedup (mean latency): "
                    << fmt_double(uncached.loop.mean_ms /
                                      std::max(cached.loop.mean_ms, 1e-9),
                                  2)
                    << "x\n";
        }

        const std::string replay_out =
            ctx.opts.get_string("replay-out", "");
        if (!replay_out.empty()) {
          service::write_replay_file(replay_out, cached.entries, tp.seed);
          std::cout << "recorded " << cached.entries.size()
                    << " responses to " << replay_out << "\n";
        }
        const std::string replay_in = ctx.opts.get_string("replay-in", "");
        if (!replay_in.empty()) {
          const auto recorded = service::read_replay_file(replay_in);
          const auto verdict =
              service::verify_replay(recorded, cached.entries);
          ctx.report.metric("replay_compared",
                            static_cast<double>(verdict.compared))
              .metric("replay_mismatches",
                      static_cast<double>(verdict.mismatches));
          if (!verdict.identical) {
            std::cout << "REPLAY MISMATCH: " << verdict.mismatches << "/"
                      << verdict.compared << " responses differ (first id "
                      << verdict.first_mismatch_id << ")\n";
            return 1;
          }
          std::cout << "replay verified: " << verdict.compared
                    << " responses byte-identical to " << replay_in << "\n";
        }
        return 0;
      });
}
