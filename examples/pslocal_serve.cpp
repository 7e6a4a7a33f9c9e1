// pslocal_serve — interactive driver for the serving engine.
//
// Spins up a ServiceEngine, generates (or replays) a seeded trace, and
// prints per-request responses plus the engine's end-of-run statistics.
// This is the smallest end-to-end tour of src/service/: admission,
// serving lanes, the memoizing solver cache, and deterministic replay,
// all from one binary.  docs/service.md walks through the output.
//
//   pslocal_serve --requests=40 --threads=4            # quick demo
//   pslocal_serve --kind=greedy_maxis --requests=12    # one kind only
//   pslocal_serve --replay-out=trace.json              # record
//   pslocal_serve --replay-in=trace.json --threads=8   # verify bytes
//
// Knobs: --seed --requests --pool --n --m --k --threads
// --queue-capacity --cache-entries --no-cache --kind=<name> --verbose
// --replay-out --replay-in.
#include <iostream>
#include <vector>

#include "service/engine.hpp"
#include "service/workload.hpp"
#include "util/bench_report.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace pslocal;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  apply_thread_option(opts);

  service::TraceParams tp;
  tp.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  tp.requests = static_cast<std::size_t>(opts.get_int("requests", 40));
  tp.instance_pool = static_cast<std::size_t>(opts.get_int("pool", 6));
  tp.n = static_cast<std::size_t>(opts.get_int("n", 48));
  tp.m = static_cast<std::size_t>(opts.get_int("m", 40));
  tp.k = static_cast<std::size_t>(opts.get_int("k", 3));
  const std::string only_kind = opts.get_string("kind", "");
  if (!only_kind.empty()) {
    // Zero out every weight except the requested kind.
    tp.weight_build = tp.weight_greedy = tp.weight_luby = 0;
    tp.weight_cf = tp.weight_reduction = 0;
    tp.weight_exact = tp.weight_mutate = 0;
    switch (service::kind_from_name(only_kind)) {
      case service::RequestKind::kBuildConflictGraph: tp.weight_build = 1; break;
      case service::RequestKind::kGreedyMaxis: tp.weight_greedy = 1; break;
      case service::RequestKind::kLubyMis: tp.weight_luby = 1; break;
      case service::RequestKind::kCfColor: tp.weight_cf = 1; break;
      case service::RequestKind::kRunReduction: tp.weight_reduction = 1; break;
      case service::RequestKind::kExactCertificate: tp.weight_exact = 1; break;
      case service::RequestKind::kMutateHypergraph: tp.weight_mutate = 1; break;
    }
  }
  const service::Trace trace = service::generate_trace(tp);

  service::EngineConfig cfg;
  cfg.queue_capacity =
      static_cast<std::size_t>(opts.get_int("queue-capacity", 256));
  cfg.cache.max_entries =
      static_cast<std::size_t>(opts.get_int("cache-entries", 512));
  cfg.cache.enabled = !opts.get_bool("no-cache", false);
  service::ServiceEngine engine(cfg);
  engine.start();

  std::cout << "pslocal_serve: " << trace.requests.size()
            << " requests over " << trace.instances.size() << " instances ("
            << trace.unique_keys << " distinct keys), cache "
            << (cfg.cache.enabled ? "on" : "off") << "\n";

  const bool verbose = opts.get_bool("verbose", trace.requests.size() <= 64);
  std::vector<service::ReplayEntry> entries;
  entries.reserve(trace.requests.size());
  for (const auto& req : trace.requests) {
    auto sub = engine.submit(req);
    PSL_CHECK_MSG(sub.admission == service::Admission::kAccepted,
                  "submission rejected: " << admission_name(sub.admission));
    const service::Response resp = sub.response.get();
    entries.push_back({resp.id, resp.key, resp.result});
    if (verbose) {
      std::cout << "  #" << resp.id << " " << kind_name(req.kind)
                << (resp.cache_hit ? " [hit]  " : " [miss] ")
                << (resp.total_ns / 1000) << "us  " << resp.result.substr(0, 96)
                << (resp.result.size() > 96 ? "...\n" : "\n");
    }
  }

  const auto stats = engine.stats();
  engine.stop();

  Table table("engine statistics");
  table.header({"served", "cached", "errors", "batches", "cycles",
                "cache hits", "cache misses", "evictions", "Gk builds",
                "Gk hits"});
  table.row({fmt_size(stats.served), fmt_size(stats.served_cached),
             fmt_size(stats.errors), fmt_size(stats.batches),
             fmt_size(stats.dispatch_cycles), fmt_size(stats.cache.hits),
             fmt_size(stats.cache.misses), fmt_size(stats.cache.evictions),
             fmt_size(stats.graph_cache.builds),
             fmt_size(stats.graph_cache.hits)});
  std::cout << table.render();

  const std::string replay_out = opts.get_string("replay-out", "");
  if (!replay_out.empty()) {
    service::write_replay_file(replay_out, entries, tp.seed);
    std::cout << "recorded " << entries.size() << " responses to "
              << replay_out << "\n";
  }
  const std::string replay_in = opts.get_string("replay-in", "");
  if (!replay_in.empty()) {
    const auto recorded = service::read_replay_file(replay_in);
    const auto verdict = service::verify_replay(recorded, entries);
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
}
