// hot_hits: a closed loop of 2 client threads, each owning one
// shard::ShardClient over a 2-shard rf=1 LocalCluster on loopback (4
// connections in all).  Every distinct key is computed during set-up,
// so each timed request is a result-cache hit: the compute layers idle
// while shard, net and engine admission/dispatch/cache probe do the
// work.
#include <thread>

#include "common.hpp"
#include "runtime/global.hpp"
#include "shard/cluster.hpp"
#include "shard/shard_client.hpp"

namespace perfbench {

namespace {

using pslocal::now_ns;
namespace service = pslocal::service;
namespace shard = pslocal::shard;
namespace net = pslocal::net;

constexpr std::size_t kClients = 2;
constexpr std::size_t kInstances = 64;  // x 5 read kinds = 320 keys

struct HotSetup {
  shard::LocalCluster cluster;
  std::vector<std::unique_ptr<shard::ShardClient>> clients;
  std::vector<Request> keys;
  std::vector<std::string> payloads;  // as computed (missed) in set-up
  std::vector<std::uint64_t> cache_keys;
  std::size_t warm_problems = 0;

  explicit HotSetup(std::uint64_t seed)
      : cluster(config()), keys(read_keys(seed, kHotInstances, kInstances)) {
    cluster.start();
    for (std::size_t c = 0; c < kClients; ++c) {
      shard::ShardClientConfig cc;
      cc.topology = cluster.topology();
      clients.push_back(std::make_unique<shard::ShardClient>(cc));
      clients.back()->connect();
    }
    // Compute every key once, half per client, in parallel.
    payloads.resize(keys.size());
    cache_keys.resize(keys.size());
    std::vector<std::size_t> problems(kClients, 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        for (std::size_t j = c; j < keys.size(); j += kClients) {
          const auto r = clients[c]->call(keys[j]);
          if (r.outcome != net::Client::Outcome::kOk || r.response.cache_hit)
            ++problems[c];
          payloads[j] = r.response.result;
          cache_keys[j] = r.response.key;
        }
      });
    for (auto& t : threads) t.join();
    for (const std::size_t p : problems) warm_problems += p;
  }

  static shard::LocalClusterConfig config() {
    shard::LocalClusterConfig cfg;
    cfg.shards = 2;
    cfg.replication = 1;
    return cfg;
  }

  service::ServiceEngine::Stats stats() {
    service::ServiceEngine::Stats s;
    for (std::size_t i = 0; i < cluster.shards(); ++i)
      add_stats(s, cluster.engine(i).stats());
    return s;
  }
};

}  // namespace

WindowResult run_hot_hits(const Args& args, bool traced) {
  WindowResult out;
  auto setup = timed_setups<HotSetup>(
      [&] { return std::make_unique<HotSetup>(args.seed); }, out.setup_s);
  out.engine_config = HotSetup::config().engine;
  if (setup->warm_problems > 0)
    out.problems.push_back(std::to_string(setup->warm_problems) +
                           " set-up computes failed or hit");

  struct ClientOut {
    std::vector<WindowResult::Sample> ok;
    std::vector<double> late_ms;
    std::vector<Span> spans;
    Tally tally;
    std::uint64_t misses = 0, mismatches = 0;
  };
  std::vector<ClientOut> clients(kClients);
  const auto before = setup->stats();
  reset_peak_rss();
  const std::uint64_t start = now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(args.seconds * 1e9);
  const auto client_main = [&](std::size_t c) {
    ClientOut& co = clients[c];
    shard::ShardClient& client = *setup->clients[c];
    co.ok.reserve(sample_capacity(args.seconds));
    Rng picks = Rng(args.seed).fork(kHotPicks).fork(c);
    std::uint64_t prev_done = 0;
    for (std::uint64_t n = 0;; ++n) {
      const std::size_t j = picks.next_below(setup->keys.size());
      const std::uint64_t t0 = now_ns();
      if (t0 >= deadline) return;
      if (traced && prev_done != 0)
        co.late_ms.push_back(ms_between(prev_done, t0));
      const net::Client::Result r = client.call(setup->keys[j]);
      const std::uint64_t t1 = now_ns();
      prev_done = t1;
      const Outcome o = outcome_of(r);
      co.tally.add(o, false);
      if (o != Outcome::kOk) continue;
      co.ok.push_back({us_between(start, t0),
                       static_cast<float>(ms_between(t0, t1))});
      if (!r.response.cache_hit) ++co.misses;
      if (r.response.result != setup->payloads[j] ||
          r.response.key != setup->cache_keys[j])
        ++co.mismatches;
      if (traced)
        co.spans.push_back({"request", r.response.cache_hit ? "hit" : "miss",
                            next_span_id(), 0, t0, t1,
                            static_cast<std::uint32_t>(c + 1), (c << 40) | n});
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back(client_main, c);
  for (auto& t : threads) t.join();

  out.peak_rss_mb = peak_rss_mb();
  out.window_ns = deadline - start;
  std::uint64_t misses = 0, mismatches = 0, sends = 0, calls = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    ClientOut& co = clients[c];
    append(out.ok, co.ok);
    append(out.harness_late_ms, co.late_ms);
    append(out.spans, co.spans);
    out.tally.merge(co.tally);
    misses += co.misses;
    mismatches += co.mismatches;
    setup->clients[c]->drain();
    const auto st = setup->clients[c]->stats();
    sends += st.sends;
    calls += st.calls;
    if (st.pending_duplicates != 0 || st.duplicates_suppressed != 0)
      out.problems.push_back("duplicated responses at a shard client");
  }
  out.live = live_delta(before, setup->stats());

  // Every frame a server received got exactly one answer frame, and no
  // call needed a second send (rf=1, nothing NACKed).
  std::uint64_t rx = 0, tx = 0;
  for (std::size_t i = 0; i < setup->cluster.shards(); ++i) {
    const auto ss = setup->cluster.server(i).stats();
    rx += ss.frames_rx;
    tx += ss.frames_tx;
  }
  if (rx != tx || rx != sends || sends != calls)
    out.problems.push_back("lost or duplicated frames: " + std::to_string(rx) +
                           " received, " + std::to_string(tx) + " answered, " +
                           std::to_string(sends) + " sent for " +
                           std::to_string(calls) + " calls");

  // Each key was served as a miss in set-up and as a hit since: all of
  // them are recomputed and byte-compared.
  PayloadBook book;
  for (std::size_t j = 0; j < setup->keys.size(); ++j)
    for (const bool hit : {false, true})
      book.observe(setup->keys[j], setup->cache_keys[j], hit,
                   setup->payloads[j]);
  std::size_t checked = 0;
  mismatches += book.verify(pslocal::runtime::global_scheduler(), args.seed,
                            0, &checked);
  if (mismatches > 0)
    out.problems.push_back(std::to_string(mismatches) +
                           " payload byte mismatches");
  out.report.push_back({"hot_hits.verified_keys",
                        static_cast<double>(checked), "count"});
  out.report.push_back({"hot_hits.window_misses", static_cast<double>(misses),
                        "count"});

  out.replay_reads = sample_requests(setup->keys, 160, args.seed);
  out.replay_writes = derived_writes(out.replay_reads, 8);
  return out;
}

}  // namespace perfbench
