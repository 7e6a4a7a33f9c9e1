// cold_solve: a closed loop of 4 client threads calling
// ServiceEngine::submit in-process (qos off, default config).  Every
// request carries its own planted instance, so the result and G_k
// caches never hit and the compute layers (core, mis, local, coloring,
// runtime) do nearly all the work.
#include <future>
#include <set>
#include <thread>

#include "common.hpp"
#include "runtime/global.hpp"

namespace perfbench {

namespace {

using pslocal::now_ns;
namespace service = pslocal::service;

constexpr std::size_t kClients = 4;
/// About one request in 200 keeps its payload for the byte-compare.
constexpr std::uint64_t kSampleEvery = 200;

Request cold_request(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t i) {
  Rng rng = Rng(seed).fork(kColdKinds).fork(stream).fork(i);
  Request req =
      read_request(planted_instance(seed, stream, i), draw_read_kind(rng), rng);
  req.id = i;
  return req;
}

struct ColdSetup {
  service::ServiceEngine engine;

  explicit ColdSetup(std::uint64_t seed) {
    engine.start();
    // A burst of requests on instances the window never uses, so code
    // and allocator pages are warm before timing starts.  Submitted
    // together, they run as one compute-bound batch rather than a chain
    // of wake-ups, which keeps setup_s steady on a shared host.
    std::vector<std::future<service::Response>> warm;
    for (std::uint64_t i = 0; i < 40; ++i) {
      auto sub = engine.submit(cold_request(seed, kWarmInstances, i));
      if (sub.admission == service::Admission::kAccepted)
        warm.push_back(std::move(sub.response));
    }
    for (auto& f : warm) (void)f.get();
  }
};

Outcome outcome_of(const service::Response& r) {
  switch (r.status) {
    case service::Response::Status::kOk: return Outcome::kOk;
    case service::Response::Status::kError: return Outcome::kError;
    case service::Response::Status::kRejected: return Outcome::kRejected;
  }
  return Outcome::kError;
}

}  // namespace

WindowResult run_cold_solve(const Args& args, bool traced) {
  WindowResult out;
  auto setup = timed_setups<ColdSetup>(
      [&] { return std::make_unique<ColdSetup>(args.seed); }, out.setup_s);
  service::ServiceEngine& engine = setup->engine;

  PayloadBook book;
  struct ClientOut {
    std::vector<WindowResult::Sample> ok;
    std::vector<double> late_ms;
    std::vector<Span> spans;
    Tally tally;
    std::uint64_t hits = 0, wrong_id = 0, mismatches = 0;
  };
  std::vector<ClientOut> clients(kClients);
  std::atomic<std::uint64_t> next{0};
  const auto before = engine.stats();
  reset_peak_rss();
  const std::uint64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::uint64_t>(args.seconds * 1e9);

  const auto client_main = [&](std::size_t c) {
    ClientOut& co = clients[c];
    co.ok.reserve(sample_capacity(args.seconds));
    std::uint64_t prev_done = 0;
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      const Request req = cold_request(args.seed, kColdInstances, i);
      const std::uint64_t t0 = now_ns();
      if (t0 >= deadline) return;
      if (traced && prev_done != 0)
        co.late_ms.push_back(ms_between(prev_done, t0));
      auto sub = engine.submit(req);
      Outcome o = Outcome::kQueueFull;
      service::Response resp;
      if (sub.admission == service::Admission::kAccepted) {
        if (sub.response.wait_for(std::chrono::seconds(60)) ==
            std::future_status::ready) {
          resp = sub.response.get();
          o = outcome_of(resp);
        } else {
          o = Outcome::kLost;
        }
      } else if (sub.admission != service::Admission::kQueueFull) {
        o = Outcome::kRejected;
      }
      const std::uint64_t t1 = now_ns();
      prev_done = t1;
      co.tally.add(o, false);
      if (o != Outcome::kOk) continue;
      if (resp.id != i) ++co.wrong_id;
      if (resp.cache_hit) ++co.hits;
      co.ok.push_back({us_between(start, t0),
                       static_cast<float>(ms_between(t0, t1))});
      const bool sampled =
          pslocal::hash_combine(args.seed, i) % kSampleEvery == 0;
      if (sampled && !book.observe(req, resp.key, resp.cache_hit, resp.result))
        ++co.mismatches;
      if (traced)
        co.spans.push_back({"request", resp.cache_hit ? "hit" : "miss",
                            next_span_id(), 0, t0, t1,
                            static_cast<std::uint32_t>(c + 1), i});
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back(client_main, c);
  for (auto& t : threads) t.join();

  out.peak_rss_mb = peak_rss_mb();
  out.window_ns = deadline - start;
  std::uint64_t hits = 0, wrong_id = 0, mismatches = 0;
  for (ClientOut& co : clients) {
    append(out.ok, co.ok);
    append(out.harness_late_ms, co.late_ms);
    append(out.spans, co.spans);
    out.tally.merge(co.tally);
    hits += co.hits;
    wrong_id += co.wrong_id;
    mismatches += co.mismatches;
  }
  const auto after = engine.stats();
  out.live = live_delta(before, after);

  if (wrong_id > 0)
    out.problems.push_back(std::to_string(wrong_id) +
                           " responses answered another request id");
  if (after.served - before.served !=
      out.tally.ok + (after.errors - before.errors))
    out.problems.push_back("engine served count differs from responses");

  std::size_t checked = 0;
  mismatches += book.verify(pslocal::runtime::global_scheduler(), args.seed,
                            64, &checked);
  if (mismatches > 0)
    out.problems.push_back(std::to_string(mismatches) +
                           " payload byte mismatches");
  out.report.push_back({"cold_solve.verified_keys",
                        static_cast<double>(checked), "count"});
  out.report.push_back({"cold_solve.cache_hits", static_cast<double>(hits),
                        "count"});

  // The replay takes a seeded sample of the requests this window sent.
  std::set<std::uint64_t> picked;
  const std::uint64_t count = next.load();
  Rng pick = Rng(args.seed).fork(kSample).fork(2);
  while (picked.size() < std::min<std::uint64_t>(160, count))
    picked.insert(pick.next_below(count));
  for (const std::uint64_t i : picked)
    out.replay_reads.push_back(cold_request(args.seed, kColdInstances, i));
  out.replay_writes = derived_writes(out.replay_reads, 8);
  return out;
}

}  // namespace perfbench
