#include "common.hpp"

#include <algorithm>
#include <functional>

#include "runtime/batch.hpp"

namespace perfbench {

bool PayloadBook::observe(const Request& req, std::uint64_t key, bool hit,
                          const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = entries_.try_emplace(key);
  Entry& e = it->second;
  if (fresh) {
    e.request = req;
    e.payload = payload;
  }
  (hit ? e.hit : e.miss) = true;
  return fresh || e.payload == payload;
}

std::size_t PayloadBook::verify(pslocal::runtime::Scheduler& sched,
                                std::uint64_t seed, std::size_t sample,
                                std::size_t* checked) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Entry*> todo;
  std::vector<const Entry*> rest;
  for (const auto& [key, e] : entries_)
    (e.hit && e.miss ? todo : rest).push_back(&e);
  Rng rng = Rng(seed).fork(kSample);
  rng.shuffle(rest);
  rest.resize(std::min(rest.size(), sample));
  todo.insert(todo.end(), rest.begin(), rest.end());
  // One task per key; the solvers' own parallel regions run inline.
  std::vector<char> bad(todo.size(), 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < todo.size(); ++i)
    tasks.push_back([&, i] {
      try {
        bad[i] = pslocal::service::execute_request(todo[i]->request, sched) !=
                 todo[i]->payload;
      } catch (const std::exception&) {
        bad[i] = 1;
      }
    });
  pslocal::runtime::run_task_batch(sched, tasks);
  *checked = todo.size();
  return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
}

Outcome outcome_of(const pslocal::net::Client::Result& r) {
  namespace net = pslocal::net;
  switch (r.outcome) {
    case net::Client::Outcome::kOk: return Outcome::kOk;
    case net::Client::Outcome::kRejected: return Outcome::kRejected;
    case net::Client::Outcome::kError: return Outcome::kError;
    case net::Client::Outcome::kNack:
      switch (r.nack_code) {
        case net::wire::NackCode::kShedRetryAfter: return Outcome::kShed;
        case net::wire::NackCode::kQueueFull: return Outcome::kQueueFull;
        case net::wire::NackCode::kShutdown: return Outcome::kRejected;
      }
      return Outcome::kRejected;
    case net::Client::Outcome::kTimeout: return Outcome::kTimeout;
    case net::Client::Outcome::kTransport: return Outcome::kTransport;
  }
  return Outcome::kTransport;
}

void add_stats(pslocal::service::ServiceEngine::Stats& acc,
               const pslocal::service::ServiceEngine::Stats& s) {
  acc.served += s.served;
  acc.batches += s.batches;
  acc.dispatch_cycles += s.dispatch_cycles;
  acc.cache.hits += s.cache.hits;
  acc.cache.misses += s.cache.misses;
  acc.cache.evictions += s.cache.evictions;
  acc.graph_cache.hits += s.graph_cache.hits;
  acc.graph_cache.builds += s.graph_cache.builds;
  acc.graph_cache.evictions += s.graph_cache.evictions;
}

LiveStats live_delta(const pslocal::service::ServiceEngine::Stats& before,
                     const pslocal::service::ServiceEngine::Stats& after) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  LiveStats live;
  const double cycles = d(before.dispatch_cycles, after.dispatch_cycles);
  live.requests_per_cycle = ratio(d(before.served, after.served), cycles);
  live.keys_per_cycle = ratio(d(before.batches, after.batches), cycles);
  const double hits = d(before.cache.hits, after.cache.hits);
  live.result_hit_ratio =
      ratio(hits, hits + d(before.cache.misses, after.cache.misses));
  const double ghits = d(before.graph_cache.hits, after.graph_cache.hits);
  live.graph_hit_ratio = ratio(
      ghits, ghits + d(before.graph_cache.builds, after.graph_cache.builds));
  live.evictions = d(before.cache.evictions, after.cache.evictions) +
                   d(before.graph_cache.evictions, after.graph_cache.evictions);
  return live;
}

std::vector<Request> derived_writes(const std::vector<Request>& reads,
                                    std::size_t count) {
  std::vector<Request> out;
  for (std::size_t c = 0; c < count && c < reads.size(); ++c)
    for (std::size_t len = 1; len <= kChainSteps; ++len)
      out.push_back(mutate_request(reads[c].instance, c, len));
  return out;
}

std::vector<Request> sample_requests(const std::vector<Request>& items,
                                     std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> idx(items.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng = Rng(seed).fork(kSample).fork(1);
  rng.shuffle(idx);
  idx.resize(std::min(idx.size(), count));
  std::sort(idx.begin(), idx.end());
  std::vector<Request> out;
  for (const std::size_t i : idx) out.push_back(items[i]);
  return out;
}

}  // namespace perfbench
