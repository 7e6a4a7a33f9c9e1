#include "service/cache.hpp"

#include "core/conflict_graph.hpp"
#include "obs/obs.hpp"

namespace pslocal::service {

namespace {
const obs::Counter g_cache_hits("service.cache.hits");
const obs::Counter g_cache_misses("service.cache.misses");
const obs::Counter g_cache_evictions("service.cache.evictions");
const obs::Gauge g_cache_bytes("service.cache.bytes");
const obs::Counter g_graph_hits("service.graph_cache.hits");
const obs::Counter g_graph_builds("service.graph_cache.builds");
}  // namespace

SolverCache::SolverCache() : SolverCache(Config{}) {}

SolverCache::SolverCache(Config config) : config_(config) {}

std::optional<std::string> SolverCache::lookup(std::uint64_t key) {
  if (!config_.enabled) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    g_cache_misses.add();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  g_cache_hits.add();
  return it->second->second;
}

std::optional<std::string> SolverCache::peek(std::uint64_t key) const {
  if (!config_.enabled) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second->second;
}

void SolverCache::count_hit(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  g_cache_hits.add();
}

void SolverCache::insert(std::uint64_t key, const std::string& payload) {
  if (!config_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;  // duplicate compute of the same key; payloads are identical
  }
  lru_.emplace_front(key, payload);
  index_.emplace(key, lru_.begin());
  stats_.bytes += payload.size();
  g_cache_bytes.add(static_cast<std::int64_t>(payload.size()));
  ++stats_.entries;
  evict_locked();
}

void SolverCache::evict_locked() {
  while (config_.max_entries != 0 && lru_.size() > config_.max_entries) {
    const auto& victim = lru_.back();
    stats_.bytes -= victim.second.size();
    g_cache_bytes.add(-static_cast<std::int64_t>(victim.second.size()));
    index_.erase(victim.first);
    lru_.pop_back();
    --stats_.entries;
    ++stats_.evictions;
    g_cache_evictions.add();
  }
}

SolverCache::Stats SolverCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ConflictGraphCache::ConflictGraphCache(std::size_t max_entries)
    : max_entries_(max_entries) {}

std::shared_ptr<const ConflictGraph> ConflictGraphCache::find(
    std::uint64_t key) {
  if (max_entries_ == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  g_graph_hits.add();
  return it->second->second;
}

std::shared_ptr<const ConflictGraph> ConflictGraphCache::store(
    std::uint64_t key, std::shared_ptr<const ConflictGraph> graph) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.builds;
    if (max_entries_ != 0) {
      const auto it = index_.find(key);
      if (it == index_.end()) {  // keep the first of duplicate builds
        lru_.emplace_front(key, graph);
        index_.emplace(key, lru_.begin());
        ++stats_.entries;
        while (lru_.size() > max_entries_) {
          index_.erase(lru_.back().first);
          lru_.pop_back();
          --stats_.entries;
          ++stats_.evictions;
        }
      }
    }
  }
  g_graph_builds.add();
  return graph;
}

ConflictGraphCache::Stats ConflictGraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace pslocal::service
