// Memoizing solver caches of the serving engine.
//
// Two layers, both LRU and both thread-safe behind a mutex (the serving
// hot path is the solvers, not the cache bookkeeping):
//
//  * SolverCache — the content-addressed *result* cache: cache_key(req)
//    -> canonical response payload bytes.  A hit returns the stored
//    string byte-for-byte; since payloads are deterministic (see
//    service/request.hpp), a hit is indistinguishable from a fresh
//    compute except in latency — which is exactly what lets a cached
//    serving run replay byte-identically against an uncached one.
//
//  * ConflictGraphCache — the *object* cache for built conflict graphs,
//    keyed by (instance hash, k).  greedy_maxis and luby_mis requests on
//    the same instance share one G_k build even though their result
//    cache lines differ; on a busy trace this removes the dominant cost
//    of every MIS-family miss.  Concurrent misses on one key may build
//    twice (builds are deterministic, so both results are identical and
//    either may be kept); the stats count builds so tests can bound the
//    duplication.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace pslocal {
class ConflictGraph;
}

namespace pslocal::service {

class SolverCache {
 public:
  struct Config {
    std::size_t max_entries = 512;  // LRU capacity (0 = unbounded)
    bool enabled = true;            // false: every lookup misses, no stores
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;  // payload bytes currently resident
  };

  SolverCache();  // default Config (512-entry LRU, enabled)
  explicit SolverCache(Config config);

  /// Hit: returns the payload and refreshes recency.  Miss (or disabled):
  /// nullopt.  Hit/miss totals are deterministic for a fixed sequence of
  /// lookup/insert calls.
  [[nodiscard]] std::optional<std::string> lookup(std::uint64_t key);

  /// The payload if resident (nullopt when disabled), touching neither
  /// recency nor the totals.  A caller that serves it calls count_hit()
  /// once the request is admitted, so a probe that ends in a refusal or
  /// in a queued miss (probed again by lookup()) counts nothing.
  [[nodiscard]] std::optional<std::string> peek(std::uint64_t key) const;

  /// What lookup() books for a hit: one hit, and `key`'s recency
  /// refreshed if it is still resident.
  void count_hit(std::uint64_t key);

  /// Store a payload (no-op when disabled; refreshes recency when the key
  /// is already resident — idempotent against duplicate computes).
  void insert(std::uint64_t key, const std::string& payload);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] bool enabled() const { return config_.enabled; }

 private:
  using LruList = std::list<std::pair<std::uint64_t, std::string>>;

  void evict_locked();

  Config config_;
  mutable std::mutex mu_;
  Stats stats_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, LruList::iterator> index_;
};

class ConflictGraphCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t builds = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  /// max_entries = 0 disables caching (every call builds).
  explicit ConflictGraphCache(std::size_t max_entries);

  /// Return the cached graph for `key`, or invoke `build` (outside the
  /// lock) and cache its result.
  template <typename BuildFn>
  [[nodiscard]] std::shared_ptr<const ConflictGraph> get_or_build(
      std::uint64_t key, BuildFn&& build) {
    if (auto cached = find(key)) return cached;
    std::shared_ptr<const ConflictGraph> built = build();
    return store(key, std::move(built));
  }

  [[nodiscard]] Stats stats() const;

 private:
  using LruList =
      std::list<std::pair<std::uint64_t, std::shared_ptr<const ConflictGraph>>>;

  [[nodiscard]] std::shared_ptr<const ConflictGraph> find(std::uint64_t key);
  [[nodiscard]] std::shared_ptr<const ConflictGraph> store(
      std::uint64_t key, std::shared_ptr<const ConflictGraph> graph);

  std::size_t max_entries_;
  mutable std::mutex mu_;
  Stats stats_;
  LruList lru_;
  std::unordered_map<std::uint64_t, LruList::iterator> index_;
};

}  // namespace pslocal::service
