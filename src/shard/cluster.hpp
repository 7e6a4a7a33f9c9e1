// LocalCluster — N engine+server shards in one process, for tests,
// benches, the qc failover property and the pslocal_shard example.
//
// Each shard is its own ServiceEngine behind its own net::Server on an
// ephemeral loopback port; the shards share nothing but the process (and
// the global scheduler pool unless the engine config names another), so
// a LocalCluster exercises the exact wire paths a multi-host deployment
// would.  kill_shard() is the fault injector: it stops one shard's
// server and engine mid-run, which surviving ShardClients observe as
// transport errors and fail over around.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/server.hpp"
#include "service/engine.hpp"
#include "shard/topology.hpp"

namespace pslocal::shard {

struct LocalClusterConfig {
  std::size_t shards = 2;
  /// Per-shard engine config (each shard gets its own engine + caches;
  /// cache capacity here is *per shard*, so total cache grows with the
  /// shard count).
  service::EngineConfig engine;
  /// Per-shard server knobs; port is always ephemeral loopback.
  std::size_t io_threads = 1;
  std::size_t max_connections = 64;
  // Placement pins recorded into topology().
  std::uint64_t ring_seed = 1;
  std::size_t vnodes = 64;
  std::size_t replication = 1;
};

class LocalCluster {
 public:
  explicit LocalCluster(LocalClusterConfig config);
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Start every shard's engine and server and record the topology.
  /// Idempotent.
  void start();

  /// Stop all still-alive shards (drain mode).  Idempotent; the
  /// destructor calls it.
  void stop();

  /// Fault injection: stop shard `i`'s server, then its engine (reject
  /// mode — queued work is answered "shutdown", matching a process
  /// kill as closely as a clean teardown can).  The endpoint stays in
  /// the topology; clients discover the death through the transport.
  void kill_shard(std::size_t i);

  [[nodiscard]] bool alive(std::size_t i) const;
  [[nodiscard]] std::size_t shards() const { return config_.shards; }

  /// The placement contract for this cluster (valid after start()).
  [[nodiscard]] const Topology& topology() const { return topology_; }

  [[nodiscard]] service::ServiceEngine& engine(std::size_t i);
  [[nodiscard]] net::Server& server(std::size_t i);

 private:
  LocalClusterConfig config_;
  struct Shard {
    std::unique_ptr<service::ServiceEngine> engine;
    std::unique_ptr<net::Server> server;
    bool alive = false;
  };
  std::vector<Shard> shards_;
  Topology topology_;
  bool started_ = false;
};

}  // namespace pslocal::shard
