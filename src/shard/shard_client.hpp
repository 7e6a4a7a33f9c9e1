// ShardClient — routed calls with replica fan-out and typed failover.
//
// One ShardClient owns one net::Client per shard (like net::Client it is
// single-threaded; closed-loop load generators drive one per worker).
// call() routes the request by its content-addressed key and then:
//
//  * fans out to the first `replication` live replicas in ring
//    preference order, first response wins — duplicates are *expected*
//    and absorbed later (pending lists + try_wait), never double-counted;
//  * on NACK(queue_full) — retryable by the net contract — drops that
//    replica from the race and pulls in the next spare; when every
//    candidate NACKed, sleeps the seeded backoff schedule (the same
//    pure-function-of-seed schedule as net::Client::call_with_retry) and
//    re-fans-out from the top;
//  * on NACK(shutdown) or a transport error marks the shard down (its
//    client is rebuilt on the next call that needs it) and fails over to
//    the next replica — beyond the replica set if need be, so a request
//    is only lost when *no* shard can serve it.
//
// Responses are byte-deterministic, so which replica wins never shows in
// the payload: replay files stay cmp-identical across replication
// factors and mid-run shard deaths (the qc `shard_failover` property
// kills a replica under rf=2 and demands zero lost responses).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/client.hpp"
#include "shard/router.hpp"
#include "shard/topology.hpp"

namespace pslocal::shard {

struct ShardClientConfig {
  Topology topology;
  /// Backoff for queue-full re-fan-out; also caps total sends per call
  /// (max_attempts).  Seeded: the schedule is a pure function of
  /// policy.seed (net::Client::backoff_delays_us).
  net::Client::RetryPolicy retry;
  int connect_timeout_ms = 5000;
  int io_timeout_ms = 10000;
  /// Fan-out breadth; 0 = topology.replication.
  std::size_t replication = 0;
};

class ShardClient {
 public:
  explicit ShardClient(ShardClientConfig config);
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  /// Eagerly connect every shard.  Unreachable shards are marked down
  /// (not fatal — call() fails over); throws only if *no* shard accepts.
  void connect();

  /// Route, fan out, failover; see the header comment.  The Result's
  /// attempts field counts sends across all replicas.
  [[nodiscard]] net::Client::Result call(const service::Request& request);

  /// Absorb outstanding duplicate responses (blocking, bounded by
  /// `timeout_ms` per frame).  Call at end of run so loser replicas'
  /// answers are accounted before the stats are read.
  void drain(int timeout_ms = 1000);

  struct Stats {
    std::uint64_t calls = 0;
    std::uint64_t sends = 0;          // frames sent (all replicas)
    std::uint64_t fanout_sends = 0;   // of which beyond-the-first
    std::uint64_t duplicates_suppressed = 0;  // loser responses absorbed
    std::uint64_t reroutes_queue_full = 0;    // NACK(queue_full) reroutes
    std::uint64_t reroutes_shed = 0;  // NACK(shed_retry_after) reroutes
    std::uint64_t failovers = 0;      // shutdown/transport replica switches
    std::uint64_t reconnects = 0;     // client rebuilds after down-marks
    std::uint64_t pending_duplicates = 0;     // unabsorbed at stats() time
  };
  [[nodiscard]] Stats stats() const;

  /// Requests sent to each shard (winner and loser sends alike) — the
  /// shard-imbalance view pslocal_shard prints and perfbench reads as
  /// shard.max_shard_share.
  [[nodiscard]] std::vector<std::uint64_t> routed_per_shard() const;

  [[nodiscard]] const ShardRouter& router() const { return router_; }
  [[nodiscard]] std::size_t replication() const { return replication_; }

  /// Shard liveness as this client last observed it.
  [[nodiscard]] bool shard_up(std::size_t shard) const;

 private:
  struct Shard {
    std::unique_ptr<net::Client> client;  // rebuilt on reconnect
    bool up = false;
    std::vector<std::uint64_t> pending;  // duplicate ids to absorb
  };

  bool ensure_up(std::size_t s);
  void mark_down(std::size_t s);
  void absorb_pending(std::size_t s);

  ShardClientConfig config_;
  ShardRouter router_;
  std::size_t replication_ = 1;
  std::vector<Shard> shards_;
  std::vector<std::uint64_t> delays_us_;  // precomputed backoff schedule
  std::vector<std::uint64_t> routed_;
  Stats stats_;
};

}  // namespace pslocal::shard
