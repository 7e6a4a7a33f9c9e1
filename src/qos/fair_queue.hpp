// Weighted-fair admission queue: per-tenant FIFOs drained by a seeded
// deficit-round-robin scheduler.
//
// Replaces the engine's single MPMC RequestQueue when EngineConfig.qos
// is on.  Admission applies, in order: the global capacity bound
// (kQueueFull — identical contract to RequestQueue), the tenant's
// optional per-lane queue bound and token bucket (kShed with a
// deterministic retry_after_us hint), then enqueue into the tenant's
// FIFO stamped with its deadline class.  admit_hit() is the admission
// of a request the engine answers from its result cache as it is
// submitted: the shutdown check and the token bucket only, since a hit
// takes no queue slot and never reaches DRR.  The serving lanes' pop_batch
// visits tenant lanes in a seed-fixed permutation and credits each
// visit `quantum x weight` deficit, so backlogged tenants drain in
// proportion to their weights — the qc `qos_fairness` property pins the
// convergence, and because every decision is a pure function of the
// (tenant, submit_ns) admission schedule, the whole queue is
// deterministic under replay.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "qos/tenant.hpp"
#include "service/queue.hpp"

namespace pslocal::qos {

class FairQueue final : public service::AdmissionQueue {
 public:
  /// `capacity` bounds the total across all tenant lanes (the analogue
  /// of RequestQueue's bound; EngineConfig.queue_capacity).
  FairQueue(const QosConfig& config, std::size_t capacity);

  [[nodiscard]] service::AdmissionVerdict admit(
      service::Pending&& pending) override;
  /// Admit a request without queueing it (see header comment): kShutdown
  /// or kShed exactly as admit() would give them, else kAccepted with
  /// the tenant stamped into `pending` and counted as admitted.
  [[nodiscard]] service::AdmissionVerdict admit_hit(
      service::Pending& pending);
  std::size_t pop_batch(std::vector<service::Pending>& out,
                        std::size_t max) override;
  void shutdown() override;
  std::size_t drain(std::vector<service::Pending>& out) override;
  [[nodiscard]] std::size_t depth() const override;
  [[nodiscard]] std::size_t capacity() const override { return capacity_; }

  [[nodiscard]] const TenantRegistry& registry() const { return registry_; }

  /// Deadline sheds happen at dispatch (the engine owns the clock
  /// there); the engine reports them back so per-tenant stats are
  /// complete in one place.
  void record_deadline_shed(std::size_t tenant);

  /// Point-in-time per-tenant stats for service::stats_json.
  struct TenantSnapshot {
    std::string name;            // "default" for the default tenant
    std::uint64_t weight = 1;
    std::size_t depth = 0;       // requests queued in this lane now
    std::uint64_t admitted = 0;
    std::uint64_t shed_rate = 0;      // token-bucket / lane-bound sheds
    std::uint64_t shed_deadline = 0;  // past-deadline sheds at dispatch
    std::uint64_t deficit = 0;        // current DRR deficit carry
  };
  [[nodiscard]] std::vector<TenantSnapshot> tenant_stats() const;

 private:
  struct Lane {
    explicit Lane(TokenBucket b) : bucket(b) {}
    // Explicitly noexcept so vector growth moves lanes instead of
    // copying them (std::deque's own move constructor may throw).
    Lane(Lane&& other) noexcept = default;
    Lane& operator=(Lane&& other) noexcept = default;

    std::deque<service::Pending> fifo;
    TokenBucket bucket;
    std::uint64_t deficit = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed_rate = 0;
    std::uint64_t shed_deadline = 0;
  };

  /// The token charge every admitted request pays, queued or not: take
  /// a token from tenant `idx`'s bucket or shed, then stamp the tenant
  /// and its deadline into `pending`.  Requires mu_.
  [[nodiscard]] service::AdmissionVerdict charge_locked(
      service::Pending& pending, std::size_t idx);

  const TenantRegistry registry_;
  const std::size_t capacity_;
  const std::uint64_t quantum_;
  std::vector<std::size_t> order_;  // seeded DRR visit permutation

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Lane> lanes_;
  std::size_t total_ = 0;
  // DRR position, kept across pop_batch calls: the lane order_[cursor_]
  // is being visited, and visit_open_ says it was already credited.
  std::size_t cursor_ = 0;
  bool visit_open_ = false;
  bool shutdown_ = false;
};

}  // namespace pslocal::qos
