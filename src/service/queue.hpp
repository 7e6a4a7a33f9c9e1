// Bounded MPMC request queue with admission control.
//
// The serving front door: any number of client threads try_push pending
// requests; the engine's serving lanes pop them in FIFO order, one at a
// time.  Admission is non-blocking and total — a push either
// enters the queue or is rejected *now* with a reason (kQueueFull,
// kShutdown); clients implement their own retry policy.  Rejection is a
// pure function of queue state, so for a serial submission schedule the
// accept/reject sequence is deterministic (tests pin it by filling an
// undrained queue).
//
// Depth is tracked in the obs histogram service.queue.depth at every
// successful push, so every obs snapshot (a stats scrape, a bench
// report) carries the queue-depth distribution.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "service/request.hpp"

namespace pslocal::service {

/// Admission decision for one submit.
enum class Admission : std::uint8_t {
  kAccepted,
  kQueueFull,  // bounded queue at capacity; retry or shed load
  kShutdown,   // engine stopping; no further requests served
  kShed,       // QoS load shed (over-budget tenant); retry after hint
};

/// Stable wire name ("accepted", "queue_full", "shutdown", "shed").
[[nodiscard]] const char* admission_name(Admission a);

/// Admission outcome plus the deterministic backoff hint that rides a
/// kShedRetryAfter NACK (0 for every other admission).
struct AdmissionVerdict {
  Admission admission = Admission::kShutdown;
  std::uint64_t retry_after_us = 0;
};

/// Receives an admitted request's answer.  The engine calls it exactly
/// once, on the thread that answers: the submitting thread for a cache
/// hit (before submit() returns), a serving lane, or the thread running
/// ServiceEngine::stop().
using Completion = std::function<void(Response)>;

/// One admitted request travelling through the engine.
struct Pending {
  Request request;
  Completion complete;
  std::uint64_t submit_ns = 0;    // now_ns() at admission
  std::uint64_t dispatch_ns = 0;  // now_ns() when a serving lane popped it
  std::size_t tenant = 0;         // registry index (0 = default tenant)
  std::uint64_t deadline_ns = 0;  // absolute deadline; 0 = none
};

/// Admission-queue contract the engine dispatches from.  Two
/// implementations: the single-FIFO RequestQueue below (qos off) and
/// qos::FairQueue (per-tenant FIFOs + deficit-round-robin, qos on).
class AdmissionQueue {
 public:
  virtual ~AdmissionQueue() = default;

  /// Non-blocking admission.  On kAccepted the pending request has been
  /// moved in; otherwise it is left untouched and the verdict says why.
  [[nodiscard]] virtual AdmissionVerdict admit(Pending&& pending) = 0;

  /// Block until at least one request is queued (or shutdown), then move
  /// up to `max` requests into `out` (appended).  Returns how many were
  /// popped; 0 means shutdown-and-empty — the consumer should exit.
  virtual std::size_t pop_batch(std::vector<Pending>& out,
                                std::size_t max) = 0;

  /// Reject all future pushes and wake blocked consumers.  Requests
  /// already queued remain poppable (drain before destroying).
  virtual void shutdown() = 0;

  /// Move out everything still queued without blocking (the engine's
  /// stop path, which rejects stragglers).
  virtual std::size_t drain(std::vector<Pending>& out) = 0;

  [[nodiscard]] virtual std::size_t depth() const = 0;
  [[nodiscard]] virtual std::size_t capacity() const = 0;
};

class RequestQueue final : public AdmissionQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Non-blocking admission (see header comment).  On kAccepted the
  /// pending request has been moved in; otherwise it is left untouched.
  [[nodiscard]] Admission try_push(Pending&& pending);

  [[nodiscard]] AdmissionVerdict admit(Pending&& pending) override {
    return {try_push(std::move(pending)), 0};
  }
  std::size_t pop_batch(std::vector<Pending>& out, std::size_t max) override;
  void shutdown() override;
  std::size_t drain(std::vector<Pending>& out) override;
  [[nodiscard]] std::size_t depth() const override;
  [[nodiscard]] std::size_t capacity() const override { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> items_;
  bool shutdown_ = false;
};

}  // namespace pslocal::service
