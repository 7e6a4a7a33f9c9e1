// ServiceEngine — the in-process query-serving engine.
//
// Wiring (docs/service.md has the full walkthrough):
//
//   clients --submit--> SolverCache peek
//                         |  hit:  admit (stop check, QoS token), answer
//                         |        on the submitting thread, now
//                         |  miss: admit into the RequestQueue
//                         v
//                       pop one --> serving lane (x N)
//                                     |  claim the key, or park on the
//                                     |    lane already computing it
//                                     |  SolverCache probe
//                                     |  hit:  answer now
//                                     |  miss: compute inline, cache,
//                                     |        answer + parked requests
//                                     '--> each answer as soon as it
//                                          is ready
//
// N is the scheduler's thread_count(): one lane under the default 1-lane
// global pool.  Lanes are the engine's only parallelism: the solvers are
// sequential, and a lane runs each compute as a one-chunk region on the
// scheduler, which a pool runs inline on the lane.  So N lanes compute N
// distinct misses at once and a hit never waits behind a miss on another
// lane.
//
// Contract highlights:
//
//  * submit() is non-blocking: it returns an Admission decision and, when
//    accepted, a future that will eventually carry a Response — kOk with
//    the canonical payload, kError if the solver threw, or kRejected
//    (reason "shutdown") if the engine stopped first.  Every accepted
//    request is answered exactly once; no future is ever abandoned.
//    submit(request, complete) answers through a Completion instead: it
//    runs once, on the thread that answers, so it must be quick and must
//    not call back into the engine (net::Server encodes the frame there
//    and posts it to an io loop).  That thread is a serving lane, the
//    thread in stop(), or — for a cache hit — the submitting thread,
//    before submit() returns.  So a caller must not hold, while it
//    submits, a lock that its completion takes; and for a hit the future
//    of submit(request) is ready when it returns.
//
//  * Cache hits skip the queue.  Between start() and stop(), submit()
//    peeks at the result cache; a hit passes the admission checks that
//    apply to it — the stop check and, with QoS on, its tenant's token
//    bucket (kShed and the same hint as a queued request) — and is
//    answered on the submitting thread.  It takes no queue slot and no
//    lane, so it is answered even while the queue is full or every lane
//    is busy.  Only misses queue for a lane.
//
//  * One compute per key: while a lane computes a key, requests for the
//    same key park on that compute and are answered from it as hits.
//
//  * Response payloads are byte-deterministic: for a fixed request
//    content they are identical across runs, thread counts, lane
//    schedules and cache states.  Hit/miss *timing* varies; bytes do
//    not.  This is what --replay-in compares (service/workload.hpp).
//
//  * An engine is constructed stopped.  start() launches the lanes; an
//    engine that is never started still admits requests (up to queue
//    capacity — the deterministic admission-probe used by tests; it
//    answers nothing inline) and rejects them with "shutdown" at
//    stop()/destruction.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "qos/fair_queue.hpp"
#include "runtime/global.hpp"
#include "service/cache.hpp"
#include "service/queue.hpp"
#include "service/request.hpp"
#include "service/session.hpp"

namespace pslocal::service {

struct EngineConfig {
  std::size_t queue_capacity = 256;
  SolverCache::Config cache;   // result cache (enabled by default)
  std::size_t graph_cache_entries = 64;  // built G_k objects (0 = off)
  std::size_t mutation_sessions = 8;     // stored mutate states (0 = off)
  /// The lane count (its thread_count()), and where each lane runs its
  /// computes, one one-chunk region per miss; nullptr = the global pool.
  runtime::Scheduler* scheduler = nullptr;
  /// Identity in traces: lane i is labelled "<name>.lane<i>" (its
  /// Perfetto track name), so a multi-engine process — one engine per
  /// shard in LocalCluster — reads cleanly.
  std::string name = "engine";
  /// Multi-tenant QoS (docs/qos.md).  enabled replaces the single
  /// RequestQueue with a qos::FairQueue over `qos.tenants`; off keeps
  /// the pre-QoS admission path bit-for-bit.
  qos::QosConfig qos;
};

class ServiceEngine {
 public:
  explicit ServiceEngine(EngineConfig config = {});
  ~ServiceEngine();

  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  /// Launch the serving lanes (idempotent; no-op after stop()).
  void start();

  /// What happens to already-admitted, not-yet-served requests at stop.
  enum class StopMode : std::uint8_t {
    /// Graceful drain: the lanes keep serving until the queue is empty,
    /// so every admitted request gets its real answer (kOk or kError).
    /// Only requests no lane ever saw (engine not started) are rejected
    /// with "shutdown".
    kDrain,
    /// Fast shutdown: queued-but-undispatched requests are answered
    /// kRejected("shutdown") instead of being served.  Requests a lane
    /// already popped (computing, or parked on a compute) still
    /// complete normally.
    kReject,
  };

  /// Stop admitting and shut the lanes down under `mode` (default:
  /// graceful drain — the pinned contract is that stop() never discards
  /// an admitted request's answer).  Every admitted request is answered
  /// exactly once under either mode.  Idempotent; the destructor calls
  /// stop(kDrain).
  void stop(StopMode mode = StopMode::kDrain);

  struct Submitted {
    Admission admission = Admission::kShutdown;
    /// Valid only when admission == kAccepted.
    std::future<Response> response;
    /// Deterministic backoff hint when admission == kShed (rides the
    /// kShedRetryAfter NACK); 0 otherwise.
    std::uint64_t retry_after_us = 0;
  };

  /// Non-blocking submission.  Fills request.instance_hash from the
  /// instance content when the caller left it 0.
  [[nodiscard]] Submitted submit(Request request);

  /// As submit(request), but an accepted request is answered by calling
  /// `complete` (see the header comment); a refused one never calls it.
  [[nodiscard]] AdmissionVerdict submit(Request request, Completion complete);

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_full = 0;
    /// Shutdown rejections: refused at submit() plus queued requests
    /// answered kRejected("shutdown") when the engine stopped.
    std::uint64_t rejected_shutdown = 0;
    /// QoS load sheds: over-budget at admission plus past-deadline at
    /// dispatch (the latter also counted in shed_deadline).
    std::uint64_t shed = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t served = 0;        // responses fulfilled (kOk or kError)
    std::uint64_t served_cached = 0; // of which cache_hit (answered at
                                     // submit, by a lane's probe, or
                                     // parked on another lane's compute)
    std::uint64_t errors = 0;
    std::uint64_t batches = 0;       // lane key claims: cache probes,
                                     // each answering itself + parked
                                     // requests (hits answered at
                                     // submit claim nothing)
    std::uint64_t dispatch_cycles = 0;  // requests a lane popped to
                                        // serve (never a hit answered
                                        // at submit)
    std::size_t queue_capacity = 0;  // admission bound (self-describing
                                     // overload scrapes)
    SolverCache::Stats cache;
    ConflictGraphCache::Stats graph_cache;
    MutationSessionStore::Stats sessions;
    bool qos_enabled = false;
    std::vector<qos::FairQueue::TenantSnapshot> qos_tenants;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t queue_depth() const { return queue_->depth(); }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

 private:
  /// A key one lane is computing.  Requests for it that other lanes pop
  /// meanwhile park here and are answered from that compute.
  struct InFlight {
    std::uint64_t key = 0;
    std::vector<Pending> parked;
  };
  /// Result of one probe-or-compute, shared by every request of a key.
  struct Outcome;

  void lane_main(std::size_t lane);
  void serve(Pending& pending);
  [[nodiscard]] bool shed_if_expired(Pending& pending);
  void answer(Pending& pending, std::uint64_t key, const Outcome& outcome,
              bool cache_hit);
  /// Tally a served response (kOk or kError), then finish() it.
  void count_served(Pending& pending, Response resp);
  void reject_all(std::vector<Pending>& pendings, const char* reason);
  /// The one exit of every admitted request: stamps id and total_ns,
  /// records total_ns under its outcome, and calls the completion.
  void finish(Pending& pending, Response resp);

  EngineConfig config_;
  runtime::Scheduler* sched_;  // never null after construction
  std::unique_ptr<AdmissionQueue> queue_;
  /// Non-owning view of *queue_ when config_.qos.enabled (per-tenant
  /// stats + deadline-shed reporting); nullptr otherwise.
  qos::FairQueue* fair_queue_ = nullptr;
  /// Per-tenant "qos.latency_ns.<tenant>" histograms (exemplar-tagged
  /// with the request trace id), indexed like the tenant registry.
  std::vector<obs::Histogram> tenant_latency_;
  SolverCache cache_;
  ConflictGraphCache graph_cache_;
  MutationSessionStore sessions_;
  std::mutex inflight_mu_;
  std::vector<InFlight> inflight_;  // at most one entry per lane
  bool started_ = false;  // guarded by lifecycle_mu_
  bool stopped_ = false;
  std::mutex lifecycle_mu_;
  /// Between start() and stop(): submit() answers cache hits itself.
  std::atomic<bool> answers_hits_{false};
  /// StopMode::kReject was requested: lanes reject what they pop
  /// instead of serving it.
  std::atomic<bool> reject_drained_{false};

  // Tallies (written by submitters and lanes, read via stats()).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> served_cached_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> dispatch_cycles_{0};
  // Last: the lanes use every member above (stop() joins them).
  std::vector<std::thread> lanes_;
};

/// Canonical single-line JSON of an engine stats snapshot (stable key
/// order, integers only — safe to cmp across runs).  The shard tier
/// reports one of these per backend engine, and every stats scrape
/// carries one as its "engine" object.
[[nodiscard]] std::string stats_json(const ServiceEngine::Stats& stats);

}  // namespace pslocal::service
