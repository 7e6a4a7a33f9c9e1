// Typed request/response API of the serving engine (src/service/).
//
// A Request names one of the repository's core workloads over one
// hypergraph instance; a Response carries the solver's structured result
// as a *canonical* JSON payload plus per-request timing.  The payload is
// deterministic: for a fixed request content it is byte-identical across
// runs, thread counts and cache hits (the library's solvers are
// bit-deterministic and the serializer below is order-fixed), which is
// what makes replay files (service/workload.hpp) comparable byte-for-byte.
//
// Requests are content-addressed: cache_key() folds the canonical
// instance hash (util/hash.hpp) with the workload kind and exactly the
// parameters that kind consumes — a greedy_maxis request with a different
// seed still hits the same cache line, a luby_mis request does not.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/mutation.hpp"
#include "runtime/scheduler.hpp"

namespace pslocal::service {

/// The serveable workloads.  Each maps to one library entry point; see
/// execute_request (service/engine.hpp) for the exact dispatch.
enum class RequestKind : std::uint8_t {
  kBuildConflictGraph,  // ConflictGraph(h, k): size + edge-class census
  kGreedyMaxis,         // min-degree greedy MaxIS on G_k
  kLubyMis,             // Luby MIS on G_k (seeded)
  kCfColor,             // direct greedy CF coloring of h
  kRunReduction,        // Theorem 1.1 reduction with a named oracle
  kExactCertificate,    // exact MaxIS on G_k + certificate (src/solver/)
  kMutateHypergraph,    // apply a mutation script + MIS repair per step
};

/// Number of RequestKind enumerators; sizes every per-kind table.
inline constexpr std::size_t kRequestKindCount =
    static_cast<std::size_t>(RequestKind::kMutateHypergraph) + 1;

/// Stable wire name ("build_conflict_graph", "greedy_maxis", ...).
[[nodiscard]] const char* kind_name(RequestKind kind);

/// Inverse of kind_name; PSL_CHECKs on unknown names.
[[nodiscard]] RequestKind kind_from_name(const std::string& name);

struct Request {
  std::uint64_t id = 0;  // caller-assigned; echoed in the Response
  RequestKind kind = RequestKind::kGreedyMaxis;

  /// The instance, shared so a trace of 10k requests over a pool of a few
  /// dozen instances stores each hypergraph once.
  std::shared_ptr<const Hypergraph> instance;

  /// hash_hypergraph(*instance); 0 = compute at submit time.  Traces
  /// precompute it once per pooled instance.
  std::uint64_t instance_hash = 0;

  std::size_t k = 4;            // palette size (all kinds except kCfColor)
  std::uint64_t seed = 1;       // kLubyMis, reduction oracles, solver seed
  std::string solver = "greedy-mindeg";  // kRunReduction oracle:
                                         // greedy-mindeg|greedy-random|luby;
                                         // kExactCertificate: a registered
                                         // SolverFactory backend ("dpll");
                                         // kMutateHypergraph: initial-MIS
                                         // leg (greedy-mindeg|luby|backend)

  /// kMutateHypergraph only: the mutation script applied to `instance`
  /// (canonical wire form: encode_script, hypergraph/mutation.hpp).
  std::vector<Mutation> script;

  // Distributed-trace coordinates (docs/tracing.md), carried in the wire
  // frame header — NEVER part of cache_key() or the canonical payload,
  // so replay bytes stay identical with tracing on or off.  0 = untraced.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  /// QoS tenant id (docs/qos.md), carried in the wire frame header like
  /// the trace words — NEVER part of cache_key() or the canonical
  /// payload, so a tenant-tagged request serves the identical bytes as
  /// an untagged one.  Empty = the default tenant.
  std::string tenant;
};

/// Content-addressed cache key (see header comment).  Requires a
/// non-zero instance_hash.
[[nodiscard]] std::uint64_t cache_key(const Request& req);

struct Response {
  enum class Status : std::uint8_t {
    kOk,        // result holds the canonical payload
    kRejected,  // admission control or shutdown; reason says which
    kError,     // the solver threw; reason holds the message
  };

  std::uint64_t id = 0;
  Status status = Status::kOk;
  std::string reason;      // empty when kOk
  std::uint64_t key = 0;   // cache key served (0 when rejected)
  bool cache_hit = false;  // cache, or another lane's compute it parked on
  std::string result;      // canonical JSON payload (empty unless kOk)

  // Timing (never part of the canonical payload; excluded from replay).
  std::uint64_t queue_ns = 0;    // submit -> a serving lane popped it
  std::uint64_t compute_ns = 0;  // solver execution (0 on a cache hit)
  std::uint64_t total_ns = 0;    // submit -> response ready

  /// QoS backoff hint for kRejected("shed") responses, server-local:
  /// the net tier converts such a response into a kShedRetryAfter NACK
  /// carrying this hint; it never rides encode_response.
  std::uint64_t retry_after_us = 0;
};

class ConflictGraphCache;
class MutationSessionStore;

/// Execute one request synchronously on the calling thread and return the
/// canonical JSON payload.  Throws (ContractViolation) on malformed
/// requests — the engine converts that into Status::kError.  This is the
/// single point where requests meet the library's solvers; the engine
/// adds queueing, serving lanes and caching around it.  When
/// `graph_cache` is non-null, the MIS-family kinds share built conflict
/// graphs through it; when `sessions` is non-null, mutate_hypergraph
/// requests resume from stored epoch prefixes through it.  Both are pure
/// accelerations: the payload is identical with or without them.  The
/// scheduler parameter is unused; it stays so existing callers compile.
[[nodiscard]] std::string execute_request(
    const Request& req, runtime::Scheduler& sched,
    ConflictGraphCache* graph_cache = nullptr,
    MutationSessionStore* sessions = nullptr);

}  // namespace pslocal::service
