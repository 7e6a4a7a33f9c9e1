// Per-stage latency attribution for the serving path (docs/tracing.md).
//
// A request's lifetime is split into named stages, each recorded into a
// per-request-kind log2 histogram `service.stage.<stage>.<kind>` with
// the request's trace_id as a tail exemplar — so a p99 bucket in a
// scraped snapshot links directly to a stitched trace:
//
//   admission_wait_ns  inside ServiceEngine::submit: the admission call
//                      (lock + queue push, or a hit's token charge)
//   queue_depth        queue depth observed at admission (a count; queued
//                      requests only)
//   dispatch_wait_ns   submit() entry -> a serving lane popped the
//                      request (admission_wait_ns included; queued
//                      requests only)
//   cache_probe_ns     the SolverCache probe that answered a hit at
//                      submit, or a lookup on a serving lane (one per key
//                      claim; parked same-key requests do not probe)
//   solve_ns           solver execution (cache misses only)
//   serialize_ns       response payload + frame encode (net::Server, on
//                      the thread that answered: the io loop for a hit
//                      answered at submit, else a serving lane)
//   wire_write_ns      response enqueue -> last byte handed to the socket
//   rtt_ns             client send -> response decoded (per attempt winner)
//
// All calls compile to no-ops under -DPSLOCAL_OBS=OFF.
#pragma once

#include <cstdint>

#include "service/request.hpp"

namespace pslocal::service::stages {

enum class Stage : std::uint8_t {
  kAdmissionWait,
  kQueueDepth,
  kDispatchWait,
  kCacheProbe,
  kSolve,
  kSerialize,
  kWireWrite,
  kRtt,
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kRtt) + 1;

/// Metric-name fragment ("admission_wait_ns", "queue_depth", ...).
[[nodiscard]] const char* stage_name(Stage stage);

/// Record `value` into service.stage.<stage>.<kind>; a non-zero
/// exemplar_trace_id is retained as a tail exemplar for value's bucket.
void record(Stage stage, RequestKind kind, std::uint64_t value,
            std::uint64_t exemplar_trace_id = 0);

}  // namespace pslocal::service::stages
