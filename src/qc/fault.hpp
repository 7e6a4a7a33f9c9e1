// Fault injection for the serving layer.
//
// The engine's contracts (service/engine.hpp) are strongest exactly where
// faults hit: payload bytes must not depend on cache state, lane count
// or lane timing, and every accepted request is answered exactly once.
// A FaultPlan stresses those contracts through the existing
// configuration hooks — no test-only code paths in src/service/:
//
//  * queue-full bursts      — a tiny queue_capacity plus an admission
//                             burst against the un-started engine (the
//                             deterministic probe) forces kQueueFull;
//  * cache evictions        — a 2-3 entry SolverCache (or cache off)
//                             churns the LRU on every cycle;
//  * oracle degradation     — run_reduction requests already route
//                             through seeded λ-oracles; the differential
//                             layer (oracles.hpp) degrades them directly
//                             via mis/degraded_oracle.
//
// The engine serves on the global pool's lanes, so a binary started
// with --threads N (pslocal_fuzz) runs every plan on N lanes.
// run_fault_plan serves a trace under the plan and differentially checks
// every response against a direct solver call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/workload.hpp"
#include "util/rng.hpp"

namespace pslocal::qc {

/// One seeded fault-injection scenario over a service trace.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::size_t queue_capacity = 4;   // tiny: admission control under stress
  std::size_t burst = 12;           // submissions probed before start()
  std::size_t cache_entries = 2;    // tiny LRU: eviction churn
  std::size_t graph_cache_entries = 1;
  bool disable_cache = false;       // every lookup misses instead
};

/// Draw a random plan (all knobs jittered, seed from rng).
[[nodiscard]] FaultPlan arbitrary_fault_plan(Rng& rng);

/// Outcome of serving a trace under a plan.  `error` is empty when every
/// injected fault was absorbed without breaking a contract.
struct FaultReport {
  std::size_t probe_rejected_full = 0;  // kQueueFull during the burst
  std::size_t retries = 0;              // kQueueFull after start()
  std::size_t served = 0;               // kOk responses received
  std::uint64_t cache_evictions = 0;
  bool cache_untouched_on_reject = false;  // satellite: kQueueFull is pure
  std::size_t mismatches = 0;           // payload != direct solver call
  std::uint64_t first_mismatch_id = 0;
  std::string error;                    // first broken contract, or empty

  [[nodiscard]] bool ok() const { return error.empty() && mismatches == 0; }
};

/// Serve `trace` under `plan` and differentially verify every response.
/// Deterministic in (plan, trace): the admission probe happens before the
/// serving lanes start, and payload bytes never depend on timing.
[[nodiscard]] FaultReport run_fault_plan(const FaultPlan& plan,
                                         const service::Trace& trace);

}  // namespace pslocal::qc
