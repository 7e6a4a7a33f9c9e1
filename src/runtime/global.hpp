// The process-global scheduler.
//
// A ServiceEngine without a configured scheduler serves on this pool,
// one lane per pool lane.  The global starts as a single-lane pool;
// binaries opt into more lanes via `--threads N` (util/options) and a
// call to set_global_thread_count at startup, before any engine starts.
#pragma once

#include <cstddef>

#include "runtime/scheduler.hpp"

namespace pslocal::runtime {

/// The global scheduler; a 1-lane pool until configured otherwise.
[[nodiscard]] Scheduler& global_scheduler();

/// Resize the global pool to `threads` lanes (0 = hardware_concurrency).
/// Not thread-safe against concurrent global_scheduler() users: call it
/// from main() during startup, as the bench/example binaries do.
void set_global_thread_count(std::size_t threads);

/// Lanes of the current global pool.
[[nodiscard]] std::size_t global_thread_count();

}  // namespace pslocal::runtime
