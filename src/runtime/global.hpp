// The process-global scheduler.
//
// A ServiceEngine without a configured scheduler serves on this pool,
// one lane per pool lane.  The global starts with one lane; binaries opt
// into more via `--threads N` (util/options) and a call to
// set_global_thread_count at startup, before any engine starts.
#pragma once

#include <cstddef>

#include "runtime/scheduler.hpp"

namespace pslocal::runtime {

/// The global scheduler; one object for the life of the process, with
/// one lane until configured otherwise.
[[nodiscard]] Scheduler& global_scheduler();

/// Set the global pool's lane count in place (0 = hardware_concurrency),
/// so a reference taken earlier sees the new count.  Not thread-safe
/// against concurrent global_scheduler() users: call it from main()
/// during startup, as the bench/example binaries do.
void set_global_thread_count(std::size_t threads);

/// Lanes of the global pool.
[[nodiscard]] std::size_t global_thread_count();

}  // namespace pslocal::runtime
