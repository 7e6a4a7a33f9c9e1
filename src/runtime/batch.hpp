// Batch task submission — fans a batch of *heterogeneous* independent
// jobs onto a Scheduler (perfbench's payload verification and layer
// replay use it; the serving engine runs one request per lane instead).
//
// run_chunks is an index-space primitive: it assumes the work is a loop
// over [0, n).  A task batch is the other shape — a short vector of
// distinct closures (say, one per cache miss) with wildly different
// costs.  run_task_batch maps each task to a one-element chunk (grain 1)
// so each lane claims the next task as soon as it is free, while keeping
// the Scheduler contract: each task runs exactly once, and any
// cross-task combining the caller does afterwards is in task order.
//
// Tasks may themselves call parallel primitives on the same scheduler:
// nested regions run sequentially inline (runtime/thread_pool.hpp), so a
// cheap batch costs nothing extra and a singleton batch behaves exactly
// like calling the task directly.
#pragma once

#include <functional>
#include <vector>

#include "runtime/scheduler.hpp"

namespace pslocal::runtime {

/// Run every task exactly once, in parallel where the scheduler allows.
/// Blocks until all tasks finished; rethrows the first task exception.
inline void run_task_batch(Scheduler& sched,
                           const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {  // skip the scheduling round-trip
    tasks.front()();
    return;
  }
  sched.run_chunks(tasks.size(), 1, [&tasks](ChunkRange r) {
    for (std::size_t i = r.begin; i < r.end; ++i) tasks[i]();
  });
}

}  // namespace pslocal::runtime
