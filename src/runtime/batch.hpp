// Batch task submission: a batch of *heterogeneous* independent jobs on
// a Scheduler (perfbench's payload verification and layer replay use it;
// the serving engine runs one request per lane instead).
//
// run_chunks is an index-space primitive: it assumes the work is a loop
// over [0, n).  A task batch is a short vector of distinct closures (say,
// one per cache miss), so run_task_batch maps task i to chunk i (grain
// 1).  On a ThreadPool the tasks run in order on the caller.
#pragma once

#include <functional>
#include <vector>

#include "runtime/scheduler.hpp"

namespace pslocal::runtime {

/// Run every task exactly once.  Blocks until all tasks finished;
/// rethrows the first task exception.
inline void run_task_batch(Scheduler& sched,
                           const std::vector<std::function<void()>>& tasks) {
  sched.run_chunks(tasks.size(), 1,
                   [&tasks](ChunkRange r) { tasks[r.index](); });
}

}  // namespace pslocal::runtime
