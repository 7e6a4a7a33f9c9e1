// Scheduler: the lane-count seam of the serving engine.
//
// The solvers are sequential and open no region (docs/runtime.md).  A
// ServiceEngine runs one serving lane per thread_count() of its
// Scheduler and runs each compute as a one-chunk region on it, so a test
// scheduler can hold a compute on its lane (tests/gate_scheduler.hpp);
// perfbench runs task batches on the global pool (runtime/global.hpp).
//
// A region over [0, n) with grain g is cut into chunks whose boundaries
// depend only on (n, g): chunk i covers [i*g, min(n, (i+1)*g)), and each
// chunk runs exactly once.
#pragma once

#include <cstddef>
#include <functional>

namespace pslocal::runtime {

/// One chunk of an index range.
struct ChunkRange {
  std::size_t begin = 0;  // first element
  std::size_t end = 0;    // one past the last element
  std::size_t index = 0;  // chunk ordinal: begin / grain
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Lanes: the number of serving lanes an engine on this scheduler runs.
  [[nodiscard]] virtual std::size_t thread_count() const = 0;

  /// Execute `body` once per chunk of [0, n) with the given grain.
  /// Blocks until every chunk ran; rethrows the first chunk exception.
  virtual void run_chunks(std::size_t n, std::size_t grain,
                          const std::function<void(ChunkRange)>& body) = 0;

 protected:
  // Copied only as part of a derived object, as the global pool is
  // reassigned in place (runtime/global.cpp).
  Scheduler() = default;
  Scheduler(const Scheduler&) = default;
  Scheduler& operator=(const Scheduler&) = default;
};

}  // namespace pslocal::runtime
