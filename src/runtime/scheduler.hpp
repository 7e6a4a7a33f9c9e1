// Scheduler: the execution-policy seam of the parallel runtime.
//
// The solvers are sequential and open no region (docs/runtime.md).  A
// ServiceEngine takes its lane count from a Scheduler and runs each
// compute as a one-chunk region on it; perfbench runs task batches on
// the global pool (runtime/global.hpp).  The determinism contract:
//
//   1. An index range [0, n) is cut into chunks whose boundaries depend
//      ONLY on (n, grain) — never on the thread count or on timing.
//      Chunk i covers [i*grain, min(n, (i+1)*grain)).
//   2. Each chunk is executed exactly once, by some thread, in some
//      order.  Chunk bodies may not touch state shared with other chunks
//      (other than distinct output slots indexed by chunk or element).
//   3. Order-sensitive combining (reductions, concatenation of per-chunk
//      output) happens in ascending chunk order, after all chunks ran.
//
// Under these rules the result of any runtime primitive is bit-identical
// across thread counts and across repeated runs — see
// tests/test_thread_pool.cpp and docs/runtime.md.
#pragma once

#include <cstddef>
#include <functional>

#include "util/check.hpp"

namespace pslocal::runtime {

/// One scheduled chunk of an index range (see determinism contract above).
struct ChunkRange {
  std::size_t begin = 0;  // first element
  std::size_t end = 0;    // one past the last element
  std::size_t index = 0;  // chunk ordinal: begin / grain
};

/// Number of chunks of [0, n) under the given grain.
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  PSL_EXPECTS(grain > 0);
  return (n + grain - 1) / grain;
}

/// Default grain for an n-element loop.  Deliberately a function of n
/// alone (never of the thread count): chunk boundaries — and hence every
/// deterministic reduction — stay fixed when --threads changes.  The
/// curve keeps small loops in one chunk and caps the chunk count so the
/// per-chunk scheduling overhead stays ~0.1% of the work.
inline std::size_t default_grain(std::size_t n) {
  if (n <= 2048) return n == 0 ? 1 : n;
  std::size_t g = n / 256;  // at most 256 chunks
  if (g > 16384) g = 16384;
  return g;
}

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Worker lanes available (1 = sequential execution).
  [[nodiscard]] virtual std::size_t thread_count() const = 0;

  /// Execute `body` once per chunk of [0, n) with the given grain.
  /// Blocks until every chunk ran; rethrows the first chunk exception.
  virtual void run_chunks(std::size_t n, std::size_t grain,
                          const std::function<void(ChunkRange)>& body) = 0;
};

/// Runs chunks in ascending order on the calling thread.  The reference
/// implementation of the contract: any Scheduler must produce results
/// bit-identical to this one.
class SequentialScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::size_t thread_count() const override { return 1; }

  void run_chunks(std::size_t n, std::size_t grain,
                  const std::function<void(ChunkRange)>& body) override {
    PSL_EXPECTS(grain > 0);
    for (std::size_t begin = 0, index = 0; begin < n;
         begin += grain, ++index) {
      const std::size_t end = begin + grain < n ? begin + grain : n;
      body(ChunkRange{begin, end, index});
    }
  }
};

}  // namespace pslocal::runtime
