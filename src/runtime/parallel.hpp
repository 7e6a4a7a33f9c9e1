// Parallel algorithm primitives on top of runtime::Scheduler.
//
// All primitives obey the determinism contract of runtime/scheduler.hpp:
// chunk boundaries depend only on (n, grain) and order-sensitive
// combining happens in ascending chunk order, so for a fixed seed the
// result of every primitive is bit-identical across thread counts —
// including floating-point reductions, whose association order is fixed.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "runtime/scheduler.hpp"
#include "util/rng.hpp"

namespace pslocal::runtime {

/// An index range with an explicit grain (TBB-style blocked range).
struct BlockedRange {
  std::size_t n = 0;
  std::size_t grain = 0;  // 0 = default_grain(n)

  [[nodiscard]] std::size_t resolved_grain() const {
    return grain == 0 ? default_grain(n) : grain;
  }
};

/// Apply body(begin, end) to every chunk of [0, range.n).  The body must
/// only write state disjoint per element or per chunk.
template <typename Body>
void parallel_for(Scheduler& sched, BlockedRange range, Body&& body) {
  sched.run_chunks(range.n, range.resolved_grain(),
                   [&body](ChunkRange c) { body(c.begin, c.end); });
}

/// Apply body(i) to every i in [0, range.n).
template <typename Body>
void parallel_for_each_index(Scheduler& sched, BlockedRange range,
                             Body&& body) {
  parallel_for(sched, range, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

/// Deterministic reduction.  map(begin, end, chunk_index) -> T runs once
/// per chunk (in parallel); the partial results are folded with
/// combine(acc, partial) in ascending chunk order on the calling thread.
/// The fold order is what makes non-commutative / floating-point
/// reductions reproducible at every thread count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(Scheduler& sched, BlockedRange range, T identity, Map&& map,
                  Combine&& combine) {
  const std::size_t grain = range.resolved_grain();
  const std::size_t chunks = chunk_count(range.n, grain);
  if (chunks == 0) return identity;
  // A plain array, not std::vector<T>: chunk slots must be distinct
  // objects even for T = bool (vector<bool> packs bits and concurrent
  // slot writes would race on shared bytes).
  std::unique_ptr<T[]> partials(new T[chunks]);
  sched.run_chunks(range.n, grain, [&](ChunkRange c) {
    partials[c.index] = map(c.begin, c.end, c.index);
  });
  T acc = std::move(identity);
  for (std::size_t i = 0; i < chunks; ++i)
    acc = combine(std::move(acc), std::move(partials[i]));
  return acc;
}

/// The RNG stream of one chunk: forked from the master seed by chunk
/// index, never by thread id, so randomized chunk bodies stay
/// reproducible at every thread count (docs/runtime.md, "Randomness").
inline Rng rng_for_chunk(std::uint64_t master_seed, std::size_t chunk_index) {
  return Rng(master_seed).fork(chunk_index);
}

}  // namespace pslocal::runtime
