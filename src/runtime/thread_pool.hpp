// Work-stealing thread pool (the production Scheduler).
//
// Architecture (docs/runtime.md has the full walkthrough):
//
//  * A pool with `threads` lanes owns `threads - 1` persistent worker
//    threads; lane 0 belongs to whichever thread calls run_chunks, so a
//    pool of 1 lane is exactly the SequentialScheduler and spawns
//    nothing.
//  * Per parallel region, the chunk index space is pre-partitioned into
//    one contiguous block per lane, published in claimable "seed" slots.
//    A lane claims its own seed, pushes it onto its Chase–Lev deque and
//    works LIFO, splitting ranges in half (lazy binary splitting) so
//    thieves can take the far half from the top.
//  * Idle lanes first raid other lanes' deques, then unclaimed seed
//    slots, so a region finishes even if a worker never wakes up for it
//    (the caller alone can drain everything).
//  * Determinism: the pool only decides WHERE and WHEN a chunk runs;
//    chunk boundaries and all combining order are fixed by the contract
//    in runtime/scheduler.hpp, so outputs are bit-identical at every
//    thread count.
//  * Exceptions: the first chunk exception is captured, the remaining
//    chunks are drained without running their bodies, and the exception
//    is rethrown on the caller.  The pool stays usable afterwards.
//  * Nested parallelism: run_chunks from inside a worker runs the inner
//    region sequentially inline (no deadlock, no oversubscription).  A
//    thread outside the pool opts into the same rule with an
//    InlineRegionScope.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/chase_lev_deque.hpp"
#include "runtime/scheduler.hpp"

namespace pslocal::runtime {

/// While alive, every run_chunks this thread calls, on any ThreadPool,
/// runs its region sequentially inline, exactly as a nested region does
/// on a pool worker.  For threads that each run one whole task beside
/// the pool (the serving engine's lanes): their solver regions neither
/// queue on the pool's submit lock nor compete with its workers, and
/// results stay bit-identical (inline is the 1-lane schedule).
class InlineRegionScope {
 public:
  InlineRegionScope();
  ~InlineRegionScope();

  InlineRegionScope(const InlineRegionScope&) = delete;
  InlineRegionScope& operator=(const InlineRegionScope&) = delete;

 private:
  bool outer_;  // the thread's previous setting, restored on exit
};

class ThreadPool final : public Scheduler {
 public:
  /// A pool with `threads` lanes (0 = std::thread::hardware_concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const override {
    return lanes_.size();
  }

  void run_chunks(std::size_t n, std::size_t grain,
                  const std::function<void(ChunkRange)>& body) override;

  /// Total chunks ever stolen across lanes (monitoring; racy read).
  [[nodiscard]] std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  // A range of chunk indices [begin, end) packed into one deque word.
  static constexpr std::uint64_t kNoRange = ~std::uint64_t{0};
  static std::uint64_t pack(std::uint64_t begin, std::uint64_t end) {
    return (begin << 32) | end;
  }
  static std::uint64_t range_begin(std::uint64_t r) { return r >> 32; }
  static std::uint64_t range_end(std::uint64_t r) {
    return r & 0xffffffffULL;
  }

  struct Lane {
    ChaseLevDeque deque;
    // Per-region seed block, claimable by any lane (owner preferred).
    std::atomic<std::uint64_t> seed{kNoRange};
  };

  void worker_main(std::size_t lane);
  void participate(std::size_t lane);
  void execute_range(std::size_t lane, std::uint64_t range);
  void run_one_chunk(std::size_t chunk);
  void run_sequential(std::size_t n, std::size_t grain,
                      const std::function<void(ChunkRange)>& body);
  bool try_acquire_work(std::size_t lane);

  // --- region state (rewritten under start_mu_ before each epoch bump;
  //     read by lanes only after acquiring work through an atomic claim,
  //     which orders the reads after the release stores below).
  std::atomic<std::size_t> n_{0};
  std::atomic<std::size_t> grain_{1};
  std::atomic<std::size_t> total_chunks_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<const std::function<void(ChunkRange)>*> body_{nullptr};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  std::mutex error_mu_;

  // --- pool state
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;
  std::mutex start_mu_;  // serializes external run_chunks callers
  std::mutex epoch_mu_;
  std::condition_variable epoch_cv_;
  std::uint64_t epoch_ = 0;  // guarded by epoch_mu_
  bool stop_ = false;        // guarded by epoch_mu_
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<std::size_t> active_{0};  // lanes currently inside participate
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace pslocal::runtime
