// Shared-counter thread pool (the production Scheduler).
//
// Architecture (docs/runtime.md has the full walkthrough):
//
//  * A pool with `threads` lanes owns `threads - 1` persistent worker
//    threads; lane 0 belongs to whichever thread calls run_chunks, so a
//    pool of 1 lane is exactly the SequentialScheduler and spawns
//    nothing.
//  * Per parallel region, every lane claims the next chunk index from
//    one shared atomic counter until none is left.  A region has at most
//    a few hundred chunks (default_grain caps a loop at 256; a task
//    batch has one per task), so one claim per chunk is noise next to
//    the chunk's work.
//  * A worker joins a region only while it is open; the caller closes it
//    once the counter runs dry and waits for the joined workers to
//    leave.  A worker that wakes late skips the region, so the caller
//    alone can drain everything, and no worker ever claims a chunk of
//    the next region with the last region's body.
//  * Determinism: the pool only decides WHERE and WHEN a chunk runs;
//    chunk boundaries and all combining order are fixed by the contract
//    in runtime/scheduler.hpp, so outputs are bit-identical at every
//    thread count.
//  * Exceptions: the first chunk exception is captured, no lane claims
//    another chunk, and the exception is rethrown on the caller.  The
//    pool stays usable afterwards.
//  * Nested parallelism: run_chunks from inside a worker runs the inner
//    region sequentially inline (no deadlock, no oversubscription).
//  * A one-chunk region runs inline on the caller, before the submit
//    lock, so callers on many threads (the serving engine's lanes, each
//    running one compute as one region) never wait on each other here.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"

namespace pslocal::runtime {

class ThreadPool final : public Scheduler {
 public:
  /// A pool with `threads` lanes (0 = std::thread::hardware_concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const override {
    return workers_.size() + 1;
  }

  void run_chunks(std::size_t n, std::size_t grain,
                  const std::function<void(ChunkRange)>& body) override;

 private:
  // One parallel region; a null body means no region is open.
  struct Region {
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    const std::function<void(ChunkRange)>* body = nullptr;
  };

  void worker_main();
  void drain(const Region& region);

  std::mutex submit_mu_;  // serializes external run_chunks callers
  std::mutex mu_;  // guards region_, epoch_, joined_, stop_ and error_
  std::condition_variable wake_cv_;  // workers: a new region, or stop
  std::condition_variable idle_cv_;  // caller: the last worker left
  Region region_;
  std::uint64_t epoch_ = 0;  // bumped per region, so a worker joins once
  std::size_t joined_ = 0;   // workers inside the open region
  bool stop_ = false;
  std::exception_ptr error_;  // the region's first chunk exception
  // The next chunk index to claim; reset under mu_ when a region opens,
  // claimed without it.
  std::atomic<std::size_t> next_{0};
  std::vector<std::thread> workers_;
};

}  // namespace pslocal::runtime
