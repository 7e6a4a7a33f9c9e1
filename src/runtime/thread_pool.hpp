// ThreadPool: the production Scheduler, a lane count that starts no
// thread.
//
// The LOCAL model charges rounds, not host time, and every solver is
// sequential, so no region gains from being spread over threads.
// ThreadPool(N) reports N lanes, which a ServiceEngine turns into N
// serving threads of its own, and runs every chunk of a region in
// ascending order on the thread that calls run_chunks.  The first chunk
// exception propagates at once; no later chunk runs.
#pragma once

#include "runtime/scheduler.hpp"

namespace pslocal::runtime {

class ThreadPool final : public Scheduler {
 public:
  /// A pool of `threads` lanes (0 = std::thread::hardware_concurrency).
  explicit ThreadPool(std::size_t threads = 0);

  [[nodiscard]] std::size_t thread_count() const override { return lanes_; }

  void run_chunks(std::size_t n, std::size_t grain,
                  const std::function<void(ChunkRange)>& body) override;

 private:
  std::size_t lanes_;
};

}  // namespace pslocal::runtime
