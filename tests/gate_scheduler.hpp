// Test double shared by the serving tests (engine and net server).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>

#include "runtime/scheduler.hpp"

namespace pslocal::runtime {

/// Runs every region inline, like SequentialScheduler, but holds each
/// region at a gate while closed.  An engine runs a miss's compute as
/// one region on its scheduler, so the compute stalls at the gate until
/// open(), and "a lane is computing" becomes a state a test can hold.
/// Reports `lanes` as its thread count, which is the number of serving
/// lanes an engine on it runs.
class GateScheduler final : public Scheduler {
 public:
  explicit GateScheduler(std::size_t lanes) : lanes_(lanes) {}

  [[nodiscard]] std::size_t thread_count() const override { return lanes_; }

  void run_chunks(std::size_t n, std::size_t grain,
                  const std::function<void(ChunkRange)>& body) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
      --held_;
    }
    SequentialScheduler().run_chunks(n, grain, body);
  }

  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Wait (up to 30 s) until `n` regions are held at the closed gate.
  bool wait_held(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return held_ >= n; });
  }
  std::size_t held() {
    std::lock_guard<std::mutex> lock(mu_);
    return held_;
  }

 private:
  const std::size_t lanes_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  std::size_t held_ = 0;
};

}  // namespace pslocal::runtime
