#include "runtime/thread_pool.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace pslocal::runtime {

namespace {
// Set while a thread is executing pool work (worker thread, or the caller
// inside drain()).  run_chunks sees it and runs inline.
thread_local bool tl_inside_pool = false;

// Pool instrumentation (docs/observability.md, "runtime.*").  regions,
// chunks and region_chunks are invariant across thread counts; busy_ns
// describes the actual schedule of this run.
struct PoolMetrics {
  obs::Counter regions{"runtime.regions"};
  obs::Counter chunks{"runtime.chunks"};
  obs::Counter busy_ns{"runtime.busy_ns"};
  obs::Histogram region_chunks{"runtime.region_chunks"};
};

PoolMetrics& metrics() {
  static PoolMetrics m;
  return m;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads - 1);
  for (std::size_t lane = 1; lane < threads; ++lane)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(std::size_t n, std::size_t grain,
                            const std::function<void(ChunkRange)>& body) {
  PSL_EXPECTS(grain > 0);
  if (n == 0) return;
  const std::size_t chunks = chunk_count(n, grain);
  metrics().regions.add(1);
  metrics().region_chunks.record(chunks);
  // One lane, one chunk, or a nested call: nothing to parallelize.
  if (workers_.empty() || chunks == 1 || tl_inside_pool) {
    metrics().chunks.add(chunks);
    SequentialScheduler().run_chunks(n, grain, body);
    return;
  }
  PSL_OBS_SPAN("runtime.region");

  // Serialize external submitters: one region at a time.
  std::lock_guard<std::mutex> submit(submit_mu_);
  const Region region{n, grain, chunks, &body};
  {
    std::lock_guard<std::mutex> lock(mu_);
    region_ = region;
    next_.store(0);
    ++epoch_;
  }
  wake_cv_.notify_all();

  // The caller is lane 0.
  tl_inside_pool = true;
  drain(region);
  tl_inside_pool = false;

  // No chunk is left to claim.  Close the region so late workers skip
  // it, then wait for the joined ones to finish their last chunks.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    region_.body = nullptr;
    idle_cv_.wait(lock, [&] { return joined_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_main() {
  tl_inside_pool = true;
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    if (region_.body == nullptr) continue;  // closed before we woke
    const Region region = region_;
    ++joined_;
    lock.unlock();
    drain(region);
    lock.lock();
    if (--joined_ == 0) idle_cv_.notify_one();
  }
}

void ThreadPool::drain(const Region& region) {
  // Busy time: from this lane's first claim to its last chunk's end.
  const std::uint64_t t0 = now_ns();
  std::size_t claimed = 0;
  for (;;) {
    const std::size_t chunk = next_.fetch_add(1);
    if (chunk >= region.chunks) break;
    ++claimed;
    const std::size_t begin = chunk * region.grain;
    const std::size_t end =
        begin + region.grain < region.n ? begin + region.grain : region.n;
    try {
      (*region.body)(ChunkRange{begin, end, chunk});
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      next_.store(region.chunks);  // no lane claims another chunk
    }
  }
  metrics().chunks.add(claimed);
  metrics().busy_ns.add(now_ns() - t0);
}

}  // namespace pslocal::runtime
