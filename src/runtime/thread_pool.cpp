#include "runtime/thread_pool.hpp"

#include <chrono>

#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace pslocal::runtime {

namespace {
// Set while a thread is executing pool work (worker thread, or the caller
// inside participate()) or holds an InlineRegionScope.  run_chunks sees
// it and runs inline.
thread_local bool tl_inside_pool = false;

// Pool instrumentation (docs/observability.md, "runtime.*").  The
// deterministic ones — regions, chunks, region_chunks — are invariant
// across thread counts; steals / busy_ns / steal metrics describe the
// actual schedule of this run.
struct PoolMetrics {
  obs::Counter regions{"runtime.regions"};
  obs::Counter chunks{"runtime.chunks"};
  obs::Counter steals{"runtime.steals"};
  obs::Counter busy_ns{"runtime.busy_ns"};
  obs::Histogram region_chunks{"runtime.region_chunks"};
  obs::Histogram steal_chunks{"runtime.steal_chunks"};
  obs::Histogram victim_queue_depth{"runtime.victim_queue_depth"};
};

PoolMetrics& metrics() {
  static PoolMetrics m;
  return m;
}
}  // namespace

InlineRegionScope::InlineRegionScope() : outer_(tl_inside_pool) {
  tl_inside_pool = true;
}

InlineRegionScope::~InlineRegionScope() { tl_inside_pool = outer_; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  lanes_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    lanes_.push_back(std::make_unique<Lane>());
  workers_.reserve(threads - 1);
  for (std::size_t lane = 1; lane < threads; ++lane)
    workers_.emplace_back([this, lane] { worker_main(lane); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(epoch_mu_);
    stop_ = true;
  }
  epoch_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_sequential(
    std::size_t n, std::size_t grain,
    const std::function<void(ChunkRange)>& body) {
  for (std::size_t begin = 0, index = 0; begin < n; begin += grain, ++index) {
    const std::size_t end = begin + grain < n ? begin + grain : n;
    body(ChunkRange{begin, end, index});
  }
}

void ThreadPool::run_chunks(std::size_t n, std::size_t grain,
                            const std::function<void(ChunkRange)>& body) {
  PSL_EXPECTS(grain > 0);
  if (n == 0) return;
  const std::size_t total = chunk_count(n, grain);
  metrics().regions.add(1);
  metrics().region_chunks.record(total);
  // One lane, one chunk, or a nested call: nothing to parallelize.
  if (lanes_.size() == 1 || total == 1 || tl_inside_pool) {
    metrics().chunks.add(total);
    run_sequential(n, grain, body);
    return;
  }
  PSL_OBS_SPAN("runtime.region");
  PSL_EXPECTS_MSG(total < (std::uint64_t{1} << 32),
                  "chunk count " << total << " exceeds the 32-bit range "
                                 << "encoding; raise the grain");

  // Serialize external submitters: one region at a time.
  std::lock_guard<std::mutex> submit(start_mu_);

  // Publish the region.  The release stores below (seed slots) and the
  // epoch bump order these plain/relaxed writes before any lane's claim.
  n_.store(n, std::memory_order_relaxed);
  grain_.store(grain, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  body_.store(&body, std::memory_order_release);
  total_chunks_.store(total, std::memory_order_release);

  // Pre-partition the chunk space into one contiguous block per lane.
  const std::size_t lane_count = lanes_.size();
  const std::size_t per = total / lane_count;
  const std::size_t rem = total % lane_count;
  std::uint64_t begin = 0;
  for (std::size_t l = 0; l < lane_count; ++l) {
    const std::uint64_t len = per + (l < rem ? 1 : 0);
    lanes_[l]->seed.store(len ? pack(begin, begin + len) : kNoRange,
                          std::memory_order_release);
    begin += len;
  }

  {
    std::lock_guard<std::mutex> lk(epoch_mu_);
    ++epoch_;
  }
  epoch_cv_.notify_all();

  // The caller is lane 0.
  tl_inside_pool = true;
  participate(0);
  tl_inside_pool = false;

  // Wait until every chunk ran AND every lane left the region, so the
  // region slots can be rewritten by the next call.
  {
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [&] {
      return completed_.load(std::memory_order_acquire) >= total &&
             active_.load(std::memory_order_acquire) == 0;
    });
  }
  body_.store(nullptr, std::memory_order_release);
  if (failed_.load(std::memory_order_acquire)) {
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lk(error_mu_);
      err = error_;
      error_ = nullptr;
    }
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_main(std::size_t lane) {
  tl_inside_pool = true;
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(epoch_mu_);
      epoch_cv_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
    }
    participate(lane);
  }
}

void ThreadPool::participate(std::size_t lane) {
  active_.fetch_add(1, std::memory_order_acq_rel);
  std::size_t idle_rounds = 0;
  while (completed_.load(std::memory_order_acquire) <
         total_chunks_.load(std::memory_order_acquire)) {
    if (try_acquire_work(lane)) {
      idle_rounds = 0;
      continue;
    }
    // Nothing to claim right now: somebody holds an unsplit range.  Back
    // off gently — on oversubscribed machines a yield lets the owner run.
    ++idle_rounds;
    if (idle_rounds < 16) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(done_mu_);
    done_cv_.notify_all();
  }
}

bool ThreadPool::try_acquire_work(std::size_t lane) {
  Lane& self = *lanes_[lane];
  if (auto r = self.deque.pop()) {
    execute_range(lane, *r);
    return true;
  }
  const std::uint64_t seed =
      self.seed.exchange(kNoRange, std::memory_order_acq_rel);
  if (seed != kNoRange) {
    execute_range(lane, seed);
    return true;
  }
  // Raid the other lanes: deques first (splits are hot), then seeds.
  const std::size_t lane_count = lanes_.size();
  for (std::size_t off = 1; off < lane_count; ++off) {
    Lane& victim = *lanes_[(lane + off) % lane_count];
    if (auto r = victim.deque.steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      metrics().steals.add(1);
      metrics().steal_chunks.record(range_end(*r) - range_begin(*r));
      metrics().victim_queue_depth.record(victim.deque.size_hint());
      execute_range(lane, *r);
      return true;
    }
  }
  for (std::size_t off = 1; off < lane_count; ++off) {
    Lane& victim = *lanes_[(lane + off) % lane_count];
    const std::uint64_t stolen =
        victim.seed.exchange(kNoRange, std::memory_order_acq_rel);
    if (stolen != kNoRange) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      metrics().steals.add(1);
      metrics().steal_chunks.record(range_end(stolen) - range_begin(stolen));
      execute_range(lane, stolen);
      return true;
    }
  }
  return false;
}

void ThreadPool::execute_range(std::size_t lane, std::uint64_t range) {
  // Busy time: everything below runs chunk bodies (or splits towards
  // them), so this window is this lane's utilization, not its idle spin.
  const std::uint64_t t0 = now_ns();
  std::uint64_t begin = range_begin(range);
  std::uint64_t end = range_end(range);
  for (;;) {
    // Lazy binary splitting: keep the near half, expose the far half.
    while (end - begin > 1) {
      const std::uint64_t mid = begin + (end - begin) / 2;
      lanes_[lane]->deque.push(pack(mid, end));
      end = mid;
    }
    run_one_chunk(static_cast<std::size_t>(begin));
    if (auto next = lanes_[lane]->deque.pop()) {
      begin = range_begin(*next);
      end = range_end(*next);
    } else {
      break;
    }
  }
  metrics().busy_ns.add(now_ns() - t0);
}

void ThreadPool::run_one_chunk(std::size_t chunk) {
  metrics().chunks.add(1);
  // The claim that delivered `chunk` orders this load after the region's
  // release stores, so all region fields are consistent here.
  const auto* body = body_.load(std::memory_order_acquire);
  const std::size_t n = n_.load(std::memory_order_relaxed);
  const std::size_t grain = grain_.load(std::memory_order_relaxed);
  if (!failed_.load(std::memory_order_relaxed)) {
    try {
      const std::size_t begin = chunk * grain;
      const std::size_t end = begin + grain < n ? begin + grain : n;
      (*body)(ChunkRange{begin, end, chunk});
    } catch (...) {
      std::lock_guard<std::mutex> lk(error_mu_);
      if (!failed_.exchange(true, std::memory_order_acq_rel))
        error_ = std::current_exception();
    }
  }
  const std::size_t done =
      completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (done == total_chunks_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(done_mu_);
    done_cv_.notify_all();
  }
}

}  // namespace pslocal::runtime
