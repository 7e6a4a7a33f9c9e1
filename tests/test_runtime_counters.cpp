// Runtime observability counters: chunk and region counts match the
// region geometry, busy time accumulates, and metric deltas are
// deterministic across thread counts (mirroring the scheduler's
// bit-identical-results contract).  Also: while one lane stalls on a
// chunk, the other lane drains the rest of the region.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace pslocal {
namespace {

#if PSLOCAL_OBS_ENABLED

std::uint64_t chunk_counter() {
  return obs::snapshot().counter("runtime.chunks");
}

// Skewed workload: whichever lane runs chunk 0 stalls until every OTHER
// chunk has completed, so its stall ends early only if the other lane
// claims and runs all 255 remaining chunks meanwhile.  A deadline keeps
// a scheduler bug from hanging ctest.  Returns how many other chunks
// chunk 0 saw completed when its stall ended.
int run_skewed(runtime::ThreadPool& pool, std::atomic<int>& others) {
  constexpr int kOtherChunks = 4096 / 16 - 1;  // 255
  int seen_by_chunk0 = -1;
  runtime::parallel_for(pool, {4096, 16},
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 0) {
                            const auto deadline =
                                std::chrono::steady_clock::now() +
                                std::chrono::seconds(10);
                            while (others.load() < kOtherChunks &&
                                   std::chrono::steady_clock::now() < deadline)
                              std::this_thread::yield();
                            seen_by_chunk0 = others.load();
                          } else {
                            others.fetch_add(1);
                          }
                        });
  return seen_by_chunk0;
}

TEST(RuntimeCountersTest, OtherLaneDrainsWhileOneChunkStalls) {
  runtime::ThreadPool pool(2);
  std::atomic<int> others{0};
  EXPECT_EQ(run_skewed(pool, others), 4096 / 16 - 1);
  EXPECT_EQ(others.load(), 4096 / 16 - 1);
}

TEST(RuntimeCountersTest, ChunkAndRegionCountsMatchGeometry) {
  // 1000 elements at grain 50 -> exactly 20 chunks, however they are
  // distributed over lanes.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    runtime::ThreadPool pool(threads);
    const std::uint64_t chunks_before = chunk_counter();
    const std::uint64_t regions_before =
        obs::snapshot().counter("runtime.regions");
    runtime::parallel_for_each_index(pool, {1000, 50}, [](std::size_t) {});
    EXPECT_EQ(chunk_counter() - chunks_before, 20u)
        << "threads=" << threads;
    EXPECT_EQ(obs::snapshot().counter("runtime.regions") - regions_before, 1u)
        << "threads=" << threads;
  }
}

TEST(RuntimeCountersTest, CounterMergesAreDeterministicAcrossThreadCounts) {
  // The same instrumented computation must report identical metric
  // deltas at every thread count: sum of add(i) over i in [0, n) and a
  // histogram over the per-chunk lengths.
  constexpr std::size_t kN = 5000;
  constexpr std::uint64_t kExpectedSum =
      static_cast<std::uint64_t>(kN) * (kN - 1) / 2;

  obs::Counter work_sum("runtime_test.work_sum");
  obs::Histogram chunk_len("runtime_test.chunk_len");
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto before = obs::snapshot();
    runtime::ThreadPool pool(threads);
    runtime::parallel_for(pool, {kN, 64},
                          [&](std::size_t begin, std::size_t end) {
                            for (std::size_t i = begin; i < end; ++i)
                              work_sum.add(i);
                            chunk_len.record(end - begin);
                          });
    const auto after = obs::snapshot();
    EXPECT_EQ(after.counter("runtime_test.work_sum") -
                  before.counter("runtime_test.work_sum"),
              kExpectedSum)
        << "threads=" << threads;
    const auto h_before = before.histogram("runtime_test.chunk_len");
    const auto h_after = after.histogram("runtime_test.chunk_len");
    // Chunk geometry depends only on (n, grain): 5000/64 -> 79 chunks,
    // 78 of length 64 plus one tail of length 8.
    EXPECT_EQ(h_after.count - h_before.count, 79u) << "threads=" << threads;
    EXPECT_EQ(h_after.sum - h_before.sum, kN) << "threads=" << threads;
    EXPECT_EQ(h_after.max, 64u);
  }
}

TEST(RuntimeCountersTest, BusyTimeAccumulates) {
  runtime::ThreadPool pool(2);
  const std::uint64_t before = obs::snapshot().counter("runtime.busy_ns");
  runtime::parallel_for_each_index(pool, {256, 8}, [](std::size_t i) {
    volatile std::uint64_t x = i;
    for (int r = 0; r < 100; ++r) x = x * 2654435761u + 1;
  });
  EXPECT_GT(obs::snapshot().counter("runtime.busy_ns"), before);
}

#else  // PSLOCAL_OBS_ENABLED == 0

TEST(RuntimeCountersTest, DisabledBuildReportsNothing) {
  runtime::ThreadPool pool(2);
  runtime::parallel_for_each_index(pool, {1024, 16}, [](std::size_t) {});
  EXPECT_TRUE(obs::snapshot().counters.empty());
}

#endif  // PSLOCAL_OBS_ENABLED

}  // namespace
}  // namespace pslocal
