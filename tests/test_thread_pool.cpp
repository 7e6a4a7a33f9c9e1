// Tests for the thread pool itself (src/runtime/): a pool of any lane
// count starts no thread and runs every chunk in order on its caller;
// completion, exception propagation, nested, one-chunk and back-to-back
// regions, skewed load, task batches and the global pool.  That the solvers open
// no region on the pool is covered separately in
// test_parallel_determinism.cpp.
#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/batch.hpp"
#include "runtime/global.hpp"

namespace pslocal::runtime {
namespace {

// Threads of this process, counted from /proc/self/task.
std::size_t process_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), end(tasks)));
}

// Every chunk of run_chunks(n, grain), as the pool hands them out.
std::vector<ChunkRange> chunks_of(Scheduler& sched, std::size_t n,
                                  std::size_t grain) {
  std::vector<ChunkRange> out;
  sched.run_chunks(n, grain, [&](ChunkRange c) { out.push_back(c); });
  return out;
}

TEST(ChunkLayout, BoundariesDependOnlyOnNAndGrain) {
  ThreadPool one(1);
  ThreadPool eight(8);
  EXPECT_TRUE(chunks_of(one, 0, 5).empty());
  for (const std::size_t n : {1u, 10u, 11u}) {
    const auto chunks = chunks_of(one, n, 5);
    ASSERT_EQ(chunks.size(), (n + 4) / 5) << "n=" << n;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_EQ(chunks[i].index, i);
      EXPECT_EQ(chunks[i].begin, i * 5);
      EXPECT_EQ(chunks[i].end, std::min(n, (i + 1) * 5));
    }
    const auto wide = chunks_of(eight, n, 5);
    ASSERT_EQ(wide.size(), chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_EQ(wide[i].begin, chunks[i].begin);
      EXPECT_EQ(wide[i].end, chunks[i].end);
    }
  }
}

TEST(ThreadPool, SingleLanePoolSpawnsNothingAndCompletes) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> hits(100, 0);
  pool.run_chunks(100, 7, [&](ChunkRange c) {
    for (std::size_t i = c.begin; i < c.end; ++i) ++hits[i];
  });
  EXPECT_EQ(hits, std::vector<int>(100, 1));
}

TEST(ThreadPool, OneLanePoolRunsEveryChunkOnTheCallingThread) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run_chunks(4096, 16, [&](ChunkRange c) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(c.index);
  });
  ASSERT_EQ(order.size(), 4096u / 16);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, AnyLaneCountStartsNoThreadAndRunsChunksInOrderOnTheCaller) {
  // The lane count is what an engine on the pool turns into serving
  // threads of its own; the pool itself starts none, and a region's
  // chunks run on the caller in ascending order at every lane count.
  const std::size_t before = process_threads();
  const auto caller = std::this_thread::get_id();
  for (const std::size_t lanes : {2u, 4u, 8u}) {
    ThreadPool pool(lanes);
    EXPECT_EQ(pool.thread_count(), lanes);
    EXPECT_EQ(process_threads(), before) << "lanes=" << lanes;
    std::vector<std::size_t> order;
    pool.run_chunks(256, 1, [&](ChunkRange c) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(c.index);
    });
    ASSERT_EQ(order.size(), 256u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
  EXPECT_GE(ThreadPool(0).thread_count(), 1u);  // hardware concurrency
  EXPECT_EQ(process_threads(), before);
}

TEST(ThreadPool, EveryChunkRunsExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 100'000;
  std::vector<int> hits(n, 0);
  pool.run_chunks(n, 64, [&](ChunkRange c) {
    for (std::size_t i = c.begin; i < c.end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + (round * 37) % 500;
    std::size_t sum = 0;
    pool.run_chunks(n, 16, [&](ChunkRange c) {
      for (std::size_t i = c.begin; i < c.end; ++i) sum += i;
    });
    ASSERT_EQ(sum, n * (n - 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, EmptyAndTinyRangesAreFine) {
  ThreadPool pool(4);
  int calls = 0;
  pool.run_chunks(0, 1, [&](ChunkRange) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.run_chunks(1, 8, [&](ChunkRange c) {
    EXPECT_EQ(c.begin, 0u);
    EXPECT_EQ(c.end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunks(10'000, 8,
                               [&](ChunkRange c) {
                                 if (c.begin <= 7777 && 7777 < c.end)
                                   throw std::runtime_error("chunk failure");
                               }),
               std::runtime_error);
  // The failed region must not poison the pool.
  std::size_t count = 0;
  pool.run_chunks(5000, 8, [&](ChunkRange c) { count += c.end - c.begin; });
  EXPECT_EQ(count, 5000u);
}

TEST(ThreadPool, FirstOfManyExceptionsWins) {
  // Chunks run in ascending order, so the first chunk's exception is
  // the one rethrown, and no later chunk runs.
  ThreadPool pool(4);
  std::size_t ran = 0;
  try {
    pool.run_chunks(64, 1, [&](ChunkRange c) {
      ++ran;
      throw std::runtime_error("boom " + std::to_string(c.begin));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "boom 0");
  }
  EXPECT_EQ(ran, 1u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<int> hits(64 * 64, 0);
  pool.run_chunks(64, 4, [&](ChunkRange outer) {
    // A region opened from inside a chunk runs inline on the same
    // thread.
    for (std::size_t o = outer.begin; o < outer.end; ++o)
      pool.run_chunks(64, 4, [&](ChunkRange inner) {
        for (std::size_t i = inner.begin; i < inner.end; ++i)
          ++hits[o * 64 + i];
      });
  });
  EXPECT_EQ(hits, std::vector<int>(64 * 64, 1));
}

TEST(ThreadPool, OneChunkRegionRunsOnTheCallingThread) {
  // The serving engine runs each compute as a one-chunk region on its
  // lane, so every such region must run on the thread that called
  // run_chunks.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  int ran = 0;
  int elsewhere = 0;
  for (int i = 0; i < 1000; ++i) {
    pool.run_chunks(1, 1, [&](ChunkRange r) {
      EXPECT_EQ(r.begin, 0u);
      EXPECT_EQ(r.end, 1u);
      ++ran;
      if (std::this_thread::get_id() != caller) ++elsewhere;
    });
  }
  EXPECT_EQ(ran, 1000);
  EXPECT_EQ(elsewhere, 0);
}

TEST(ThreadPool, CompletesUnderSkewedLoad) {
  ThreadPool pool(4);
  // Chunk 0 is pathologically heavy, the rest are trivial.
  std::size_t done = 0;
  pool.run_chunks(256, 1, [&](ChunkRange c) {
    if (c.begin == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ++done;
  });
  EXPECT_EQ(done, 256u);
}

TEST(ThreadPool, SkewedLoadCompletesEvenWithManyRegions) {
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    std::size_t done = 0;
    pool.run_chunks(64, 1, [&](ChunkRange c) {
      if (c.begin % 17 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++done;
    });
    ASSERT_EQ(done, 64u) << "round " << round;
  }
}

TEST(ThreadPool, LateWorkersNeverRunAStaleRegion) {
  // Many back-to-back regions on a pool with more lanes than chunks:
  // every chunk runs once, under its own region's body.  A pool with
  // worker threads could fail this with a worker that woke after its
  // region closed.
  ThreadPool pool(8);
  constexpr std::size_t kRegions = 5000;
  std::size_t current = 0;
  int stale = 0;
  std::vector<int> hits(2 * kRegions, 0);
  for (std::size_t r = 0; r < kRegions; ++r) {
    current = r;
    pool.run_chunks(2, 1, [&, r](ChunkRange c) {
      if (current != r) ++stale;
      ++hits[2 * r + c.index];
    });
  }
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(hits, std::vector<int>(2 * kRegions, 1));
}

TEST(ThreadPool, TaskBatchRunsEveryTaskOnceInOrder) {
  ThreadPool pool(4);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back([&, i] { order.push_back(i); });
  run_task_batch(pool, tasks);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  run_task_batch(pool, {});
  EXPECT_EQ(order.size(), 5u);
}

TEST(GlobalScheduler, DefaultsToOneLaneAndResizes) {
  // The global pool keeps one lane until a binary opts in, and resizing
  // changes the lane count in place: a reference taken before a resize
  // stays valid and sees the new count.
  Scheduler& global = global_scheduler();
  EXPECT_GE(global.thread_count(), 1u);
  set_global_thread_count(2);
  EXPECT_EQ(&global_scheduler(), &global);
  EXPECT_EQ(global.thread_count(), 2u);
  EXPECT_EQ(global_thread_count(), 2u);
  std::size_t hits = 0;
  global.run_chunks(1000, 64,
                    [&](ChunkRange c) { hits += c.end - c.begin; });
  EXPECT_EQ(hits, 1000u);
  set_global_thread_count(1);
  EXPECT_EQ(global.thread_count(), 1u);
}

}  // namespace
}  // namespace pslocal::runtime
