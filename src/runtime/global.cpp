#include "runtime/global.hpp"

#include "runtime/thread_pool.hpp"

namespace pslocal::runtime {

namespace {
ThreadPool& global_pool() {
  // One lane, not hardware_concurrency: an engine on the global pool
  // starts one serving thread per lane, and a library must not start
  // threads unless the binary asked for them (--threads).
  static ThreadPool pool(1);
  return pool;
}
}  // namespace

Scheduler& global_scheduler() { return global_pool(); }

void set_global_thread_count(std::size_t threads) {
  global_pool() = ThreadPool(threads);
}

std::size_t global_thread_count() { return global_pool().thread_count(); }

}  // namespace pslocal::runtime
