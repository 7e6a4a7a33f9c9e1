#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <thread>

#include "util/check.hpp"

namespace pslocal::runtime {

ThreadPool::ThreadPool(std::size_t threads)
    : lanes_(threads != 0
                 ? threads
                 : std::max(1u, std::thread::hardware_concurrency())) {}

void ThreadPool::run_chunks(std::size_t n, std::size_t grain,
                            const std::function<void(ChunkRange)>& body) {
  PSL_EXPECTS(grain > 0);
  for (std::size_t begin = 0, index = 0; begin < n; ++index) {
    const std::size_t end = n - begin > grain ? begin + grain : n;
    body(ChunkRange{begin, end, index});
    begin = end;
  }
}

}  // namespace pslocal::runtime
