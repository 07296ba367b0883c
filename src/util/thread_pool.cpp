#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>

namespace clktune::util {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_pull(std::size_t n, std::size_t workers,
                   const std::function<void(std::size_t, std::size_t)>& fn) {
  workers = std::max<std::size_t>(1, std::min(workers, n == 0 ? 1 : n));
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::mutex failure_mutex;  // guards failure
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&fn, &next, &failure, &failure_mutex, w, n] {
      try {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
          fn(w, i);
      } catch (...) {
        // Stop handing out indices and report the first failure to the
        // caller once every worker has finished its current item.
        next.store(n);
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
}

void parallel_chunks(
    std::size_t n, std::size_t workers,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  workers = std::max<std::size_t>(1, std::min(workers, n == 0 ? 1 : n));
  if (workers == 1) {
    fn(0, 0, n);
    return;
  }
  const std::size_t chunk = (n + workers - 1) / workers;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = std::min(n, w * chunk);
    const std::size_t end = std::min(n, begin + chunk);
    threads.emplace_back([&fn, w, begin, end] { fn(w, begin, end); });
  }
  for (auto& t : threads) t.join();
}

}  // namespace clktune::util
