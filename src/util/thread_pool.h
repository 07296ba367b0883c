// Minimal deterministic parallel-for.  Each worker writes only to its own
// accumulator or to index-keyed slots, and results are merged in worker or
// index order so the outcome is independent of scheduling.  The paper notes
// the sampling flow "can be parallelized easily onto multiple CPU cores" —
// this is that knob.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace clktune::util {

/// Number of workers to use: explicit request, else hardware concurrency
/// (at least 1).
std::size_t resolve_thread_count(std::size_t requested);

/// Invoke fn(worker_index, begin, end) on `workers` threads over [0, n)
/// split into contiguous chunks.  Blocks until all complete.  fn must only
/// touch worker-private state (indexed by worker_index).
void parallel_chunks(
    std::size_t n, std::size_t workers,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Invoke fn(worker_index, i) exactly once for every i in [0, n), each
/// worker pulling the next unclaimed index from a shared counter.  Uneven
/// items (campaign cells of very different sizes, Monte-Carlo samples whose
/// violations come in bursts) keep every worker busy until the last one is
/// claimed.  Which worker gets which index depends on timing, so fn must
/// write only index-keyed slots or worker-keyed state whose final reduction
/// is order-independent (integer sums).  If fn throws, no further index is
/// handed out and the first exception is rethrown after every worker has
/// joined.
void parallel_pull(std::size_t n, std::size_t workers,
                   const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace clktune::util
