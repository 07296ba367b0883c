// One pass over Monte-Carlo chips: the substrate of every out-of-sample
// measurement (period MC, yield report, criticality, binning, the baseline
// incidence ranking).
//
// Each chip is drawn once into worker-private scratch and handed to one
// visitor, which applies every check the measurement needs to that draw —
// realised delays do not depend on the clock period or the plan, so one
// draw serves any number of evaluators.  Chips are split into the
// contiguous chunks of util::parallel_chunks, one accumulator per chunk, and
// the accumulators come back in chunk order.  Integer tallies merged in any
// order are therefore thread-count invariant; a floating-point merge
// (OnlineStats) is deterministic for a given thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "mc/sampler.h"
#include "util/thread_pool.h"

namespace clktune::mc {

/// Draws chips [0, samples) of `sampler` on `threads` workers (0 = all
/// cores) and calls visit(acc, k, chip) for each, where acc is the
/// accumulator of k's chunk, seeded as a copy of `init`.  Returns one
/// accumulator per worker in chunk order: accumulator w covers exactly
/// util::parallel_chunks' chunk w, and any past the last chunk (fewer chips
/// than workers) stay equal to `init`.
template <class Acc, class Visit>
std::vector<Acc> fold_chips(const Sampler& sampler, std::uint64_t samples,
                            int threads, const Acc& init, const Visit& visit) {
  const std::size_t workers = util::resolve_thread_count(
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  std::vector<Acc> acc(workers, init);
  util::parallel_chunks(
      static_cast<std::size_t>(samples), workers,
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        ArcSample chip;
        for (std::size_t k = begin; k < end; ++k) {
          sampler.evaluate(k, chip);
          visit(acc[w], static_cast<std::uint64_t>(k),
                static_cast<const ArcSample&>(chip));
        }
      });
  return acc;
}

}  // namespace clktune::mc
