// Monte-Carlo distribution of the zero-tuning minimum clock period.
//
// Section IV of the paper derives its three evaluation clock periods from
// exactly this distribution: T in {muT, muT + sigmaT, muT + 2 sigmaT}, at
// which the original (no-buffer) yields are ~50 %, ~84.13 % and ~97.72 %.
#pragma once

#include <cstdint>

#include "mc/sampler.h"
#include "util/stats.h"

namespace clktune::mc {

struct PeriodStats {
  util::OnlineStats period;     ///< distribution of per-sample min period
  std::uint64_t hold_failures = 0;  ///< samples with a zero-tuning hold violation
  std::uint64_t samples = 0;

  double mu() const { return period.mean(); }
  double sigma() const { return period.stddev(); }
};

/// Samples the minimum feasible period (setup-limited, x = 0) and counts
/// zero-tuning hold violations.  Deterministic in (sampler seed, samples).
PeriodStats sample_min_period(const Sampler& sampler, std::uint64_t samples,
                              int threads = 0);

}  // namespace clktune::mc
