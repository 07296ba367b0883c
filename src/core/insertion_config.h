// Configuration of the sampling-based buffer-insertion flow (Section III).
// Defaults mirror the paper's experimental setup (Section IV).
#pragma once

#include <cstdint>

namespace clktune::core {

struct InsertionConfig {
  /// Monte-Carlo samples used to locate buffers (paper: 10 000).
  std::uint64_t num_samples = 10000;
  std::uint64_t sample_seed = 20160314;

  /// Discrete tuning steps per window (paper: 20, after the de-skew buffer
  /// of [4]).
  int steps = 20;
  /// Maximum window width in ps; <= 0 derives tau = T_nominal / 8 (paper).
  double max_range_ps = 0.0;

  /// Pruning (III-A2): remove buffers adjusted in <= prune_usage_max
  /// samples unless adjacent to a critical buffer (>= critical_usage).
  /// Values are given per 10 000 samples and scaled to num_samples.
  double prune_usage_max_per_10k = 1.0;
  double critical_usage_per_10k = 5.0;
  /// Final keep rule: buffers adjusted in fewer than this many samples
  /// (per 10 000) after step 2 are dropped from the plan.
  double final_usage_min_per_10k = 5.0;

  /// Skip rule (III-B1): skip the fixed-bound re-simulation when fewer than
  /// this fraction of samples have tunings outside the assigned windows.
  double window_skip_fraction = 1e-3;

  /// Grouping (III-C): correlation threshold r_t and distance threshold as
  /// a multiple of the minimum flip-flop pitch (paper: 0.8 and 10x).
  double corr_threshold = 0.8;
  double dist_factor = 10.0;
  /// Designer cap on physical buffers; < 0 means unlimited.
  int max_buffers = -1;

  /// Average x_avg,i over non-zero tunings only (default) or over all
  /// samples (literal III-B2 reading); ablation covers both.
  bool average_nonzero_only = true;

  /// Ablation switches for the concentration / pruning / grouping steps.
  bool enable_concentration = true;
  bool enable_pruning = true;
  bool enable_grouping = true;

  /// Worker threads; 0 = hardware concurrency.  Results are identical for
  /// any thread count.
  int threads = 0;

  /// Byte budget of the cross-pass sample-constant cache: step 1 quantizes
  /// every sample's arc constants once and steps 2a/2b reuse those of the
  /// violating samples instead of re-deriving them (sampler + floor) per
  /// pass.  It caps the bytes actually stored, 2 * int32 * arcs per
  /// violating sample; violating samples past it are recomputed per pass
  /// (streaming), so million-sample campaigns run in bounded memory, and 0
  /// stores nothing.  Purely an execution detail — results are
  /// bit-identical with the cache holding all, some or none of them.
  std::uint64_t sample_cache_max_bytes = 512ull << 20;

  /// Branch & bound node budget per per-sample ILP.
  long milp_max_nodes = 50000;

  // -- scaled thresholds -----------------------------------------------------
  std::uint64_t scaled(double per_10k) const {
    const double v = per_10k * static_cast<double>(num_samples) / 10000.0;
    return v < 1.0 ? 1 : static_cast<std::uint64_t>(v + 0.5);
  }
  std::uint64_t prune_usage_max() const {
    return scaled(prune_usage_max_per_10k);
  }
  std::uint64_t critical_usage() const {
    const std::uint64_t c = scaled(critical_usage_per_10k);
    return c < 2 ? 2 : c;
  }
  std::uint64_t final_usage_min() const {
    return scaled(final_usage_min_per_10k);
  }
};

}  // namespace clktune::core
