// Quantized per-sample constraint constants — the kernel currency of the
// Monte-Carlo hot path.
//
// Every per-sample problem (ILP seeding, difference-constraint feasibility,
// yield checking) consumes the same two integers per sequential arc:
//
//   setup:  x_i - x_j <= setup_steps[e]
//   hold:   x_j - x_i <= hold_steps[e]
//
// derived from the realised arc delays by flooring onto the buffer-step
// grid.  This header centralises that derivation (one quantizer, one
// epsilon) and provides a cross-pass cache so a violating sample's
// constants are computed once per insertion run instead of once per pass.
//
// Constants are stored structure-of-arrays as int32 (magnitudes are bounded
// by clock period / step, a few thousand), halving the footprint of the
// former int64 representation.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "ssta/seq_graph.h"

namespace clktune::mc {

class Sampler;
struct ArcSample;

/// Grid quantizer shared by the sample solver and the yield evaluator:
/// floor with a fixed 1e-9 epsilon so values an ulp below a grid line still
/// land on it.  Saturates at the int32 range (unreachable for physical
/// timing values; saturation preserves the constraint's sign).
inline std::int32_t floor_steps(double value_ps, double step_ps) {
  const double q = std::floor(value_ps / step_ps + 1e-9);
  if (q >= 2147483647.0) return 2147483647;
  if (q <= -2147483648.0) return -2147483648;
  return static_cast<std::int32_t>(q);
}

/// Raw (unquantized) constraint constants of one arc given its realised
/// delays — the single source of the setup/hold slack formula that every
/// consumer (solver quantization, yield sign tests, fused kernel) either
/// floors or sign-tests.  Term order is part of the contract: reordering
/// changes double rounding and breaks bit-identical reuse.
inline void arc_slack(const ssta::SeqGraph& g, std::size_t e, double late,
                      double early, double clock_period_ps, double& setup_c,
                      double& hold_c) {
  const ssta::SeqArc& arc = g.arcs[e];
  const auto i = static_cast<std::size_t>(arc.src_ff);
  const auto j = static_cast<std::size_t>(arc.dst_ff);
  // Setup:  x_i - x_j <= T - s_j - dmax + q_j - q_i
  setup_c = clock_period_ps - g.setup_ps[j] - late + g.skew_ps[j] -
            g.skew_ps[i];
  // Hold:   x_j - x_i <= dmin - h_j + q_i - q_j
  hold_c = early - g.hold_ps[j] + g.skew_ps[i] - g.skew_ps[j];
}

/// One sample's quantized constants, SoA over arcs.
struct ArcConstants {
  std::vector<std::int32_t> setup_steps;
  std::vector<std::int32_t> hold_steps;

  void resize(std::size_t num_arcs) {
    setup_steps.resize(num_arcs);
    hold_steps.resize(num_arcs);
  }
};

/// Borrowed view of one sample's constants — either into the cross-pass
/// cache or into a caller-owned scratch buffer.
struct ArcConstantsView {
  const std::int32_t* setup_steps = nullptr;
  const std::int32_t* hold_steps = nullptr;
  std::size_t num_arcs = 0;
};

inline ArcConstantsView view_of(const ArcConstants& c) {
  return {c.setup_steps.data(), c.hold_steps.data(), c.setup_steps.size()};
}

/// Quantizes already-realised arc delays.  Arithmetic matches the historic
/// solver/yield formulas term for term, so results are bit-identical to the
/// previous per-call derivations.
void quantize_arc_constants(const ssta::SeqGraph& graph,
                            const ArcSample& sample, double clock_period_ps,
                            double step_ps, ArcConstants& out);

/// Does any arc of the sample violate its setup or hold constraint at
/// x = 0?  A sample without one meets timing untouched: the solver returns
/// n_k = 0 for it under any candidate windows, before building a model.
inline bool has_violation(const ArcConstantsView& c) {
  for (std::size_t e = 0; e < c.num_arcs; ++e)
    if (c.setup_steps[e] < 0 || c.hold_steps[e] < 0) return true;
  return false;
}

/// Cross-pass sample-constant cache.  The first pass calls fill(k) for every
/// sample (computing with the fused sampler kernel); it keeps only the
/// samples with a violated arc — the only ones a later pass solves — and
/// stores them while `max_bytes` lasts.  Later passes skip the samples that
/// were not kept (violating(k) is false: they meet timing under any
/// windows) and call get(k) for the rest, which is a pointer lookup when
/// stored and a recomputation into the caller's scratch otherwise
/// (streaming).  Recomputed and stored constants are bit-identical, so
/// which samples fit cannot change a result.
///
/// Stored samples are packed into one block reserved up front for as many
/// slices as the budget holds (or every sample, if fewer).  The block is
/// not initialised, so only the pages of stored slices become resident,
/// and it is released whole with the cache instead of as thousands of
/// small blocks that a worker thread's allocator arena may keep for
/// whichever thread uses that arena next.
class SampleConstantCache {
 public:
  /// max_bytes == 0 disables storing outright (always stream).
  SampleConstantCache(const Sampler& sampler, double clock_period_ps,
                      double step_ps, std::uint64_t samples,
                      std::uint64_t max_bytes);

  bool caching() const { return max_bytes_ > 0; }
  /// Bytes actually stored: one slice per stored violating sample (never
  /// above the budget).
  std::uint64_t bytes() const { return stored_bytes_.load(); }
  /// Footprint of one stored sample.
  static std::uint64_t slice_bytes(std::size_t num_arcs) {
    return 2ull * sizeof(std::int32_t) * num_arcs;
  }

  /// Computes sample k, and stores it when it has a violated arc and the
  /// budget still has room.  May be called concurrently for distinct k —
  /// each writes its own slot, and the budget is claimed atomically.
  ArcConstantsView fill(std::uint64_t k, ArcConstants& scratch);
  /// Did filled sample k have a violated arc?  Asserts the slot was filled.
  bool violating(std::uint64_t k) const;
  /// The stored constants, or a recomputation into scratch.  With storing
  /// on it asserts slot k was filled (the fill pass's thread join orders
  /// the slot write before this read) — reading a sample the fill pass
  /// never saw means the passes disagree on what they cover.
  ArcConstantsView get(std::uint64_t k, ArcConstants& scratch) const;

 private:
  static constexpr char kUnfilled = 0;
  static constexpr char kSkipped = 1;  ///< filled, no violated arc
  static constexpr char kKept = 2;     ///< filled, stored or streamed

  ArcConstantsView compute(std::uint64_t k, ArcConstants& scratch) const;
  /// Slices the store has room for: what the budget holds, at most one
  /// per sample.
  std::uint64_t store_slices() const;
  /// Claims the next free slice of the store; null once it is full.
  std::int32_t* claim_slice();

  const Sampler* sampler_;
  double clock_period_ps_;
  double step_ps_;
  std::uint64_t samples_;
  std::size_t num_arcs_;
  std::uint64_t max_bytes_;
  std::uint64_t capacity_bytes_;  ///< bytes of the store
  std::atomic<std::uint64_t> stored_bytes_{0};
  std::vector<char> state_;  ///< per-sample fill state
  /// Per-sample slice (setup then hold) inside store_, null when not stored.
  std::vector<const std::int32_t*> slices_;
  std::unique_ptr<std::int32_t[]> store_;  ///< stored slices, claim order
};

}  // namespace clktune::mc
