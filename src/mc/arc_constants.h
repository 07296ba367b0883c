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
// grid.  This header centralises that derivation (one slack formula, one
// quantizer, one epsilon).  The hot paths read it one arc at a time from a
// lazily drawn chip (mc::arc_constants in mc/sampler.h); the dense form
// below quantizes a fully drawn sample.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "ssta/seq_graph.h"

namespace clktune::mc {

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
/// consumer (solver quantization, yield sign tests, violation scan) either
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

/// Quantizes already-realised arc delays.  Arithmetic matches the historic
/// solver/yield formulas term for term, so results are bit-identical to the
/// previous per-call derivations.
void quantize_arc_constants(const ssta::SeqGraph& graph,
                            const ArcSample& sample, double clock_period_ps,
                            double step_ps, ArcConstants& out);

}  // namespace clktune::mc
