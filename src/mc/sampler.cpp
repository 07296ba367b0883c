#include "mc/sampler.h"

namespace clktune::mc {

void Sampler::evaluate(std::uint64_t k, ArcSample& out) const {
  const std::size_t n = graph_->arcs.size();
  out.dmax.resize(n);
  out.dmin.resize(n);
  const Globals z = globals(k);
  for (std::size_t e = 0; e < n; ++e) {
    // One local draw per arc, shared by the late and early delay so their
    // order is preserved almost surely.
    arc_delays(k, e, z, out.dmax[e], out.dmin[e]);
  }
}

void Sampler::evaluate_constants(std::uint64_t k, double clock_period_ps,
                                 double step_ps, std::int32_t* setup,
                                 std::int32_t* hold) const {
  const ssta::SeqGraph& g = *graph_;
  const auto& arcs = g.arcs;
  const Globals z = globals(k);
  for (std::size_t e = 0; e < arcs.size(); ++e) {
    double late = 0.0, early = 0.0;
    arc_delays(k, e, z, late, early);
    double setup_c = 0.0, hold_c = 0.0;
    arc_slack(g, e, late, early, clock_period_ps, setup_c, hold_c);
    setup[e] = floor_steps(setup_c, step_ps);
    hold[e] = floor_steps(hold_c, step_ps);
  }
}

bool Sampler::has_violation(std::uint64_t k, double clock_period_ps,
                            double step_ps) const {
  const ssta::SeqGraph& g = *graph_;
  const Globals z = globals(k);
  for (std::size_t e = 0; e < g.arcs.size(); ++e) {
    // The setup constant falls as the late delay grows and the hold
    // constant rises with the early delay, so late_hi and early_lo give
    // their lowest values.  A non-negative slack floors to a non-negative
    // step count, which spares the two divisions on nearly every arc.
    const DelayBounds b = arc_bounds(k, e, z);
    double setup_c = 0.0, hold_c = 0.0;
    arc_slack(g, e, b.late_hi, b.early_lo, clock_period_ps, setup_c, hold_c);
    if (setup_c >= 0.0 && hold_c >= 0.0) continue;
    if (floor_steps(setup_c, step_ps) >= 0 && floor_steps(hold_c, step_ps) >= 0)
      continue;
    double late = 0.0, early = 0.0;
    arc_delays(k, e, z, late, early);
    arc_slack(g, e, late, early, clock_period_ps, setup_c, hold_c);
    if (floor_steps(setup_c, step_ps) < 0 || floor_steps(hold_c, step_ps) < 0)
      return true;
  }
  return false;
}

}  // namespace clktune::mc
