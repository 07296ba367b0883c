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

void violated_arcs(const ssta::SeqGraph& g, const ChipView& chip,
                   double clock_period_ps, double step_ps,
                   std::vector<int>& out) {
  out.clear();
  for (std::size_t e = 0; e < g.arcs.size(); ++e) {
    // The setup constant falls as the late delay grows and the hold
    // constant rises with the early delay, so late_hi and early_lo give
    // their lowest values.  A non-negative slack floors to a non-negative
    // step count, which spares the two divisions on nearly every arc.
    const DelayBounds b = chip.bounds(e);
    double setup_c = 0.0, hold_c = 0.0;
    arc_slack(g, e, b.late_hi, b.early_lo, clock_period_ps, setup_c, hold_c);
    if (setup_c >= 0.0 && hold_c >= 0.0) continue;
    if (floor_steps(setup_c, step_ps) >= 0 && floor_steps(hold_c, step_ps) >= 0)
      continue;
    std::int32_t setup = 0, hold = 0;
    arc_constants(g, chip, e, clock_period_ps, step_ps, setup, hold);
    if (setup < 0 || hold < 0) out.push_back(static_cast<int>(e));
  }
}

}  // namespace clktune::mc
