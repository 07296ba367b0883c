#include "mc/period_mc.h"

#include <algorithm>
#include <vector>

#include "mc/fold.h"

namespace clktune::mc {

namespace {

/// Minimum setup-limited period of one chip at zero tuning.
double chip_period(const ssta::SeqGraph& graph, const ArcSample& chip) {
  double period = 0.0;
  for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
    const ssta::SeqArc& arc = graph.arcs[e];
    const double t = chip.dmax[e] +
                     graph.setup_ps[static_cast<std::size_t>(arc.dst_ff)] +
                     graph.skew_ps[static_cast<std::size_t>(arc.src_ff)] -
                     graph.skew_ps[static_cast<std::size_t>(arc.dst_ff)];
    period = std::max(period, t);
  }
  return period;
}

/// Does any arc of the chip violate hold at zero tuning?
bool chip_hold_fails(const ssta::SeqGraph& graph, const ArcSample& chip) {
  for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
    const ssta::SeqArc& arc = graph.arcs[e];
    const double margin =
        chip.dmin[e] - graph.hold_ps[static_cast<std::size_t>(arc.dst_ff)] -
        graph.skew_ps[static_cast<std::size_t>(arc.dst_ff)] +
        graph.skew_ps[static_cast<std::size_t>(arc.src_ff)];
    if (margin < 0.0) return true;
  }
  return false;
}

}  // namespace

PeriodStats sample_min_period(const Sampler& sampler, std::uint64_t samples,
                              int threads) {
  const ssta::SeqGraph& graph = sampler.graph();
  const std::vector<PeriodStats> partial = fold_chips(
      sampler, samples, threads, PeriodStats{},
      [&](PeriodStats& acc, std::uint64_t, const ArcSample& chip) {
        acc.period.add(chip_period(graph, chip));
        acc.hold_failures += chip_hold_fails(graph, chip) ? 1 : 0;
        ++acc.samples;
      });

  PeriodStats total;
  for (const PeriodStats& p : partial) {
    total.period.merge(p.period);
    total.hold_failures += p.hold_failures;
    total.samples += p.samples;
  }
  return total;
}

}  // namespace clktune::mc
