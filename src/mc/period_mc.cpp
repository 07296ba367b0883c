#include "mc/period_mc.h"

#include <algorithm>
#include <vector>

#include "mc/fold.h"

namespace clktune::mc {

namespace {

/// Setup-limited period arc e needs at zero tuning, given its late delay.
double arc_period(const ssta::SeqGraph& graph, std::size_t e, double late) {
  const ssta::SeqArc& arc = graph.arcs[e];
  return late + graph.setup_ps[static_cast<std::size_t>(arc.dst_ff)] +
         graph.skew_ps[static_cast<std::size_t>(arc.src_ff)] -
         graph.skew_ps[static_cast<std::size_t>(arc.dst_ff)];
}

/// Hold margin of arc e at zero tuning (negative: violated).
double hold_margin(const ssta::SeqGraph& graph, std::size_t e, double early) {
  const ssta::SeqArc& arc = graph.arcs[e];
  return early - graph.hold_ps[static_cast<std::size_t>(arc.dst_ff)] -
         graph.skew_ps[static_cast<std::size_t>(arc.dst_ff)] +
         graph.skew_ps[static_cast<std::size_t>(arc.src_ff)];
}

}  // namespace

PeriodStats sample_min_period(const Sampler& sampler, std::uint64_t samples,
                              int threads) {
  const ssta::SeqGraph& graph = sampler.graph();
  const std::size_t num_arcs = graph.arcs.size();
  const std::vector<PeriodStats> partial = fold_chips(
      sampler, samples, threads, PeriodStats{},
      [&](PeriodStats& acc, std::uint64_t, const ChipView& chip) {
        // The chip's period is the largest arc period, so it is at least
        // the largest lower bound; an arc whose upper bound is below that
        // cannot attain it, and needs no draw.  The arc that does attain it
        // always gets one: its upper bound is at least the largest lower.
        double floor = 0.0;
        for (std::size_t e = 0; e < num_arcs; ++e)
          floor = std::max(floor, arc_period(graph, e, chip.bounds(e).late_lo));
        double period = 0.0;
        bool hold_fails = false;
        for (std::size_t e = 0; e < num_arcs; ++e) {
          const DelayBounds b = chip.bounds(e);
          if (arc_period(graph, e, b.late_hi) < floor &&
              (hold_fails || hold_margin(graph, e, b.early_lo) >= 0.0))
            continue;
          double late = 0.0, early = 0.0;
          chip.delays(e, late, early);
          period = std::max(period, arc_period(graph, e, late));
          hold_fails = hold_fails || hold_margin(graph, e, early) < 0.0;
        }
        acc.period.add(period);
        acc.hold_failures += hold_fails ? 1 : 0;
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
