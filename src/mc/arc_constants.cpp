#include "mc/arc_constants.h"

#include "mc/sampler.h"
#include "util/assert.h"

namespace clktune::mc {

void quantize_arc_constants(const ssta::SeqGraph& graph,
                            const ArcSample& sample, double clock_period_ps,
                            double step_ps, ArcConstants& out) {
  const std::size_t n = graph.arcs.size();
  CLKTUNE_EXPECTS(sample.dmax.size() == n && sample.dmin.size() == n);
  out.resize(n);
  for (std::size_t e = 0; e < n; ++e) {
    double setup_c = 0.0, hold_c = 0.0;
    arc_slack(graph, e, sample.dmax[e], sample.dmin[e], clock_period_ps,
              setup_c, hold_c);
    out.setup_steps[e] = floor_steps(setup_c, step_ps);
    out.hold_steps[e] = floor_steps(hold_c, step_ps);
  }
}

std::size_t ConstantCacheTraits::num_arcs() const {
  return sampler->graph().arcs.size();
}

ArcConstantsView ConstantCacheTraits::compute_scratch(std::uint64_t k,
                                                      ArcConstants& s) const {
  s.resize(num_arcs());
  sampler->evaluate_constants(k, clock_period_ps, step_ps,
                              s.setup_steps.data(), s.hold_steps.data());
  return view_of(s);
}

SampleConstantCache::SampleConstantCache(const Sampler& sampler,
                                         double clock_period_ps,
                                         double step_ps,
                                         std::uint64_t samples,
                                         std::uint64_t max_bytes)
    : impl_(ConstantCacheTraits{&sampler, clock_period_ps, step_ps}, samples,
            max_bytes) {}

}  // namespace clktune::mc
