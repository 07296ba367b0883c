#include "mc/arc_constants.h"

#include <algorithm>

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

SampleConstantCache::SampleConstantCache(const Sampler& sampler,
                                         double clock_period_ps,
                                         double step_ps,
                                         std::uint64_t samples,
                                         std::uint64_t max_bytes)
    : sampler_(&sampler),
      clock_period_ps_(clock_period_ps),
      step_ps_(step_ps),
      samples_(samples),
      num_arcs_(sampler.graph().arcs.size()),
      max_bytes_(max_bytes),
      capacity_bytes_(store_slices() * slice_bytes(num_arcs_)),
      state_(samples, kUnfilled),
      slices_(max_bytes > 0 ? samples : 0, nullptr),
      store_(std::make_unique_for_overwrite<std::int32_t[]>(
          store_slices() * 2 * num_arcs_)) {}

ArcConstantsView SampleConstantCache::compute(std::uint64_t k,
                                              ArcConstants& scratch) const {
  scratch.resize(num_arcs_);
  sampler_->evaluate_constants(k, clock_period_ps_, step_ps_,
                               scratch.setup_steps.data(),
                               scratch.hold_steps.data());
  return view_of(scratch);
}

std::uint64_t SampleConstantCache::store_slices() const {
  if (max_bytes_ == 0) return 0;
  const std::uint64_t slice = slice_bytes(num_arcs_);
  return slice == 0 ? samples_ : std::min(samples_, max_bytes_ / slice);
}

std::int32_t* SampleConstantCache::claim_slice() {
  if (!caching()) return nullptr;
  const std::uint64_t need = slice_bytes(num_arcs_);
  std::uint64_t used = stored_bytes_.load();
  do {
    if (need > capacity_bytes_ - used) return nullptr;
  } while (!stored_bytes_.compare_exchange_weak(used, used + need));
  return store_.get() + used / sizeof(std::int32_t);
}

ArcConstantsView SampleConstantCache::fill(std::uint64_t k,
                                           ArcConstants& scratch) {
  CLKTUNE_EXPECTS(k < samples_);
  const ArcConstantsView view = compute(k, scratch);
  const bool keep = has_violation(view);
  state_[static_cast<std::size_t>(k)] = keep ? kKept : kSkipped;
  if (!keep) return view;
  std::int32_t* const slot = claim_slice();
  if (slot == nullptr) return view;
  std::copy(view.setup_steps, view.setup_steps + num_arcs_, slot);
  std::copy(view.hold_steps, view.hold_steps + num_arcs_, slot + num_arcs_);
  slices_[static_cast<std::size_t>(k)] = slot;
  return {slot, slot + num_arcs_, num_arcs_};
}

bool SampleConstantCache::violating(std::uint64_t k) const {
  CLKTUNE_EXPECTS(k < samples_);
  const char state = state_[static_cast<std::size_t>(k)];
  CLKTUNE_EXPECTS(state != kUnfilled);
  return state == kKept;
}

ArcConstantsView SampleConstantCache::get(std::uint64_t k,
                                          ArcConstants& scratch) const {
  CLKTUNE_EXPECTS(k < samples_);
  if (caching()) {
    CLKTUNE_EXPECTS(state_[static_cast<std::size_t>(k)] != kUnfilled);
    if (const std::int32_t* s = slices_[static_cast<std::size_t>(k)])
      return {s, s + num_arcs_, num_arcs_};
  }
  return compute(k, scratch);
}

}  // namespace clktune::mc
