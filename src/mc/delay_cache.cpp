#include "mc/delay_cache.h"

#include "mc/sampler.h"

namespace clktune::mc {

std::size_t DelayCacheTraits::num_arcs() const {
  return sampler->graph().arcs.size();
}

ArcDelaysView DelayCacheTraits::compute_scratch(std::uint64_t k,
                                                ArcSample& s) const {
  sampler->evaluate(k, s);
  return {s.dmax.data(), s.dmin.data(), num_arcs()};
}

SampleDelayCache::SampleDelayCache(const Sampler& sampler,
                                   std::uint64_t samples,
                                   std::uint64_t max_bytes)
    : impl_(DelayCacheTraits{&sampler}, samples, max_bytes) {}

}  // namespace clktune::mc
