// Cross-evaluation sample-delay cache.
//
// Realised arc delays are a pure function of (seed, sample, arc) — they do
// not depend on the clock period, the step grid or the tuning plan under
// evaluation.  A measurement that evaluates several plans over the same
// sampler (original vs tuned vs baseline yield, or one plan at several
// clock settings) therefore re-derives identical delays once per
// evaluation.  This cache stores them once — SoA double arrays, one slice
// per sample, every sample kept — on the shared SampleSliceCache protocol
// (byte budget, streaming beyond it, per-slot fill tracking).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mc/sample_cache.h"

namespace clktune::mc {

class Sampler;
struct ArcSample;

/// Borrowed view of one sample's realised delays.
struct ArcDelaysView {
  const double* dmax = nullptr;
  const double* dmin = nullptr;
  std::size_t num_arcs = 0;
};

/// Kernel traits of the delay cache (see SampleSliceCache for the fill/get
/// protocol).  Out-of-line definitions keep Sampler incomplete here.
struct DelayCacheTraits {
  using Elem = double;
  using View = ArcDelaysView;
  using Scratch = ArcSample;

  const Sampler* sampler = nullptr;

  std::size_t num_arcs() const;
  ArcDelaysView compute_scratch(std::uint64_t k, ArcSample& s) const;
  ArcDelaysView view(const double* dmax, const double* dmin,
                     std::size_t n) const {
    return {dmax, dmin, n};
  }
  std::pair<const double*, const double*> arrays(const ArcDelaysView& v) const {
    return {v.dmax, v.dmin};
  }
  bool keep(const ArcDelaysView&) const { return true; }
};

class SampleDelayCache {
 public:
  /// max_bytes == 0 disables storing outright (always stream).
  SampleDelayCache(const Sampler& sampler, std::uint64_t samples,
                   std::uint64_t max_bytes);

  bool caching() const { return impl_.caching(); }
  std::uint64_t samples() const { return impl_.samples(); }
  std::uint64_t bytes() const { return impl_.bytes(); }
  static std::uint64_t required_bytes(std::uint64_t samples,
                                      std::size_t num_arcs) {
    return SampleSliceCache<DelayCacheTraits>::required_bytes(samples,
                                                              num_arcs);
  }

  /// Fill accessor: compute (and store, while the budget lasts) sample k.
  ArcDelaysView fill(std::uint64_t k, ArcSample& scratch) {
    return impl_.fill(k, scratch);
  }
  /// Read accessor: stored delays, or recompute into scratch.  With
  /// storing on it asserts slot k was filled, so a measurement that reuses
  /// a cache its fill pass did not cover fails loudly.
  ArcDelaysView get(std::uint64_t k, ArcSample& scratch) const {
    return impl_.get(k, scratch);
  }

 private:
  SampleSliceCache<DelayCacheTraits> impl_;
};

}  // namespace clktune::mc
