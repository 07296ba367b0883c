// Monte-Carlo sampling of manufactured chips.
//
// Sample k draws three chip-global parameter deviations (L, tox, Vth) and
// one local deviation per sequential arc, all through counter-based hashing:
// the delay of arc e in sample k is a pure function of (seed, k, e), so
// results are bit-identical across thread counts and evaluation order —
// a requirement for the deterministic parallel flow.
//
// Most checks do not need an arc's exact draw.  The local draw is bounded
// from one hash (util::CounterRng::normal_radius), and that bound brackets
// the arc's realised delays at a fraction of the draw's cost; a setup or
// hold sign the bracket decides is the sign of the exact delay.  ChipView
// hands measurements both, and draws an arc only when asked.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "mc/arc_constants.h"
#include "ssta/seq_graph.h"
#include "util/rng.h"

namespace clktune::mc {

using Globals = std::array<double, ssta::kParams>;

/// Every arc's realised delays of one sample, drawn in full.
struct ArcSample {
  std::vector<double> dmax;
  std::vector<double> dmin;
};

/// Bracket of one arc's realised delays over every local draw its bound
/// allows: late_lo <= late <= late_hi and early_lo <= early <= early_hi.
struct DelayBounds {
  double late_lo = 0.0;
  double late_hi = 0.0;
  double early_lo = 0.0;
  double early_hi = 0.0;
};

/// Realised late/early delay of `arc` for global draws z and local draw
/// zloc.  The late delay is clamped at 0 and the early one into [0, late].
inline void realise_arc(const ssta::SeqArc& arc, const Globals& z,
                        double zloc, double& late, double& early) {
  late = arc.dmax.eval(z, zloc);
  early = arc.dmin.eval(z, zloc);
  late = std::max(late, 0.0);
  early = std::clamp(early, 0.0, late);
}

/// Bracket of realise_arc over every local draw with |zloc| <= r.
///
/// Exact, with no margin: Canon::eval rounds a * zloc, then each sum, and
/// IEEE rounding is monotone, so eval is non-decreasing in zloc for
/// a >= 0 and non-increasing for a < 0 (constant for a == 0).  Evaluating
/// the same expression at the ends of [-r, r] therefore bounds it at every
/// draw in between, and the clamps, arc_slack and floor_steps are monotone
/// too.  This holds only while the bound and the draw run the same
/// rounding sequence: both go through Canon::eval here.
inline DelayBounds bracket_arc(const ssta::SeqArc& arc, const Globals& z,
                               double r) {
  const double rmax = arc.dmax.aloc < 0.0 ? -r : r;
  const double rmin = arc.dmin.aloc < 0.0 ? -r : r;
  DelayBounds b;
  b.late_lo = std::max(arc.dmax.eval(z, -rmax), 0.0);
  b.late_hi = std::max(arc.dmax.eval(z, rmax), 0.0);
  b.early_lo = std::clamp(arc.dmin.eval(z, -rmin), 0.0, b.late_lo);
  b.early_hi = std::clamp(arc.dmin.eval(z, rmin), 0.0, b.late_hi);
  return b;
}

class Sampler {
 public:
  Sampler(const ssta::SeqGraph& graph, std::uint64_t seed)
      : graph_(&graph), rng_(seed) {}

  /// Global parameter draws for sample k.
  Globals globals(std::uint64_t k) const {
    Globals z{};
    for (int p = 0; p < ssta::kParams; ++p)
      z[static_cast<std::size_t>(p)] =
          rng_.normal(k, 0x6000 + static_cast<std::uint64_t>(p));
    return z;
  }

  /// Fills `out` with every arc's realised late/early delay for sample k.
  /// Early delays are clamped to [0, dmax].
  void evaluate(std::uint64_t k, ArcSample& out) const;

  /// Realised late/early delay of a single arc of sample k, given the
  /// sample's global draws (from globals(k)).  A pure function of
  /// (seed, k, e): evaluating arcs one at a time, in any order or subset,
  /// yields exactly the values evaluate() would store.
  void arc_delays(std::uint64_t k, std::size_t e, const Globals& z,
                  double& late, double& early) const {
    realise_arc(graph_->arcs[e], z, rng_.normal(k, 0x10000 + e), late,
                early);
  }

  /// Bracket of arc_delays(k, e, z): one hash instead of a normal draw.
  DelayBounds arc_bounds(std::uint64_t k, std::size_t e,
                         const Globals& z) const {
    return bracket_arc(graph_->arcs[e], z,
                       rng_.normal_radius(k, 0x10000 + e));
  }

  const ssta::SeqGraph& graph() const { return *graph_; }
  std::uint64_t seed() const { return rng_.seed(); }

 private:
  const ssta::SeqGraph* graph_;
  util::CounterRng rng_;
};

class ChipView;

/// Worker-private memory behind ChipView: per arc, the bracket or the exact
/// delays of the chip opened last, stamped with that chip's epoch so the
/// next chip starts empty without clearing anything.  Steady state
/// allocates nothing.
class ChipScratch {
 public:
  /// Opens sample k of `sampler`; any view of an earlier chip of this
  /// scratch is invalid from here on.
  ChipView open(const Sampler& sampler, std::uint64_t k);
  /// Opens a chip drawn in full elsewhere: every arc reads `drawn`'s
  /// delays, and the view draws nothing (its index() is 0).
  ChipView open(const ArcSample& drawn);

 private:
  /// Sizes the memory for n arcs and starts a new epoch; returns the stamp
  /// of a bounded arc in it.
  std::uint64_t next_epoch(std::size_t n);

  std::uint64_t epoch_ = 0;
  /// 2 * epoch: arc's bracket known; 2 * epoch + 1: exact delays known.
  std::vector<std::uint64_t> stamp_;
  /// Bracket, or exact delays as a point bracket (lo == hi).
  std::vector<DelayBounds> memo_;
};

/// One Monte-Carlo chip, drawn lazily and at most once per arc: bounds(e)
/// costs a hash, delays(e) the full local draw, and each is computed once
/// per chip however many checks ask.  Once an arc is drawn its bounds are
/// its exact delays.
class ChipView {
 public:
  std::uint64_t index() const { return k_; }

  /// Bracket of arc e's realised delays.
  DelayBounds bounds(std::size_t e) const {
    if (stamp_[e] < bounded_) {
      memo_[e] = sampler_->arc_bounds(k_, e, z_);
      stamp_[e] = bounded_;
    }
    return memo_[e];
  }

  /// Arc e's exact realised delays (Sampler::arc_delays).
  void delays(std::size_t e, double& late, double& early) const {
    if (stamp_[e] != bounded_ + 1) {
      sampler_->arc_delays(k_, e, z_, late, early);
      memo_[e] = {late, late, early, early};
      stamp_[e] = bounded_ + 1;
      return;
    }
    late = memo_[e].late_hi;
    early = memo_[e].early_lo;
  }

 private:
  friend class ChipScratch;
  ChipView(const Sampler* sampler, std::uint64_t k, const Globals& z,
           std::uint64_t* stamp, DelayBounds* memo, std::uint64_t bounded)
      : sampler_(sampler),
        k_(k),
        z_(z),
        stamp_(stamp),
        memo_(memo),
        bounded_(bounded) {}

  const Sampler* sampler_;  ///< null for a chip drawn elsewhere
  std::uint64_t k_;
  Globals z_;
  std::uint64_t* stamp_;   ///< ChipScratch::stamp_
  DelayBounds* memo_;      ///< ChipScratch::memo_
  std::uint64_t bounded_;  ///< stamp of a bounded arc; +1: drawn
};

inline std::uint64_t ChipScratch::next_epoch(std::size_t n) {
  if (stamp_.size() != n) {
    stamp_.assign(n, 0);
    memo_.resize(n);
    epoch_ = 0;
  }
  ++epoch_;
  return 2 * epoch_;
}

inline ChipView ChipScratch::open(const Sampler& sampler, std::uint64_t k) {
  const std::uint64_t bounded = next_epoch(sampler.graph().arcs.size());
  return ChipView(&sampler, k, sampler.globals(k), stamp_.data(),
                  memo_.data(), bounded);
}

inline ChipView ChipScratch::open(const ArcSample& drawn) {
  const std::size_t n = drawn.dmax.size();
  const std::uint64_t bounded = next_epoch(n);
  for (std::size_t e = 0; e < n; ++e) {
    memo_[e] = {drawn.dmax[e], drawn.dmax[e], drawn.dmin[e], drawn.dmin[e]};
    stamp_[e] = bounded + 1;
  }
  return ChipView(nullptr, 0, Globals{}, stamp_.data(), memo_.data(),
                  bounded);
}

/// Quantized constraint constants of arc e of `chip` (x_i - x_j <= setup,
/// x_j - x_i <= hold): its exact delays through arc_slack and floor_steps,
/// the one expression every per-sample solve reads.
inline void arc_constants(const ssta::SeqGraph& g, const ChipView& chip,
                          std::size_t e, double clock_period_ps,
                          double step_ps, std::int32_t& setup,
                          std::int32_t& hold) {
  double late = 0.0, early = 0.0;
  chip.delays(e, late, early);
  double setup_c = 0.0, hold_c = 0.0;
  arc_slack(g, e, late, early, clock_period_ps, setup_c, hold_c);
  setup = floor_steps(setup_c, step_ps);
  hold = floor_steps(hold_c, step_ps);
}

/// Writes to `out`, in ascending order, every arc of `chip` with a negative
/// setup or hold constant (arc_constants) at x = 0.  An arc whose bracket
/// proves both constants non-negative is not drawn; the rest are, and stay
/// drawn in the view for whoever reads their constants next.  A chip with
/// an empty list meets timing untouched: its n_k is 0 under any windows.
void violated_arcs(const ssta::SeqGraph& g, const ChipView& chip,
                   double clock_period_ps, double step_ps,
                   std::vector<int>& out);

}  // namespace clktune::mc
