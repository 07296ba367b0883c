// Tests of the screened chip draws: the bound on a local normal draw, the
// delay bracket built from it, and every layer that decides from the
// bracket, each against a test-local implementation that draws every arc of
// every chip in full.
//
// Exactness rests on the bound and the draw running one rounding sequence
// (Canon::eval), so these are also the tests to rerun under flags that may
// contract a multiply-add into an FMA (-march=x86-64-v3 -ffp-contract=fast).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/sample_solver.h"
#include "feas/diff_constraints.h"
#include "feas/tuning_plan.h"
#include "feas/yield_eval.h"
#include "mc/arc_constants.h"
#include "mc/fold.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "netlist/nominal_sta.h"
#include "netlist/paper_circuits.h"
#include "ssta/seq_graph.h"
#include "util/rng.h"
#include "util/stats.h"

namespace clktune {
namespace {

using util::CounterRng;

// ------------------------------------------------------------ the bound

TEST(NormalRadiusTest, BoundsEveryDrawIncludingAZeroMantissa) {
  // First hashes by mantissa (h1 >> 11): zero (drawn as u1 = 2^-53, the
  // largest magnitude there is), every power of two and the value below
  // it, and the largest; low bits below the mantissa must not matter.
  std::vector<std::uint64_t> firsts = {0, 1, (1ull << 11) - 1, ~0ull};
  for (int bit = 0; bit < 53; ++bit) {
    firsts.push_back((1ull << bit) << 11);
    firsts.push_back(((1ull << bit) - 1) << 11 | 0x7ff);
  }
  // Second hashes: u2 = 0 and u2 = 1/2 (cos = +1 and -1: the bound is
  // attained up to rounding), plus a spread of others.
  std::vector<std::uint64_t> seconds = {0, 1ull << 63, (1ull << 62) + 5};
  util::SplitMix64 rng(7);
  for (int i = 0; i < 200; ++i) seconds.push_back(rng.next_u64());

  for (const std::uint64_t h1 : firsts) {
    const double r = CounterRng::normal_radius_of(h1);
    double largest = 0.0;
    for (const std::uint64_t h2 : seconds) {
      const double z = CounterRng::normal_of(h1, h2);
      ASSERT_LE(std::abs(z), r) << "h1=" << h1 << " h2=" << h2;
      largest = std::max(largest, std::abs(z));
    }
    // Tight to within one mantissa bit's worth of u1: sqrt(2 (lz+1) ln 2)
    // against at least sqrt(2 lz ln 2).
    const int lz = std::countl_zero(h1 >> 11) - 11;
    EXPECT_GE(largest, std::sqrt(2.0 * lz * std::numbers::ln2) - 1e-12)
        << "h1=" << h1;
  }
  // The zero mantissa draws u1 = 2^-53 and is bounded by the last entry.
  EXPECT_NEAR(CounterRng::normal_radius_of(0),
              std::sqrt(2.0 * 54.0 * std::numbers::ln2), 1e-6);
  EXPECT_GE(CounterRng::normal_radius_of(0),
            CounterRng::normal_of(0, 0));
}

TEST(NormalRadiusTest, BoundsCounterDraws) {
  const CounterRng rng(20160314);
  for (std::uint64_t i = 0; i < 2000; ++i)
    for (std::uint64_t j = 0x10000; j < 0x10000 + 500; ++j)
      ASSERT_LE(std::abs(rng.normal(i, j)), rng.normal_radius(i, j))
          << i << "," << j;
}

// ----------------------------------------------------------- the bracket

/// A small graph whose arcs cover every sign case of the bracket: local
/// sensitivities positive, negative and zero on either delay, global
/// sensitivities of both signs, and means near zero so that the late clamp
/// at 0 and the early clamp into [0, late] both engage.
ssta::SeqGraph bracket_graph() {
  ssta::SeqGraph g;
  g.num_ffs = 4;
  g.setup_ps = {2.0, 3.0, 1.5, 2.5};
  g.hold_ps = {0.5, 1.0, 0.25, 0.75};
  g.skew_ps = {0.0, 1.5, -2.0, 0.5};
  const double alocs[] = {6.0, -6.0, 0.0, 0.3, -0.3};
  const double mus[] = {40.0, 3.0, 0.5, -2.0};
  int n = 0;
  for (const double max_aloc : alocs)
    for (const double min_aloc : alocs)
      for (const double mu : mus) {
        ssta::SeqArc arc;
        arc.src_ff = n % 4;
        arc.dst_ff = (n / 4) % 4;
        arc.dmax.mu = mu;
        arc.dmax.aloc = max_aloc;
        arc.dmax.a = {1.5 * (n % 3 - 1), -0.7, 0.2 * (n % 5)};
        arc.dmin.mu = 0.6 * mu;
        arc.dmin.aloc = min_aloc;
        arc.dmin.a = {0.9, 0.4 * (n % 3 - 1), -0.1 * (n % 7)};
        g.arcs.push_back(arc);
        ++n;
      }
  g.arcs_of_ff.assign(4, {});
  for (std::size_t e = 0; e < g.arcs.size(); ++e) {
    g.arcs_of_ff[static_cast<std::size_t>(g.arcs[e].src_ff)].push_back(
        static_cast<int>(e));
    if (g.arcs[e].dst_ff != g.arcs[e].src_ff)
      g.arcs_of_ff[static_cast<std::size_t>(g.arcs[e].dst_ff)].push_back(
          static_cast<int>(e));
  }
  return g;
}

void expect_bracketed(const mc::DelayBounds& b, double late, double early) {
  ASSERT_LE(b.late_lo, late);
  ASSERT_LE(late, b.late_hi);
  ASSERT_LE(b.early_lo, early);
  ASSERT_LE(early, b.early_hi);
}

TEST(DelayBracketTest, BracketsEveryArcOfAMillionDraws) {
  const ssta::SeqGraph g = bracket_graph();
  ASSERT_EQ(g.arcs.size(), 100u);
  const mc::Sampler sampler(g, 99);
  std::uint64_t pairs = 0, late_clamped = 0, early_clamped = 0;
  for (std::uint64_t k = 0; k < 10240; ++k) {
    const mc::Globals z = sampler.globals(k);
    for (std::size_t e = 0; e < g.arcs.size(); ++e) {
      double late = 0.0, early = 0.0;
      sampler.arc_delays(k, e, z, late, early);
      const mc::DelayBounds b = sampler.arc_bounds(k, e, z);
      SCOPED_TRACE("k=" + std::to_string(k) + " e=" + std::to_string(e));
      expect_bracketed(b, late, early);
      ++pairs;
      late_clamped += late == 0.0 ? 1 : 0;
      early_clamped += early == late ? 1 : 0;
    }
  }
  EXPECT_GE(pairs, 1000000u);
  EXPECT_GT(late_clamped, 1000u);
  EXPECT_GT(early_clamped, 1000u);
}

TEST(DelayBracketTest, ZeroAndNegativeLocalSensitivities) {
  const ssta::SeqGraph g = bracket_graph();
  util::SplitMix64 rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const mc::Globals z = {rng.next_normal(), rng.next_normal(),
                           rng.next_normal()};
    const std::uint64_t h1 = trial == 0 ? 0 : rng.next_u64() >> (trial % 64);
    const double r = CounterRng::normal_radius_of(h1);
    const std::uint64_t h2 = rng.next_u64();
    const double zloc = CounterRng::normal_of(h1, h2);
    for (const ssta::SeqArc& arc : g.arcs) {
      double late = 0.0, early = 0.0;
      mc::realise_arc(arc, z, zloc, late, early);
      const mc::DelayBounds b = mc::bracket_arc(arc, z, r);
      expect_bracketed(b, late, early);
      // The ends of the bracket are draws themselves.
      mc::realise_arc(arc, z, r, late, early);
      EXPECT_TRUE(late == b.late_lo || late == b.late_hi);
      if (arc.dmax.aloc == 0.0) {
        EXPECT_EQ(b.late_lo, b.late_hi);
      }
    }
  }
}

TEST(ChipViewTest, BoundsAndDelaysMatchTheSampler) {
  const ssta::SeqGraph g = bracket_graph();
  const mc::Sampler sampler(g, 5);
  mc::ChipScratch scratch;
  for (std::uint64_t k = 0; k < 50; ++k) {
    const mc::ChipView chip = scratch.open(sampler, k);
    const mc::Globals z = sampler.globals(k);
    for (std::size_t e = 0; e < g.arcs.size(); e += 2) {
      const mc::DelayBounds b = chip.bounds(e);
      const mc::DelayBounds want = sampler.arc_bounds(k, e, z);
      EXPECT_EQ(b.late_lo, want.late_lo);
      EXPECT_EQ(b.late_hi, want.late_hi);
      EXPECT_EQ(b.early_lo, want.early_lo);
      EXPECT_EQ(b.early_hi, want.early_hi);
    }
    for (std::size_t e = 0; e < g.arcs.size(); e += 3) {
      double late = 0.0, early = 0.0, want_late = 0.0, want_early = 0.0;
      chip.delays(e, late, early);
      sampler.arc_delays(k, e, z, want_late, want_early);
      EXPECT_EQ(late, want_late);
      EXPECT_EQ(early, want_early);
      // Once drawn, an arc's bracket is its exact delays.
      const mc::DelayBounds b = chip.bounds(e);
      EXPECT_EQ(b.late_lo, late);
      EXPECT_EQ(b.late_hi, late);
      EXPECT_EQ(b.early_lo, early);
      EXPECT_EQ(b.early_hi, early);
    }
  }
}

// ------------------------------------------- full-draw reference layers

/// Period MC drawing every arc of every chip, merged over the fold's chunks.
mc::PeriodStats full_draw_period_mc(const mc::Sampler& sampler, std::size_t n,
                                    std::size_t threads) {
  const ssta::SeqGraph& g = sampler.graph();
  const std::size_t workers = std::min(threads, std::max<std::size_t>(n, 1));
  const std::size_t chunk = (n + workers - 1) / workers;
  mc::PeriodStats total;
  mc::ArcSample chip;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    util::OnlineStats part;
    for (std::size_t k = begin; k < std::min(n, begin + chunk); ++k) {
      sampler.evaluate(k, chip);
      double period = 0.0;
      bool hold_fails = false;
      for (std::size_t e = 0; e < g.arcs.size(); ++e) {
        const auto i = static_cast<std::size_t>(g.arcs[e].src_ff);
        const auto j = static_cast<std::size_t>(g.arcs[e].dst_ff);
        period = std::max(period, chip.dmax[e] + g.setup_ps[j] +
                                      g.skew_ps[i] - g.skew_ps[j]);
        hold_fails = hold_fails || chip.dmin[e] - g.hold_ps[j] -
                                           g.skew_ps[j] + g.skew_ps[i] <
                                       0.0;
      }
      part.add(period);
      total.hold_failures += hold_fails ? 1 : 0;
      ++total.samples;
    }
    total.period.merge(part);
  }
  return total;
}

/// Feasibility of a fully drawn chip under `plan`, built from scratch as a
/// general difference system: one variable per group plus a reference.
bool full_draw_feasible(const ssta::SeqGraph& g, const feas::TuningPlan& plan,
                        double period, const mc::ArcSample& chip,
                        feas::DiffConstraints& sys) {
  const int ref = plan.num_groups;
  std::vector<int> var(static_cast<std::size_t>(g.num_ffs), ref);
  for (std::size_t b = 0; b < plan.buffers.size(); ++b)
    var[static_cast<std::size_t>(plan.buffers[b].ff)] = plan.group_of[b];
  sys.reset(ref + 1);
  for (int grp = 0; grp < plan.num_groups; ++grp) {
    const feas::BufferWindow w = plan.group_window(grp);
    sys.add(grp, ref, w.k_hi);
    sys.add(ref, grp, -w.k_lo);
  }
  for (std::size_t e = 0; e < g.arcs.size(); ++e) {
    double setup_c = 0.0, hold_c = 0.0;
    mc::arc_slack(g, e, chip.dmax[e], chip.dmin[e], period, setup_c, hold_c);
    const int ui = var[static_cast<std::size_t>(g.arcs[e].src_ff)];
    const int uj = var[static_cast<std::size_t>(g.arcs[e].dst_ff)];
    if (ui == uj) {
      if (setup_c < 0.0 || hold_c < 0.0) return false;
      continue;
    }
    sys.add(ui, uj, mc::floor_steps(setup_c, plan.step_ps));
    sys.add(uj, ui, mc::floor_steps(hold_c, plan.step_ps));
  }
  return sys.feasible();
}

struct PaperCircuit {
  std::string name;
  netlist::Design design;
  ssta::SeqGraph graph;
};

const std::vector<PaperCircuit>& paper_circuits() {
  static const std::vector<PaperCircuit> circuits = [] {
    std::vector<PaperCircuit> out;
    for (const char* name : {"s9234", "s13207", "s15850", "s38584"}) {
      PaperCircuit c;
      c.name = name;
      c.design = netlist::generate(*netlist::paper_circuit_spec(name));
      c.graph = ssta::extract_seq_graph(c.design);
      out.push_back(std::move(c));
    }
    return out;
  }();
  return circuits;
}

/// Chips per oracle pass: the full-draw references are the slow side.
constexpr std::size_t kChips = 1000;

TEST(ScreenOracleTest, PeriodMcIsBitIdenticalToFullDraws) {
  for (const PaperCircuit& c : paper_circuits()) {
    const mc::Sampler sampler(c.graph, 20160314);
    for (const std::size_t threads : {1u, 3u}) {
      SCOPED_TRACE(c.name + " threads=" + std::to_string(threads));
      const mc::PeriodStats want =
          full_draw_period_mc(sampler, kChips, threads);
      const mc::PeriodStats got =
          mc::sample_min_period(sampler, kChips, static_cast<int>(threads));
      EXPECT_EQ(got.samples, want.samples);
      EXPECT_EQ(got.hold_failures, want.hold_failures);
      EXPECT_EQ(got.mu(), want.mu());
      EXPECT_EQ(got.sigma(), want.sigma());
      EXPECT_EQ(got.period.min(), want.period.min());
      EXPECT_EQ(got.period.max(), want.period.max());
    }
  }
}

/// The paper's muT and muT + 2 sigmaT of a circuit.
std::vector<double> paper_periods(const mc::Sampler& sampler) {
  const mc::PeriodStats ps = mc::sample_min_period(sampler, kChips);
  return {ps.mu(), ps.mu() + 2.0 * ps.sigma()};
}

TEST(ScreenOracleTest, YieldReportMatchesFullDraws) {
  std::uint64_t rescued = 0;
  for (const PaperCircuit& c : paper_circuits()) {
    const mc::Sampler insertion(c.graph, 20160314);
    const double step = netlist::nominal_min_period(c.design) / 8.0 / 20.0;
    for (const double period : paper_periods(insertion)) {
      // The top-K flip-flops and their neighbours, the first three sharing
      // one group.
      feas::TuningPlan plan = core::top_k_criticality_plan(
          c.graph, insertion, period, kChips, 12, 20, step);
      ASSERT_GE(plan.buffers.size(), 1u) << c.name;
      for (std::size_t b = 0; b < plan.buffers.size() && b < 12; ++b)
        for (const int e : c.graph.arcs_of_ff[static_cast<std::size_t>(
                 plan.buffers[b].ff)]) {
          const ssta::SeqArc& arc = c.graph.arcs[static_cast<std::size_t>(e)];
          for (const int ff : {arc.src_ff, arc.dst_ff})
            if (plan.buffers.size() < 12 &&
                std::none_of(plan.buffers.begin(), plan.buffers.end(),
                             [&](const feas::BufferWindow& w) {
                               return w.ff == ff;
                             }))
              plan.buffers.push_back(feas::BufferWindow{ff, -6, 10});
        }
      ASSERT_GE(plan.buffers.size(), 4u) << c.name;
      plan.group_of.resize(plan.buffers.size());
      for (std::size_t b = 0; b < plan.buffers.size(); ++b)
        plan.group_of[b] = b < 3 ? 0 : static_cast<int>(b) - 2;
      plan.num_groups = static_cast<int>(plan.buffers.size()) - 2;

      const std::uint64_t seed = 0xE7A1;
      const mc::Sampler eval(c.graph, seed);
      const feas::TuningPlan none = feas::empty_plan();
      feas::DiffConstraints sys;
      mc::ArcSample chip;
      std::uint64_t original = 0, tuned = 0;
      for (std::size_t k = 0; k < kChips; ++k) {
        eval.evaluate(k, chip);
        original += full_draw_feasible(c.graph, none, period, chip, sys);
        tuned += full_draw_feasible(c.graph, plan, period, chip, sys);
      }
      SCOPED_TRACE(c.name + " T=" + std::to_string(period));
      ASSERT_GE(tuned, original);
      rescued += tuned - original;
      for (const int threads : {1, 2}) {
        const feas::YieldReport report = feas::evaluate_yield_report(
            c.graph, plan, period, seed, kChips, threads);
        EXPECT_EQ(report.original.passing, original);
        EXPECT_EQ(report.tuned.passing, tuned);
      }
    }
  }
  EXPECT_GT(rescued, 0u);  // the plans' edge arcs are exercised
}

/// Arcs with a negative constant among a fully drawn chip's quantized
/// constants, ascending.
std::vector<int> full_draw_violated(const mc::ArcConstants& c) {
  std::vector<int> out;
  for (std::size_t e = 0; e < c.setup_steps.size(); ++e)
    if (c.setup_steps[e] < 0 || c.hold_steps[e] < 0)
      out.push_back(static_cast<int>(e));
  return out;
}

TEST(ScreenOracleTest, ViolatedArcsMatchFullDraws) {
  for (const PaperCircuit& c : paper_circuits()) {
    const mc::Sampler sampler(c.graph, 20160314);
    const double step = netlist::nominal_min_period(c.design) / 8.0 / 20.0;
    for (const double period : paper_periods(sampler)) {
      SCOPED_TRACE(c.name + " T=" + std::to_string(period));
      mc::ArcSample drawn;
      mc::ArcConstants quantized;
      mc::ChipScratch scratch;
      std::vector<int> got;
      std::uint64_t violating = 0, several = 0;
      for (std::size_t k = 0; k < kChips; ++k) {
        sampler.evaluate(k, drawn);
        mc::quantize_arc_constants(c.graph, drawn, period, step, quantized);
        const std::vector<int> want = full_draw_violated(quantized);
        mc::violated_arcs(c.graph, scratch.open(sampler, k), period, step,
                          got);
        ASSERT_EQ(got, want) << "chip " << k;
        violating += want.empty() ? 0 : 1;
        several += want.size() > 1 ? 1 : 0;
      }
      EXPECT_GT(violating, 0u);
      EXPECT_LT(violating, kChips);
      if (period == paper_periods(sampler).front()) {
        EXPECT_GT(several, 0u);  // the scan goes on past the first
      }
    }
  }
}

void expect_same_solution(const core::SampleSolution& got,
                          const core::SampleSolution& want) {
  EXPECT_EQ(got.fixable, want.fixable);
  EXPECT_EQ(got.nk, want.nk);
  EXPECT_EQ(got.tunings, want.tunings);
  EXPECT_EQ(got.mincount_tunings, want.mincount_tunings);
  EXPECT_EQ(got.milps_solved, want.milps_solved);
  EXPECT_EQ(got.milp_nodes, want.milp_nodes);
  EXPECT_EQ(got.lazy_rounds, want.lazy_rounds);
  EXPECT_EQ(got.truncated, want.truncated);
}

TEST(LazySolveTest, MatchesDenseSampleOnEveryViolatingChip) {
  const std::vector<core::ConcentrateMode> modes = {
      core::ConcentrateMode::none, core::ConcentrateMode::toward_zero,
      core::ConcentrateMode::toward_target};
  std::uint64_t solved = 0, rescued = 0, unfixable = 0, milps = 0;
  for (const PaperCircuit& c : paper_circuits()) {
    const mc::Sampler sampler(c.graph, 20160314);
    const double step = netlist::nominal_min_period(c.design) / 8.0 / 20.0;
    const auto ns = static_cast<std::size_t>(c.graph.num_ffs);
    // Floating windows as in step 1, and fixed ones as in step 2: every
    // third flip-flop a candidate with an off-centre window, so that some
    // chips cannot be rescued.
    core::CandidateWindows fixed = core::CandidateWindows::none(c.graph.num_ffs);
    std::vector<double> targets(ns, 0.0);
    for (std::size_t f = 0; f < ns; ++f) {
      targets[f] = static_cast<double>(f % 9) - 4.0;
      if (f % 3 != 0) continue;
      fixed.candidate[f] = 1;
      fixed.k_lo[f] = -6;
      fixed.k_hi[f] = 14;
    }
    for (const double period : paper_periods(sampler)) {
      const std::vector<core::SampleSolver> solvers = {
          core::SampleSolver(
              c.graph, step, period,
              core::CandidateWindows::floating(c.graph.num_ffs, 20)),
          core::SampleSolver(c.graph, step, period, fixed)};
      mc::ArcSample drawn;
      mc::ChipScratch scratch;
      core::SolveWorkspace ws;
      std::vector<int> violated;
      core::SampleSolution lazy;
      for (std::size_t k = 0; k < kChips; ++k) {
        const mc::ChipView scanned = scratch.open(sampler, k);
        mc::violated_arcs(c.graph, scanned, period, step, violated);
        if (violated.empty()) continue;
        sampler.evaluate(k, drawn);
        bool first = true;
        for (const core::SampleSolver& solver : solvers)
          for (const core::ConcentrateMode mode : modes) {
            // The first solve reads through the view the scan drew, as
            // step 1 does; the rest reopen the chip, as steps 2a/2b do.
            const mc::ChipView chip =
                first ? scanned : scratch.open(sampler, k);
            first = false;
            SCOPED_TRACE(c.name + " T=" + std::to_string(period) +
                         " chip " + std::to_string(k) + " mode " +
                         std::to_string(static_cast<int>(mode)));
            solver.solve({chip, violated}, mode, &targets, ws, lazy);
            expect_same_solution(lazy, solver.solve(drawn, mode, &targets));
            ++solved;
            rescued += lazy.fixable && lazy.nk > 0 ? 1 : 0;
            unfixable += lazy.fixable ? 0 : 1;
            milps += static_cast<std::uint64_t>(lazy.milps_solved);
          }
      }
    }
  }
  EXPECT_GT(rescued, 0u);
  EXPECT_GT(unfixable, 0u);
  EXPECT_GT(milps, 0u);
  EXPECT_GT(solved, 1000u);
}

TEST(ScreenOracleTest, FailingIncidenceMatchesFullDraws) {
  const PaperCircuit& c = paper_circuits().front();
  const mc::Sampler sampler(c.graph, 20160314);
  for (const double period : paper_periods(sampler)) {
    std::vector<std::uint64_t> want(static_cast<std::size_t>(c.graph.num_ffs),
                                    0);
    mc::ArcSample chip;
    for (std::size_t k = 0; k < kChips; ++k) {
      sampler.evaluate(k, chip);
      for (std::size_t e = 0; e < c.graph.arcs.size(); ++e) {
        double setup_c = 0.0, hold_c = 0.0;
        mc::arc_slack(c.graph, e, chip.dmax[e], chip.dmin[e], period, setup_c,
                      hold_c);
        if (setup_c >= 0.0) continue;
        const ssta::SeqArc& arc = c.graph.arcs[e];
        ++want[static_cast<std::size_t>(arc.src_ff)];
        if (arc.src_ff != arc.dst_ff)
          ++want[static_cast<std::size_t>(arc.dst_ff)];
      }
    }
    EXPECT_EQ(core::criticality_incidence(c.graph, sampler, period, kChips, 2),
              want);
  }
}

}  // namespace
}  // namespace clktune
