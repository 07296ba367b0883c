// Tests for the zero-allocation sample kernel: DiffConstraints workspace
// semantics, the shared quantizer and its lazy per-arc form, and
// steady-state allocation counts in the Monte-Carlo inner loops.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/sample_solver.h"
#include "feas/diff_constraints.h"
#include "feas/yield_eval.h"
#include "mc/arc_constants.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "netlist/nominal_sta.h"
#include "ssta/seq_graph.h"
#include "util/alloc_counter.h"

namespace clktune {
namespace {

using feas::DiffConstraints;

// ----------------------- DiffConstraints workspace -------------------------

void build_feasible_chain(DiffConstraints& sys) {
  sys.reset(4);
  sys.add(1, 0, 5);    // x1 - x0 <= 5
  sys.add(2, 1, -2);   // x2 - x1 <= -2
  sys.add(3, 2, 7);    // x3 - x2 <= 7
  sys.add(0, 3, 10);   // x0 - x3 <= 10
}

void build_negative_cycle(DiffConstraints& sys) {
  sys.reset(3);
  sys.add(1, 0, 3);
  sys.add(2, 1, -2);
  sys.add(0, 2, -4);  // cycle weight -3
}

TEST(DiffConstraintsWorkspaceTest, DirtyWorkspaceMatchesFreshObject) {
  DiffConstraints fresh;
  build_feasible_chain(fresh);
  const auto expected = fresh.solve();
  ASSERT_TRUE(expected.has_value());

  // Same system rebuilt on a workspace dirtied by a different system.
  DiffConstraints dirty;
  build_negative_cycle(dirty);
  EXPECT_FALSE(dirty.feasible());
  build_feasible_chain(dirty);
  const auto sol = dirty.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(*sol, *expected);
}

TEST(DiffConstraintsWorkspaceTest, SameSystemSolvedTwiceIsIdentical) {
  DiffConstraints sys;
  build_feasible_chain(sys);
  const auto first = sys.solve();
  const auto second = sys.solve();  // scratch is dirty from the first solve
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);

  build_negative_cycle(sys);
  EXPECT_FALSE(sys.feasible());
  EXPECT_FALSE(sys.feasible());  // and infeasibility is stable too
}

TEST(DiffConstraintsWorkspaceTest, EpochResetAfterNegativeCycleBailout) {
  DiffConstraints sys;
  build_negative_cycle(sys);
  EXPECT_FALSE(sys.feasible());

  // Shrinking reset after a bailout: stale adjacency from the 3-node system
  // must not leak into the new 2-node system.
  sys.reset(2);
  const auto unconstrained = sys.solve();
  ASSERT_TRUE(unconstrained.has_value());
  EXPECT_EQ(unconstrained->size(), 2u);
  EXPECT_EQ((*unconstrained)[0], 0);
  EXPECT_EQ((*unconstrained)[1], 0);

  sys.add(1, 0, -3);  // x1 - x0 <= -3
  const auto sol = sys.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_LE((*sol)[1] - (*sol)[0], -3);
}

TEST(DiffConstraintsWorkspaceTest, GrowingResetAfterBailout) {
  DiffConstraints sys;
  build_negative_cycle(sys);
  EXPECT_FALSE(sys.feasible());
  build_feasible_chain(sys);  // grows to 4 nodes
  EXPECT_TRUE(sys.feasible());
}

// --------------------------- shared quantizer ------------------------------

TEST(ArcConstantsTest, FloorStepsMatchesLegacyFormula) {
  const double step = 3.0;
  for (double v : {48.0, 29.5, -0.5, -3.0, -2.9999999999, 0.0, 1e-12}) {
    const auto legacy =
        static_cast<std::int64_t>(std::floor(v / step + 1e-9));
    EXPECT_EQ(mc::floor_steps(v, step), legacy) << v;
  }
}

struct KernelFixture {
  netlist::Design design;
  ssta::SeqGraph graph;
  double t0 = 0.0;

  explicit KernelFixture(int ns = 60, int ng = 400,
                         std::uint64_t seed = 1234) {
    netlist::SyntheticSpec spec;
    spec.num_flipflops = ns;
    spec.num_gates = ng;
    spec.seed = seed;
    design = netlist::generate(spec);
    graph = ssta::extract_seq_graph(design);
    t0 = netlist::nominal_min_period(design);
  }
};

TEST(ArcConstantsTest, LazyConstantsMatchEvaluateThenQuantize) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 99);
  const double step = fx.t0 / 160.0;

  mc::ArcSample sample;
  mc::ArcConstants quantized;
  mc::ChipScratch scratch;
  for (std::uint64_t k = 0; k < 16; ++k) {
    sampler.evaluate(k, sample);
    mc::quantize_arc_constants(fx.graph, sample, fx.t0, step, quantized);
    const mc::ChipView chip = scratch.open(sampler, k);
    // Every other arc bounded first: a bracketed arc must still read its
    // exact draw.
    for (std::size_t e = 0; e < fx.graph.arcs.size(); e += 2) chip.bounds(e);
    for (std::size_t e = 0; e < fx.graph.arcs.size(); ++e) {
      std::int32_t setup = 0, hold = 0;
      mc::arc_constants(fx.graph, chip, e, fx.t0, step, setup, hold);
      ASSERT_EQ(setup, quantized.setup_steps[e]) << "sample " << k;
      ASSERT_EQ(hold, quantized.hold_steps[e]) << "sample " << k;
    }
  }
}

TEST(ArcConstantsTest, SolverArcConstantsUseSharedQuantizer) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 7);
  const double step = fx.t0 / 160.0;
  const core::SampleSolver solver(
      fx.graph, step, fx.t0,
      core::CandidateWindows::floating(fx.graph.num_ffs, 20));

  mc::ArcSample sample;
  sampler.evaluate(3, sample);
  std::vector<std::int64_t> setup64, hold64;
  solver.arc_constants(sample, setup64, hold64);
  mc::ArcConstants c;
  mc::quantize_arc_constants(fx.graph, sample, fx.t0, step, c);
  ASSERT_EQ(setup64.size(), c.setup_steps.size());
  for (std::size_t e = 0; e < setup64.size(); ++e) {
    EXPECT_EQ(setup64[e], c.setup_steps[e]);
    EXPECT_EQ(hold64[e], c.hold_steps[e]);
  }
}

// ----------------------- zero-allocation guarantees ------------------------

TEST(ZeroAllocTest, DiffConstraintsSteadyStateDoesNotAllocate) {
  DiffConstraints sys;
  // Warm-up establishes the high-water capacity.
  build_feasible_chain(sys);
  ASSERT_TRUE(sys.feasible());
  build_negative_cycle(sys);
  ASSERT_FALSE(sys.feasible());

  util::AllocCounterScope scope;
  bool all_consistent = true;
  for (int i = 0; i < 100; ++i) {
    build_feasible_chain(sys);
    all_consistent = all_consistent && sys.solve_inplace() != nullptr;
    build_negative_cycle(sys);
    all_consistent = all_consistent && sys.solve_inplace() == nullptr;
  }
  const std::uint64_t allocs = scope.delta();
  EXPECT_TRUE(all_consistent);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, YieldCheckSteadyStateDoesNotAllocate) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 321);
  const double t = fx.t0;
  feas::TuningPlan plan;
  plan.step_ps = t / 160.0;
  for (int f = 0; f < fx.graph.num_ffs; f += 10)
    plan.buffers.push_back(feas::BufferWindow{f, -10, 10});
  plan.reset_groups();
  const feas::YieldEvaluator eval(fx.graph, plan, t);

  mc::ChipScratch scratch;
  std::uint64_t passing = 0;
  for (std::uint64_t k = 0; k < 16; ++k)  // warm the per-thread workspace
    passing += eval.sample_feasible(scratch.open(sampler, k)) ? 1 : 0;

  util::AllocCounterScope scope;
  for (std::uint64_t k = 16; k < 216; ++k)
    passing += eval.sample_feasible(scratch.open(sampler, k)) ? 1 : 0;
  const std::uint64_t allocs = scope.delta();
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(passing, 0u);  // keep the loop observable
}

TEST(ZeroAllocTest, ScanAndLazySolveDoNotAllocate) {
  const KernelFixture fx;
  // At the nominal period most chips violate some arc; many of those are
  // rescued by the single-buffer closed form or the greedy oracle, and the
  // rest pass untouched or need a MILP.
  const double t = fx.t0;
  const double step = fx.t0 / 160.0;
  const core::SampleSolver solver(
      fx.graph, step, t,
      core::CandidateWindows::floating(fx.graph.num_ffs, 20));
  const mc::Sampler sampler(fx.graph, 777);
  const std::uint64_t n = 200;

  mc::ChipScratch scratch;
  core::SolveWorkspace ws;
  std::vector<int> violated;
  core::SampleSolution sol;
  const auto scan_and_solve = [&](std::uint64_t k) {
    const mc::ChipView chip = scratch.open(sampler, k);
    mc::violated_arcs(fx.graph, chip, t, step, violated);
    solver.solve({chip, violated}, core::ConcentrateMode::toward_zero,
                 nullptr, ws, sol);
  };

  // Warm-up over every chip sizes the scratch; keep those that pass
  // untouched or are rescued without a MILP.
  std::vector<std::uint64_t> steady;
  std::uint64_t rescued = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    scan_and_solve(k);
    if (!sol.fixable || sol.milps_solved > 0) continue;
    steady.push_back(k);
    rescued += sol.nk > 0 ? 1 : 0;
  }
  ASSERT_GT(rescued, 10u) << "fixture must rescue chips without a MILP";
  ASSERT_LT(rescued, steady.size()) << "fixture must have passing chips";

  util::AllocCounterScope scope;
  std::uint64_t rescued_again = 0;
  for (const std::uint64_t k : steady) {
    scan_and_solve(k);
    rescued_again += sol.nk > 0 ? 1 : 0;
  }
  const std::uint64_t allocs = scope.delta();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(rescued_again, rescued);
}

}  // namespace
}  // namespace clktune
