// Tests for the zero-allocation sample kernel and cross-pass constant
// reuse: DiffConstraints workspace semantics, the shared quantizer, the
// engine's sample-constant cache budget, and steady-state allocation
// counts in the Monte-Carlo inner loops.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/engine.h"
#include "core/report_json.h"
#include "core/sample_solver.h"
#include "feas/diff_constraints.h"
#include "feas/yield_eval.h"
#include "mc/arc_constants.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "netlist/nominal_sta.h"
#include "ssta/seq_graph.h"
#include "util/alloc_counter.h"
#include "util/thread_pool.h"

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

TEST(ArcConstantsTest, FusedKernelMatchesEvaluateThenQuantize) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 99);
  const double step = fx.t0 / 160.0;

  mc::ArcSample sample;
  mc::ArcConstants quantized, fused;
  fused.resize(fx.graph.arcs.size());
  for (std::uint64_t k = 0; k < 16; ++k) {
    sampler.evaluate(k, sample);
    mc::quantize_arc_constants(fx.graph, sample, fx.t0, step, quantized);
    sampler.evaluate_constants(k, fx.t0, step, fused.setup_steps.data(),
                               fused.hold_steps.data());
    ASSERT_EQ(quantized.setup_steps, fused.setup_steps) << "sample " << k;
    ASSERT_EQ(quantized.hold_steps, fused.hold_steps) << "sample " << k;
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

TEST(ArcConstantsTest, ConstantCacheStreamingMatchesCached) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 42);
  const double step = fx.t0 / 160.0;
  const std::uint64_t n = 8;

  mc::SampleConstantCache cached(sampler, fx.t0, step, n, 1ull << 30);
  mc::SampleConstantCache streaming(sampler, fx.t0, step, n, 0);
  ASSERT_TRUE(cached.caching());
  ASSERT_FALSE(streaming.caching());

  mc::ArcConstants scratch_a, scratch_b, fused;
  fused.resize(fx.graph.arcs.size());
  std::uint64_t violating = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::optional<mc::ArcConstantsView> a = cached.fill(k, scratch_a);
    const std::optional<mc::ArcConstantsView> b = streaming.fill(k, scratch_b);
    // The screen keeps exactly the samples whose fused constants violate,
    // and a kept sample carries the fused constants.
    sampler.evaluate_constants(k, fx.t0, step, fused.setup_steps.data(),
                               fused.hold_steps.data());
    ASSERT_EQ(a.has_value(), mc::has_violation(mc::view_of(fused)));
    ASSERT_EQ(b.has_value(), a.has_value());
    EXPECT_EQ(cached.violating(k), a.has_value());
    EXPECT_EQ(streaming.violating(k), a.has_value());
    if (!a) continue;
    ++violating;
    ASSERT_EQ(a->num_arcs, fused.setup_steps.size());
    ASSERT_EQ(b->num_arcs, fused.setup_steps.size());
    for (std::size_t e = 0; e < a->num_arcs; ++e) {
      ASSERT_EQ(a->setup_steps[e], fused.setup_steps[e]);
      ASSERT_EQ(a->hold_steps[e], fused.hold_steps[e]);
      ASSERT_EQ(b->setup_steps[e], fused.setup_steps[e]);
      ASSERT_EQ(b->hold_steps[e], fused.hold_steps[e]);
    }
  }
  // Only violating samples are stored, each as one slice.
  EXPECT_GT(violating, 0u);
  EXPECT_EQ(cached.bytes(),
            violating * mc::SampleConstantCache::slice_bytes(fx.graph.arcs.size()));
  EXPECT_EQ(streaming.bytes(), 0u);
  // get() after fill: cached lookups reproduce the stored values.
  for (std::uint64_t k = 0; k < n; ++k) {
    const mc::ArcConstantsView a = cached.get(k, scratch_a);
    const mc::ArcConstantsView b = streaming.get(k, scratch_b);
    for (std::size_t e = 0; e < a.num_arcs; ++e)
      ASSERT_EQ(a.setup_steps[e], b.setup_steps[e]);
  }
}

TEST(ArcConstantsTest, ConstantsOutsideInt16AreStreamedNotStored) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 42);
  // A step this fine makes every constant a step count far past int16.
  const double step = 1e-4;
  const std::uint64_t n = 8;
  mc::SampleConstantCache cache(sampler, fx.t0, step, n, 1ull << 30);
  mc::ArcConstants scratch, fused;
  fused.resize(fx.graph.arcs.size());
  std::uint64_t violating = 0;
  for (std::uint64_t k = 0; k < n; ++k)
    violating += cache.fill(k, scratch).has_value() ? 1 : 0;
  ASSERT_GT(violating, 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  for (std::uint64_t k = 0; k < n; ++k) {
    if (!cache.violating(k)) continue;
    const mc::ArcConstantsView got = cache.get(k, scratch);
    sampler.evaluate_constants(k, fx.t0, step, fused.setup_steps.data(),
                               fused.hold_steps.data());
    for (std::size_t e = 0; e < got.num_arcs; ++e) {
      ASSERT_EQ(got.setup_steps[e], fused.setup_steps[e]);
      ASSERT_EQ(got.hold_steps[e], fused.hold_steps[e]);
    }
  }
}

// ------------------------ engine cache budget ------------------------------

TEST(EngineSampleCacheTest, ToggleAndBudgetProduceIdenticalResults) {
  const KernelFixture fx(80, 600, 4242);
  const double t = netlist::nominal_min_period(fx.design) * 1.1;

  core::InsertionConfig cfg;
  cfg.num_samples = 200;

  core::BufferInsertionEngine cached(fx.design, fx.graph, t, cfg);
  const std::string with_cache =
      core::insertion_result_json(cached.run()).dump();

  cfg.sample_cache_max_bytes = 0;  // stores nothing
  core::BufferInsertionEngine uncached(fx.design, fx.graph, t, cfg);
  const std::string without_cache =
      core::insertion_result_json(uncached.run()).dump();

  cfg.sample_cache_max_bytes = 64;  // forces streaming mode
  core::BufferInsertionEngine streaming(fx.design, fx.graph, t, cfg);
  const core::InsertionResult streamed = streaming.run();
  const std::string with_streaming =
      core::insertion_result_json(streamed).dump();

  // A budget holding only half of the violating samples: the engine stores
  // what fits and recomputes the rest.  Fill a cache of the engine's shape
  // the way step 1 does (concurrently) to check what the budget stores.
  const mc::Sampler sampler(fx.graph, cfg.sample_seed);
  const std::uint64_t slice =
      mc::SampleConstantCache::slice_bytes(fx.graph.arcs.size());
  std::uint64_t violating = 0;
  {
    mc::SampleConstantCache probe(sampler, t, streamed.step_ps,
                                  cfg.num_samples, 1ull << 30);
    mc::ArcConstants scratch;
    for (std::uint64_t k = 0; k < cfg.num_samples; ++k) {
      probe.fill(k, scratch);
      violating += probe.violating(k) ? 1 : 0;
    }
    EXPECT_EQ(probe.bytes(), violating * slice);
  }
  ASSERT_GE(violating, 2u);
  ASSERT_LT(violating, cfg.num_samples) << "fixture needs passing samples";
  const std::uint64_t partial_budget = (violating / 2) * slice + slice / 2;
  {
    mc::SampleConstantCache partial(sampler, t, streamed.step_ps,
                                    cfg.num_samples, partial_budget);
    util::parallel_pull(cfg.num_samples, 4, [&](std::size_t, std::size_t k) {
      thread_local mc::ArcConstants scratch;
      partial.fill(k, scratch);
    });
    EXPECT_EQ(partial.bytes(), (violating / 2) * slice);
    EXPECT_LE(partial.bytes(), partial_budget);
  }
  cfg.sample_cache_max_bytes = partial_budget;
  core::BufferInsertionEngine part(fx.design, fx.graph, t, cfg);
  const std::string with_partial =
      core::insertion_result_json(part.run()).dump();

  // Identical JSON covers plan geometry, per-buffer stats, histograms and
  // the per-phase MILP counters — steps 1/2a/2b behave identically.
  EXPECT_EQ(with_cache, without_cache);
  EXPECT_EQ(with_cache, with_streaming);
  EXPECT_EQ(with_cache, with_partial);
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

TEST(ZeroAllocTest, ScreenedConstantFillDoesNotAllocate) {
  const KernelFixture fx;
  const mc::Sampler sampler(fx.graph, 654);
  const double step = fx.t0 / 160.0;
  const std::uint64_t n = 200;
  // Stored and streamed constants: the screen, the fused kernel and the
  // store must all run from preallocated memory.
  for (const std::uint64_t budget : {1ull << 30, 0ull}) {
    mc::SampleConstantCache cache(sampler, fx.t0, step, n, budget);
    mc::ArcConstants scratch;
    std::uint64_t kept = 0;
    for (std::uint64_t k = 0; k < 16; ++k)  // warm the scratch
      kept += cache.fill(k, scratch).has_value() ? 1 : 0;

    util::AllocCounterScope scope;
    for (std::uint64_t k = 16; k < n; ++k)
      kept += cache.fill(k, scratch).has_value() ? 1 : 0;
    const std::uint64_t allocs = scope.delta();
    EXPECT_EQ(allocs, 0u) << "budget " << budget;
    EXPECT_GT(kept, 0u);  // both outcomes of the screen are exercised
    EXPECT_LT(kept, n);
  }
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

TEST(ZeroAllocTest, SolverPassingSamplesSteadyStateDoesNotAllocate) {
  const KernelFixture fx;
  // Generous clock: every sample meets timing, exercising the seed-scan
  // fast path the insertion flow takes for passing chips.
  const double t = fx.t0 * 2.0;
  const double step = fx.t0 / 160.0;
  const core::SampleSolver solver(
      fx.graph, step, t,
      core::CandidateWindows::floating(fx.graph.num_ffs, 20));
  const mc::Sampler sampler(fx.graph, 777);
  const std::uint64_t n = 128;
  const auto constants = [&](std::uint64_t k, mc::ArcConstants& c) {
    sampler.evaluate_constants(k, t, step, c.setup_steps.data(),
                               c.hold_steps.data());
    return mc::view_of(c);
  };

  core::SolveWorkspace ws;
  mc::ArcConstants scratch;
  scratch.resize(fx.graph.arcs.size());
  // Warm-up: first sample sizes the workspace.
  int nk_sum = 0;
  {
    const core::SampleSolution sol =
        solver.solve(constants(0, scratch),
                     core::ConcentrateMode::toward_zero, nullptr, ws);
    ASSERT_TRUE(sol.fixable);
    ASSERT_EQ(sol.nk, 0) << "fixture must pass at 2x nominal period";
  }

  util::AllocCounterScope scope;
  for (std::uint64_t k = 1; k < n; ++k) {
    const core::SampleSolution sol =
        solver.solve(constants(k, scratch),
                     core::ConcentrateMode::toward_zero, nullptr, ws);
    nk_sum += sol.nk;
  }
  const std::uint64_t allocs = scope.delta();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(nk_sum, 0);
}

}  // namespace
}  // namespace clktune
