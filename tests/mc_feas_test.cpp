#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "feas/diff_constraints.h"
#include "feas/tuning_plan.h"
#include "feas/yield_eval.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "mc/fold.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "ssta/seq_graph.h"
#include "util/thread_pool.h"

namespace clktune {
namespace {

using feas::BufferWindow;
using feas::DiffConstraints;
using feas::TuningPlan;
using feas::YieldEvaluator;

// A small generated design shared by the MC tests.
const netlist::Design& test_design() {
  static const netlist::Design design = [] {
    netlist::SyntheticSpec spec;
    spec.num_flipflops = 120;
    spec.num_gates = 1000;
    spec.seed = 4242;
    return netlist::generate(spec);
  }();
  return design;
}

const ssta::SeqGraph& test_graph() {
  static const ssta::SeqGraph graph = ssta::extract_seq_graph(test_design());
  return graph;
}

TEST(SamplerTest, DeterministicAcrossCalls) {
  const mc::Sampler sampler(test_graph(), 9);
  mc::ArcSample a, b;
  sampler.evaluate(17, a);
  sampler.evaluate(17, b);
  EXPECT_EQ(a.dmax, b.dmax);
  EXPECT_EQ(a.dmin, b.dmin);
}

TEST(SamplerTest, SamplesDiffer) {
  const mc::Sampler sampler(test_graph(), 9);
  mc::ArcSample a, b;
  sampler.evaluate(1, a);
  sampler.evaluate(2, b);
  EXPECT_NE(a.dmax, b.dmax);
}

TEST(SamplerTest, EarlyNeverExceedsLate) {
  const mc::Sampler sampler(test_graph(), 9);
  mc::ArcSample s;
  for (std::uint64_t k = 0; k < 50; ++k) {
    sampler.evaluate(k, s);
    for (std::size_t e = 0; e < s.dmax.size(); ++e) {
      EXPECT_LE(s.dmin[e], s.dmax[e] + 1e-12);
      EXPECT_GE(s.dmin[e], 0.0);
    }
  }
}

TEST(SamplerTest, MeanDelayTracksCanonicalMu) {
  const ssta::SeqGraph& g = test_graph();
  const mc::Sampler sampler(g, 21);
  mc::ArcSample s;
  const std::size_t arc = 0;
  util::OnlineStats stats;
  for (std::uint64_t k = 0; k < 20000; ++k) {
    sampler.evaluate(k, s);
    stats.add(s.dmax[arc]);
  }
  EXPECT_NEAR(stats.mean(), g.arcs[arc].dmax.mu,
              0.05 * g.arcs[arc].dmax.mu + 3.0 * g.arcs[arc].dmax.sigma() /
                                              std::sqrt(20000.0));
  EXPECT_NEAR(stats.stddev(), g.arcs[arc].dmax.sigma(),
              0.1 * g.arcs[arc].dmax.sigma() + 0.2);
}

TEST(PeriodMcTest, MomentsStableAndHoldSafe) {
  const mc::Sampler sampler(test_graph(), 33);
  const mc::PeriodStats stats = mc::sample_min_period(sampler, 4000);
  EXPECT_EQ(stats.samples, 4000u);
  EXPECT_GT(stats.mu(), 0.0);
  EXPECT_GT(stats.sigma(), 0.0);
  EXPECT_LT(stats.sigma(), stats.mu());
  // A small rate of zero-tuning hold escapes is expected (the regional
  // variation term also widens early-path spread); they count against the
  // original yield and are repairable by tuning, but they must stay a
  // minor effect so setup failures dominate the period distribution.
  EXPECT_LT(static_cast<double>(stats.hold_failures) / 4000.0, 0.03);
}

TEST(PeriodMcTest, ThreadCountDoesNotChangeResult) {
  const mc::Sampler sampler(test_graph(), 33);
  const mc::PeriodStats seq = mc::sample_min_period(sampler, 1000, 1);
  const mc::PeriodStats par = mc::sample_min_period(sampler, 1000, 4);
  EXPECT_NEAR(seq.mu(), par.mu(), 1e-9);
  EXPECT_NEAR(seq.sigma(), par.sigma(), 1e-9);
}

// The period MC merges one OnlineStats per chunk, and the Chan merge rounds
// differently for different partitions: pin mu and sigma bitwise to a hand
// merge over util::parallel_chunks' contiguous chunks.
TEST(PeriodMcTest, MergesChunkStatsInChunkOrder) {
  const ssta::SeqGraph& g = test_graph();
  const mc::Sampler sampler(g, 33);
  const std::size_t n = 1000;
  for (const std::size_t threads : {1u, 2u, 3u}) {
    const std::size_t chunk = (n + threads - 1) / threads;
    util::OnlineStats expect;
    mc::ArcSample chip;
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      util::OnlineStats part;
      for (std::size_t k = begin; k < std::min(n, begin + chunk); ++k) {
        sampler.evaluate(k, chip);
        double period = 0.0;
        for (std::size_t e = 0; e < g.arcs.size(); ++e) {
          const auto i = static_cast<std::size_t>(g.arcs[e].src_ff);
          const auto j = static_cast<std::size_t>(g.arcs[e].dst_ff);
          period = std::max(period, chip.dmax[e] + g.setup_ps[j] +
                                        g.skew_ps[i] - g.skew_ps[j]);
        }
        part.add(period);
      }
      expect.merge(part);
    }
    const mc::PeriodStats got =
        mc::sample_min_period(sampler, n, static_cast<int>(threads));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(got.samples, n);
    EXPECT_EQ(got.mu(), expect.mean());
    EXPECT_EQ(got.sigma(), expect.stddev());
  }
}

TEST(PeriodMcTest, OriginalYieldAtDerivedPeriods) {
  // By construction of muT/sigmaT, the no-buffer yields at muT, +1s, +2s
  // are ~50 %, ~84 %, ~97.7 % (paper, Section IV).
  const mc::Sampler sampler(test_graph(), 33);
  const mc::PeriodStats stats = mc::sample_min_period(sampler, 6000);
  const struct {
    double period;
    double expect;
    double tol;
  } cases[] = {
      {stats.mu(), 0.50, 0.06},
      {stats.mu() + stats.sigma(), 0.8413, 0.05},
      {stats.mu() + 2.0 * stats.sigma(), 0.9772, 0.03},
  };
  for (const auto& c : cases) {
    const feas::YieldResult y =
        feas::evaluate_yield_report(test_graph(), feas::empty_plan(), c.period,
                                    33, 6000)
            .original;
    EXPECT_NEAR(y.yield, c.expect, c.tol) << "T=" << c.period;
  }
}

// ------------------------------ chip fold ---------------------------------

TEST(FoldChipsTest, VisitsEachChipOnceInParallelChunksOrder) {
  const mc::Sampler sampler(test_graph(), 77);
  for (const std::size_t n : {0u, 1u, 3u, 1000u}) {
    for (const std::size_t threads : {1u, 4u, 16u}) {
      // Each accumulator records the chips it saw, in visit order.
      const std::vector<std::vector<std::uint64_t>> acc = mc::fold_chips(
          sampler, n, static_cast<int>(threads), std::vector<std::uint64_t>{},
          [&](std::vector<std::uint64_t>& seen, std::uint64_t k,
              const mc::ChipView& chip) {
            EXPECT_EQ(chip.index(), k);
            mc::ArcSample fresh;
            sampler.evaluate(k, fresh);
            for (std::size_t e = 0; e < fresh.dmax.size(); ++e) {
              double late = 0.0, early = 0.0;
              chip.delays(e, late, early);
              EXPECT_EQ(late, fresh.dmax[e]);
              EXPECT_EQ(early, fresh.dmin[e]);
            }
            seen.push_back(k);
          });
      std::vector<std::vector<std::uint64_t>> chunks(threads);
      util::parallel_chunks(
          n, threads, [&](std::size_t w, std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) chunks[w].push_back(k);
          });
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(acc, chunks);
    }
  }
}

// ------------------------- difference constraints --------------------------

TEST(DiffConstraintsTest, FeasibleChainAndSolution) {
  DiffConstraints sys(3);
  sys.add(1, 0, 5);   // x1 - x0 <= 5
  sys.add(2, 1, -2);  // x2 - x1 <= -2
  const auto sol = sys.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_LE((*sol)[1] - (*sol)[0], 5);
  EXPECT_LE((*sol)[2] - (*sol)[1], -2);
}

TEST(DiffConstraintsTest, NegativeCycleInfeasible) {
  DiffConstraints sys(2);
  sys.add(1, 0, 3);
  sys.add(0, 1, -4);  // x0 - x1 <= -4 and x1 - x0 <= 3 -> cycle weight -1
  EXPECT_FALSE(sys.feasible());
}

TEST(DiffConstraintsTest, ZeroCycleFeasible) {
  DiffConstraints sys(2);
  sys.add(1, 0, 3);
  sys.add(0, 1, -3);
  EXPECT_TRUE(sys.feasible());
}

TEST(DiffConstraintsTest, AllZeroWhenUnconstrained) {
  DiffConstraints sys(4);
  sys.add(1, 0, 2);
  const auto sol = sys.solve();
  ASSERT_TRUE(sol.has_value());
  for (std::int64_t v : *sol) EXPECT_LE(v, 0);  // potentials start at 0
}

TEST(DiffConstraintsTest, RandomSystemsSelfConsistent) {
  util::SplitMix64 rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(6));
    DiffConstraints sys(n);
    struct E {
      int u, v;
      std::int64_t w;
    };
    std::vector<E> edges;
    const int m = 1 + static_cast<int>(rng.next_below(12));
    for (int e = 0; e < m; ++e) {
      const int u = static_cast<int>(rng.next_below(n));
      const int v = static_cast<int>(rng.next_below(n));
      if (u == v) continue;
      const auto w =
          static_cast<std::int64_t>(rng.next_below(17)) - 8;
      sys.add(u, v, w);
      edges.push_back({u, v, w});
    }
    const auto sol = sys.solve();
    if (sol.has_value()) {
      for (const E& e : edges)
        EXPECT_LE((*sol)[static_cast<std::size_t>(e.u)] -
                      (*sol)[static_cast<std::size_t>(e.v)],
                  e.w);
    }
  }
}

// Differential check of the SPFA kernel (with its early parent-graph cycle
// search) against two independent oracles: the in-tree simplex decides
// feasibility, and plain Bellman-Ford from the same all-zero start gives
// the distances a feasible system must end with.  Three families: systems
// built feasible from hidden potentials, the same with zero-weight cycles
// (feasible, and the strict-relaxation argument must not flag them), and
// the same with one negative cycle planted — plus unstructured random ones.
TEST(DiffConstraintsTest, AgreesWithSimplexAndBellmanFord) {
  struct E {
    int u, v;
    std::int64_t w;
  };
  util::SplitMix64 rng(20240611);
  int feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int family = trial % 4;
    const int n = 2 + static_cast<int>(rng.next_below(24));
    std::vector<std::int64_t> hidden(static_cast<std::size_t>(n));
    for (std::int64_t& p : hidden)
      p = static_cast<std::int64_t>(rng.next_below(41)) - 20;
    const auto pot = [&](int v) { return hidden[static_cast<std::size_t>(v)]; };
    std::vector<E> edges;
    const int m = n + static_cast<int>(rng.next_below(3 * n));
    for (int e = 0; e < m; ++e) {
      const int u = static_cast<int>(rng.next_below(n));
      const int v = static_cast<int>(rng.next_below(n));
      if (u == v) continue;
      const std::int64_t w =
          family == 3 ? static_cast<std::int64_t>(rng.next_below(21)) - 8
                      : pot(u) - pot(v) +
                            static_cast<std::int64_t>(rng.next_below(6));
      edges.push_back({u, v, w});
    }
    if (family >= 1 && family <= 2) {
      // A cycle through k distinct nodes, tight on the hidden potentials
      // (weight 0); family 2 lowers one edge to make it negative.
      const int k = 2 + static_cast<int>(rng.next_below(n - 1));
      std::vector<int> nodes(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) nodes[static_cast<std::size_t>(i)] = i;
      for (int i = n - 1; i > 0; --i)
        std::swap(nodes[static_cast<std::size_t>(i)],
                  nodes[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
      for (int i = 0; i < k; ++i) {
        const int u = nodes[static_cast<std::size_t>(i)];
        const int v = nodes[static_cast<std::size_t>((i + 1) % k)];
        edges.push_back(
            {u, v, pot(u) - pot(v) - (family == 2 && i == 0 ? 1 : 0)});
      }
    }

    DiffConstraints sys(n);
    lp::Model model;
    for (int v = 0; v < n; ++v) model.add_variable(-lp::kInf, lp::kInf, 0.0);
    for (const E& e : edges) {
      sys.add(e.u, e.v, e.w);
      model.add_row(lp::Sense::less_equal, {{e.u, 1.0}, {e.v, -1.0}},
                    static_cast<double>(e.w));
    }
    const lp::Solution lp_sol = lp::solve(model);
    ASSERT_TRUE(lp_sol.status == lp::Status::optimal ||
                lp_sol.status == lp::Status::infeasible)
        << "trial " << trial;
    const bool lp_feasible = lp_sol.status == lp::Status::optimal;

    std::vector<std::int64_t> dist(static_cast<std::size_t>(n), 0);
    for (int pass = 0; pass < n; ++pass)
      for (const E& e : edges)
        dist[static_cast<std::size_t>(e.u)] =
            std::min(dist[static_cast<std::size_t>(e.u)],
                     dist[static_cast<std::size_t>(e.v)] + e.w);

    const auto sol = sys.solve();
    SCOPED_TRACE("trial " + std::to_string(trial) + " family " +
                 std::to_string(family));
    ASSERT_EQ(sol.has_value(), lp_feasible);
    if (family <= 1) {
      EXPECT_TRUE(lp_feasible);
    } else if (family == 2) {
      EXPECT_FALSE(lp_feasible);
    }
    if (!sol) {
      ++infeasible;
      continue;
    }
    ++feasible;
    EXPECT_EQ(*sol, dist);
  }
  EXPECT_GT(feasible, 150);
  EXPECT_GT(infeasible, 100);
}

// ---------------------------- yield evaluation -----------------------------

// Hand-built two-FF imbalanced pipeline where tuning provably helps:
// stage ff0->ff1 is long, stage ff1->ff0 is short; shifting ff1's clock later
// rebalances.
ssta::SeqGraph imbalanced_graph() {
  ssta::SeqGraph g;
  g.num_ffs = 2;
  g.setup_ps = {2.0, 2.0};
  g.hold_ps = {0.5, 0.5};
  g.skew_ps = {0.0, 0.0};
  ssta::SeqArc long_arc;
  long_arc.src_ff = 0;
  long_arc.dst_ff = 1;
  long_arc.dmax.mu = 100.0;
  long_arc.dmax.aloc = 8.0;
  long_arc.dmin.mu = 60.0;
  long_arc.dmin.aloc = 4.0;
  ssta::SeqArc short_arc;
  short_arc.src_ff = 1;
  short_arc.dst_ff = 0;
  short_arc.dmax.mu = 60.0;
  short_arc.dmax.aloc = 5.0;
  short_arc.dmin.mu = 40.0;
  short_arc.dmin.aloc = 3.0;
  g.arcs = {long_arc, short_arc};
  g.arcs_of_ff = {{0, 1}, {0, 1}};
  return g;
}

TEST(YieldEvaluatorTest, BuffersImproveImbalancedPipeline) {
  const ssta::SeqGraph g = imbalanced_graph();
  const mc::Sampler sampler(g, 555);
  const double t = 104.0;  // slightly above the long stage mean + setup
  TuningPlan plan;
  plan.step_ps = 1.0;
  plan.buffers.push_back(BufferWindow{1, 0, 20});  // delay ff1 clock
  plan.reset_groups();
  const feas::YieldReport report =
      feas::evaluate_yield_report(g, plan, t, 555, 4000);

  EXPECT_GT(report.tuned.yield, report.original.yield + 0.15);
}

TEST(YieldEvaluatorTest, SelfLoopArcCannotBeHelped) {
  ssta::SeqGraph g;
  g.num_ffs = 1;
  g.setup_ps = {2.0};
  g.hold_ps = {0.5};
  g.skew_ps = {0.0};
  ssta::SeqArc self;
  self.src_ff = 0;
  self.dst_ff = 0;
  self.dmax.mu = 100.0;
  self.dmax.aloc = 10.0;
  self.dmin.mu = 50.0;
  self.dmin.aloc = 2.0;
  g.arcs = {self};
  g.arcs_of_ff = {{0}};
  const double t = 102.0;
  TuningPlan plan;
  plan.step_ps = 1.0;
  plan.buffers.push_back(BufferWindow{0, -10, 10});
  plan.reset_groups();
  const feas::YieldReport report =
      feas::evaluate_yield_report(g, plan, t, 1, 3000);
  EXPECT_GT(report.original.passing, 0u);
  EXPECT_LT(report.original.passing, 3000u);
  EXPECT_EQ(report.tuned.passing, report.original.passing);
}

TEST(YieldEvaluatorTest, ConfigurationSatisfiesConstraints) {
  const ssta::SeqGraph g = imbalanced_graph();
  const mc::Sampler sampler(g, 555);
  TuningPlan plan;
  plan.step_ps = 1.0;
  plan.buffers.push_back(BufferWindow{0, -10, 10});
  plan.buffers.push_back(BufferWindow{1, 0, 20});
  plan.reset_groups();
  const double t = 104.0;
  const YieldEvaluator eval(g, plan, t);
  int checked = 0;
  mc::ArcSample arcs;
  mc::ChipScratch scratch;
  for (std::uint64_t k = 0; k < 300; ++k) {
    const auto config = eval.find_configuration(scratch.open(sampler, k));
    if (!config.has_value()) continue;
    ++checked;
    sampler.evaluate(k, arcs);
    const double x0 = (*config)[0];
    const double x1 = (*config)[1];
    EXPECT_GE(x0, plan.buffers[0].k_lo);
    EXPECT_LE(x0, plan.buffers[0].k_hi);
    EXPECT_GE(x1, plan.buffers[1].k_lo);
    EXPECT_LE(x1, plan.buffers[1].k_hi);
    // Setup on both arcs.
    EXPECT_LE(x0 + arcs.dmax[0] + g.setup_ps[1], t + x1 + 1e-9);
    EXPECT_LE(x1 + arcs.dmax[1] + g.setup_ps[0], t + x0 + 1e-9);
    // Hold on both arcs.
    EXPECT_GE(x0 + arcs.dmin[0], x1 + g.hold_ps[1] - 1e-9);
    EXPECT_GE(x1 + arcs.dmin[1], x0 + g.hold_ps[0] - 1e-9);
  }
  EXPECT_GT(checked, 200);
}

TEST(YieldEvaluatorTest, GroupedBuffersShareOneVariable) {
  const ssta::SeqGraph g = imbalanced_graph();
  const double t = 104.0;
  // Two buffers forced into one group: their tunings cancel on the
  // 0 -> 1 arc, so the plan behaves like no tuning at all.
  TuningPlan plan;
  plan.step_ps = 1.0;
  plan.buffers.push_back(BufferWindow{0, 0, 20});
  plan.buffers.push_back(BufferWindow{1, 0, 20});
  plan.group_of = {0, 0};
  plan.num_groups = 1;
  const feas::YieldReport report =
      feas::evaluate_yield_report(g, plan, t, 555, 3000);
  EXPECT_EQ(report.tuned.passing, report.original.passing);
}

TEST(TuningPlanTest, GroupWindowsAndAverageRange) {
  TuningPlan plan;
  plan.step_ps = 2.0;
  plan.buffers = {BufferWindow{0, -2, 6}, BufferWindow{1, 0, 4},
                  BufferWindow{2, -5, 1}};
  plan.group_of = {0, 0, 1};
  plan.num_groups = 2;
  const BufferWindow g0 = plan.group_window(0);
  EXPECT_EQ(g0.k_lo, -2);
  EXPECT_EQ(g0.k_hi, 6);
  const BufferWindow g1 = plan.group_window(1);
  EXPECT_EQ(g1.range(), 6);
  EXPECT_DOUBLE_EQ(plan.average_range(), (8.0 + 6.0) / 2.0);
  EXPECT_EQ(plan.physical_buffers(), 2);
}

TEST(YieldEvaluatorTest, EvaluationIsThreadCountInvariant) {
  const ssta::SeqGraph& g = test_graph();
  const mc::Sampler sampler(g, 99);
  const mc::PeriodStats ps = mc::sample_min_period(sampler, 1500);
  TuningPlan plan;
  plan.step_ps = ps.mu() / 160.0;
  plan.buffers.push_back(BufferWindow{3, -10, 10});
  plan.buffers.push_back(BufferWindow{10, -10, 10});
  plan.reset_groups();
  const feas::YieldReport a =
      feas::evaluate_yield_report(g, plan, ps.mu(), 99, 1500, 1);
  const feas::YieldReport b =
      feas::evaluate_yield_report(g, plan, ps.mu(), 99, 1500, 8);
  EXPECT_EQ(a.original.passing, b.original.passing);
  EXPECT_EQ(a.tuned.passing, b.tuned.passing);
}

}  // namespace
}  // namespace clktune
