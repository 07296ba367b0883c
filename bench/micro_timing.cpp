// Microbenchmarks of the timing substrate: sequential-graph extraction,
// per-sample arc evaluation, the violation scan insertion step 1 runs on
// each chip, and yield checking (lazily drawn and pre-drawn forms).
#include <benchmark/benchmark.h>

#include <vector>

#include "feas/yield_eval.h"
#include "gbench_json.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "ssta/seq_graph.h"

namespace {

using namespace clktune;

netlist::Design make_design(int ns, int ng) {
  netlist::SyntheticSpec spec;
  spec.num_flipflops = ns;
  spec.num_gates = ng;
  spec.seed = 21;
  return netlist::generate(spec);
}

void BM_SeqGraphExtraction(benchmark::State& state) {
  const netlist::Design design = make_design(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) * 8);
  for (auto _ : state) {
    const ssta::SeqGraph g = ssta::extract_seq_graph(design);
    benchmark::DoNotOptimize(g.arcs.size());
  }
}
BENCHMARK(BM_SeqGraphExtraction)->Arg(200)->Arg(1000);

void BM_ArcSampleEvaluation(benchmark::State& state) {
  static const netlist::Design design = make_design(500, 4000);
  static const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  const mc::Sampler sampler(graph, 3);
  mc::ArcSample arcs;
  std::uint64_t k = 0;
  for (auto _ : state) {
    sampler.evaluate(k++, arcs);
    benchmark::DoNotOptimize(arcs.dmax.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph.arcs.size()));
}
BENCHMARK(BM_ArcSampleEvaluation);

// The scan insertion step 1 runs on every chip: one hash and a bracket per
// arc, a full draw only where the bracket cannot decide, and every violated
// arc collected.
void BM_ViolationScan(benchmark::State& state) {
  static const netlist::Design design = make_design(500, 4000);
  static const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  const mc::Sampler sampler(graph, 3);
  const mc::PeriodStats ps = mc::sample_min_period(sampler, 200);
  const double t = ps.mu() + 2.0 * ps.sigma();
  mc::ChipScratch scratch;
  std::vector<int> violated;
  std::uint64_t k = 0;
  for (auto _ : state) {
    mc::violated_arcs(graph, scratch.open(sampler, k++), t, ps.mu() / 160.0,
                      violated);
    benchmark::DoNotOptimize(violated.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph.arcs.size()));
}
BENCHMARK(BM_ViolationScan);

struct YieldFixture {
  const netlist::Design design = make_design(500, 4000);
  const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  mc::Sampler sampler{graph, 3};
  mc::PeriodStats ps = mc::sample_min_period(sampler, 500);

  feas::TuningPlan plan() const {
    feas::TuningPlan p;
    p.step_ps = ps.mu() / 160.0;
    for (int f = 0; f < 8; ++f)
      p.buffers.push_back(feas::BufferWindow{f * 10, -10, 10});
    p.reset_groups();
    return p;
  }
};

// The per-chip path every measurement takes: open the chip lazily and check
// it, so only the arcs whose bounds leave a sign undecided are drawn.
void BM_YieldCheckPerChip(benchmark::State& state) {
  static const YieldFixture fx;
  const feas::YieldEvaluator eval(fx.graph, fx.plan(), fx.ps.mu());
  mc::ChipScratch scratch;
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval.sample_feasible(scratch.open(fx.sampler, k++)));
  }
}
BENCHMARK(BM_YieldCheckPerChip);

// The same check on a chip whose arcs are all drawn already (as after the
// first of several evaluators), leaving sign tests plus a tiny SPFA.
void BM_YieldCheckCachedDelays(benchmark::State& state) {
  static const YieldFixture fx;
  const feas::YieldEvaluator eval(fx.graph, fx.plan(), fx.ps.mu());
  mc::ChipScratch scratch;
  const mc::ChipView chip = scratch.open(fx.sampler, 0);
  for (std::size_t e = 0; e < fx.graph.arcs.size(); ++e) {
    double late = 0.0, early = 0.0;
    chip.delays(e, late, early);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.sample_feasible(chip));
  }
}
BENCHMARK(BM_YieldCheckCachedDelays);

}  // namespace

int main(int argc, char** argv) {
  return clktune::bench::run_micro_benchmarks(argc, argv, "micro_timing",
                                              "BM_YieldCheckPerChip");
}
