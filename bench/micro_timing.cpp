// Microbenchmarks of the timing substrate: sequential-graph extraction,
// per-sample arc evaluation (split and fused-quantizing forms), period
// Monte-Carlo and yield checking (lazily drawn and pre-drawn forms).
#include <benchmark/benchmark.h>

#include <vector>

#include "feas/yield_eval.h"
#include "gbench_json.h"
#include "mc/arc_constants.h"
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

// The fused kernel the insertion flow runs on: draw + quantize in one pass,
// no ArcSample materialisation.
void BM_FusedConstantEvaluation(benchmark::State& state) {
  static const netlist::Design design = make_design(500, 4000);
  static const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  const mc::Sampler sampler(graph, 3);
  const mc::PeriodStats ps = mc::sample_min_period(sampler, 200);
  mc::ArcConstants constants;
  constants.resize(graph.arcs.size());
  std::uint64_t k = 0;
  for (auto _ : state) {
    sampler.evaluate_constants(k++, ps.mu(), ps.mu() / 160.0,
                               constants.setup_steps.data(),
                               constants.hold_steps.data());
    benchmark::DoNotOptimize(constants.setup_steps.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph.arcs.size()));
}
BENCHMARK(BM_FusedConstantEvaluation);

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

void BM_YieldCheckPerSample(benchmark::State& state) {
  static const YieldFixture fx;
  const feas::YieldEvaluator eval(fx.graph, fx.plan(), fx.ps.mu());
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.sample_feasible(fx.sampler, k++));
  }
}
BENCHMARK(BM_YieldCheckPerSample);

// The one-draw path measurements take: chips drawn beforehand, so the
// sampling work is gone, leaving sign tests plus a tiny SPFA.
void BM_YieldCheckCachedDelays(benchmark::State& state) {
  static const YieldFixture fx;
  const feas::YieldEvaluator eval(fx.graph, fx.plan(), fx.ps.mu());
  std::vector<mc::ArcSample> window(512);
  for (std::size_t k = 0; k < window.size(); ++k)
    fx.sampler.evaluate(k, window[k]);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.sample_feasible(window[k++ % window.size()]));
  }
}
BENCHMARK(BM_YieldCheckCachedDelays);

}  // namespace

int main(int argc, char** argv) {
  return clktune::bench::run_micro_benchmarks(argc, argv, "micro_timing",
                                              "BM_YieldCheckPerSample");
}
