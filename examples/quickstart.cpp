// Quickstart: generate a small sequential circuit, run the sampling-based
// buffer-insertion flow at the mean minimum period, and measure the yield
// before and after.  ~40 lines of library use.
#include <cstdio>

#include "core/engine.h"
#include "feas/yield_eval.h"
#include "mc/period_mc.h"
#include "netlist/generator.h"
#include "ssta/seq_graph.h"

using namespace clktune;

int main() {
  // 1. A circuit: 150 flip-flops, 1200 gates, deterministic seed.
  netlist::SyntheticSpec spec;
  spec.name = "quickstart";
  spec.num_flipflops = 150;
  spec.num_gates = 1200;
  spec.seed = 7;
  const netlist::Design design = netlist::generate(spec);

  // 2. Sequential timing graph with canonical statistical delays.
  const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  std::printf("%s: %d flip-flops, %zu sequential arcs\n", spec.name.c_str(),
              graph.num_ffs, graph.arcs.size());

  // 3. The clock-period distribution over manufactured chips; target the
  //    mean (about half of all chips fail there).
  const mc::Sampler sampler(graph, /*seed=*/20160314);
  const mc::PeriodStats period = mc::sample_min_period(sampler, 5000);
  const double target = period.mu();
  std::printf("min period: mu=%.1f ps sigma=%.1f ps -> targeting T=%.1f ps\n",
              period.mu(), period.sigma(), target);

  // 4. Insert post-silicon tuning buffers (paper defaults: 10000 samples,
  //    20 discrete steps, tau = nominal period / 8).
  core::InsertionConfig config;
  config.num_samples = 5000;
  core::BufferInsertionEngine engine(design, graph, target, config);
  const core::InsertionResult result = engine.run();
  std::printf("inserted %d physical buffers (avg range %.1f of %d steps):\n",
              result.plan.physical_buffers(), result.plan.average_range(),
              config.steps);
  for (const core::BufferInfo& b : result.buffers)
    std::printf("  ff%-4d window [%d,%d] range [%d,%d] used in %llu samples "
                "(group %d)\n",
                b.ff, b.window_lo, b.window_hi, b.range_lo, b.range_hi,
                static_cast<unsigned long long>(b.usage_final), b.group);

  // 5. Yield before vs after, on fresh evaluation samples.
  const feas::YieldReport yield = feas::evaluate_yield_report(
      graph, result.plan, target, /*eval_seed=*/424242, 5000);
  std::printf("yield at T=%.1f ps: %.2f%% -> %.2f%% (+%.2f%%)\n", target,
              100.0 * yield.original.yield, 100.0 * yield.tuned.yield,
              100.0 * yield.improvement());
  return 0;
}
