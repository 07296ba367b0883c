// Post-silicon configuration demo — the paper's "future work" step: after
// buffers are inserted at design time, each manufactured chip is tested and
// its buffers are programmed individually.  This example inserts buffers,
// then plays the role of the tester for a handful of virtual chips and
// prints the per-chip register settings that rescue them.
#include <cstdio>

#include "core/engine.h"
#include "feas/yield_eval.h"
#include "mc/period_mc.h"
#include "netlist/generator.h"
#include "ssta/seq_graph.h"

using namespace clktune;

int main() {
  netlist::SyntheticSpec spec;
  spec.name = "post_silicon";
  spec.num_flipflops = 300;
  spec.num_gates = 2600;
  spec.seed = 99;
  const netlist::Design design = netlist::generate(spec);
  const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  const mc::Sampler sampler(graph, 20160314);
  const mc::PeriodStats period = mc::sample_min_period(sampler, 4000);
  const double t = period.mu();

  core::InsertionConfig config;
  config.num_samples = 4000;
  core::BufferInsertionEngine engine(design, graph, t, config);
  const core::InsertionResult res = engine.run();
  std::printf("design phase: %d physical buffers inserted at T=%.1f ps\n\n",
              res.plan.physical_buffers(), t);

  // Manufacturing + test: fresh chips, separate randomness from insertion.
  const mc::Sampler fab(graph, 0xFAB);
  const feas::YieldEvaluator tester(graph, res.plan, t);
  mc::ChipScratch scratch;
  int passed_untuned = 0, rescued = 0, dead = 0;
  for (std::uint64_t chip = 0; chip < 24; ++chip) {
    const auto config_steps =
        tester.find_configuration(scratch.open(fab, chip));
    if (!config_steps.has_value()) {
      std::printf("chip %2llu: DEAD (beyond tuning reach)\n",
                  static_cast<unsigned long long>(chip));
      ++dead;
      continue;
    }
    bool all_zero = true;
    for (int k : *config_steps) all_zero = all_zero && k == 0;
    if (all_zero) {
      std::printf("chip %2llu: passes untuned\n",
                  static_cast<unsigned long long>(chip));
      ++passed_untuned;
      continue;
    }
    std::printf("chip %2llu: rescued with settings [",
                static_cast<unsigned long long>(chip));
    for (std::size_t g = 0; g < config_steps->size(); ++g)
      std::printf("%s%+d x %.1fps", g == 0 ? "" : ", ", (*config_steps)[g],
                  res.plan.step_ps);
    std::printf("]\n");
    ++rescued;
  }
  std::printf(
      "\nof 24 chips: %d pass untuned, %d rescued by configuration, %d "
      "dead\n",
      passed_untuned, rescued, dead);
  return 0;
}
