// Loads an ISCAS89 .bench netlist (s27 shipped in assets/), injects the
// paper's synthetic clock skew, and runs the insertion flow — the path a
// user with real benchmark files would take.
//
// Usage: load_bench [path/to/file.bench]
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "feas/yield_eval.h"
#include "mc/period_mc.h"
#include "netlist/bench_io.h"
#include "netlist/nominal_sta.h"
#include "ssta/seq_graph.h"

using namespace clktune;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "assets/s27.bench";
  netlist::Design design;
  try {
    design = netlist::read_bench_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(), e.what());
    std::fprintf(stderr, "run from the repository root or pass a path\n");
    return 1;
  }
  std::printf("%s: %zu inputs, %zu outputs, %zu gates, %zu flip-flops\n",
              design.name.c_str(), design.netlist.primary_inputs().size(),
              design.netlist.primary_outputs().size(),
              design.netlist.gates().size(),
              design.netlist.flipflops().size());

  // The paper adds clock skews "so that they have more critical paths".
  const double t0 = netlist::nominal_min_period(design);
  netlist::apply_synthetic_skew(design, 0.05 * t0, /*seed=*/13);
  std::printf("nominal min period %.1f ps, injected skew sigma %.1f ps\n", t0,
              0.05 * t0);

  const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
  const mc::Sampler sampler(graph, 20160314);
  const mc::PeriodStats period = mc::sample_min_period(sampler, 5000);

  core::InsertionConfig config;
  config.num_samples = 5000;
  const double t = period.mu();
  core::BufferInsertionEngine engine(design, graph, t, config);
  const core::InsertionResult res = engine.run();

  const feas::YieldReport yield =
      feas::evaluate_yield_report(graph, res.plan, t, /*eval_seed=*/777, 5000);
  const double before = yield.original.yield;
  const double after = yield.tuned.yield;
  std::printf("T=%.1f ps: yield %.2f%% -> %.2f%% with %d buffers\n", t,
              100.0 * before, 100.0 * after, res.plan.physical_buffers());
  for (const core::BufferInfo& b : res.buffers)
    std::printf("  buffer on %s  range [%d, %d] steps\n",
                design.netlist
                    .node(design.netlist.flipflops()[
                        static_cast<std::size_t>(b.ff)])
                    .name.c_str(),
                b.range_lo, b.range_hi);
  return 0;
}
