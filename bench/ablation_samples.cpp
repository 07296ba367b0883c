// Sample-count convergence: how many Monte-Carlo samples the flow needs
// before buffer locations, ranges and the resulting yield stabilise
// (the paper uses 10000).
#include <cstdio>

#include "bench_common.h"
#include "util/timer.h"

namespace {

using namespace clktune;

int run() {
  bench::BenchConfig cfg = bench::BenchConfig::from_env();
  bench::BenchReport report("ablation_samples");
  auto spec = *netlist::paper_circuit_spec(
      util::env_string("CLKTUNE_CONV_CIRCUIT", "s9234"));
  const bench::PreparedCircuit pc = bench::prepare(spec, cfg);
  const double t = pc.setting_period(0);
  const feas::YieldResult yo =
      feas::evaluate_yield_report(pc.graph, feas::empty_plan(), t,
                                  bench::kEvalSeed, cfg.eval_samples,
                                  cfg.threads)
          .original;

  std::printf("sample-count convergence on %s at T=%.1f ps (Yo=%.2f%%)\n\n",
              spec.name.c_str(), t, 100.0 * yo.yield);
  std::printf("%8s %4s %7s %8s %8s %9s\n", "samples", "Nb", "Ab", "Y(%)",
              "Yi(%)", "time(s)");
  for (std::uint64_t n : {250ull, 500ull, 1000ull, 2500ull, 5000ull,
                          10000ull, 20000ull}) {
    if (n > 2 * cfg.samples) break;
    core::InsertionConfig ic = cfg.insertion();
    ic.num_samples = n;
    util::Stopwatch sw;
    core::BufferInsertionEngine engine(pc.design, pc.graph, t, ic);
    const core::InsertionResult res = engine.run();
    const double secs = sw.seconds();
    report.count_insertion(res, n);
    report.count_samples(cfg.eval_samples);
    const feas::YieldResult y =
        feas::evaluate_yield_report(pc.graph, res.plan, t, bench::kEvalSeed,
                                    cfg.eval_samples, cfg.threads)
            .tuned;
    std::printf("%8llu %4d %7.2f %8.2f %8.2f %9.2f\n",
                static_cast<unsigned long long>(n),
                res.plan.physical_buffers(), res.plan.average_range(),
                100.0 * y.yield, 100.0 * (y.yield - yo.yield), secs);
    std::fflush(stdout);
  }
  return report.write();
}

}  // namespace

int main() { return run(); }
