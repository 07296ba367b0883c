// Ablation over the flow's design choices (DESIGN.md section 6): what each
// step buys.  Disables concentration / pruning / grouping one at a time and
// flips the x_avg averaging mode, reporting Nb, Ab, yield and runtime.
#include <cstdio>

#include "bench_common.h"
#include "util/timer.h"

namespace {

using namespace clktune;

struct Variant {
  const char* name;
  void (*tweak)(core::InsertionConfig&);
};

int run() {
  bench::BenchConfig cfg = bench::BenchConfig::from_env();
  bench::BenchReport report("ablation_steps");
  auto spec = *netlist::paper_circuit_spec(
      util::env_string("CLKTUNE_ABLATION_CIRCUIT", "s13207"));
  const bench::PreparedCircuit pc = bench::prepare(spec, cfg);
  const double t = pc.setting_period(0);

  const Variant variants[] = {
      {"full flow", [](core::InsertionConfig&) {}},
      {"no concentration",
       [](core::InsertionConfig& c) { c.enable_concentration = false; }},
      {"no pruning",
       [](core::InsertionConfig& c) { c.enable_pruning = false; }},
      {"no grouping",
       [](core::InsertionConfig& c) { c.enable_grouping = false; }},
      {"avg over all samples",
       [](core::InsertionConfig& c) { c.average_nonzero_only = false; }},
      {"capped at 4 buffers",
       [](core::InsertionConfig& c) { c.max_buffers = 4; }},
  };

  std::printf("ablation on %s at T=%.1f ps, samples=%llu\n\n",
              spec.name.c_str(), t,
              static_cast<unsigned long long>(cfg.samples));
  std::printf("%-22s %4s %7s %8s %8s %9s\n", "variant", "Nb", "Ab", "Y(%)",
              "Yi(%)", "time(s)");
  const feas::YieldResult yo =
      feas::evaluate_yield_report(pc.graph, feas::empty_plan(), t,
                                  bench::kEvalSeed, cfg.eval_samples,
                                  cfg.threads)
          .original;
  for (const Variant& v : variants) {
    core::InsertionConfig ic = cfg.insertion();
    v.tweak(ic);
    util::Stopwatch sw;
    core::BufferInsertionEngine engine(pc.design, pc.graph, t, ic);
    const core::InsertionResult res = engine.run();
    const double secs = sw.seconds();
    report.count_insertion(res, ic.num_samples);
    report.count_samples(cfg.eval_samples);
    const feas::YieldResult y =
        feas::evaluate_yield_report(pc.graph, res.plan, t, bench::kEvalSeed,
                                    cfg.eval_samples, cfg.threads)
            .tuned;
    std::printf("%-22s %4d %7.2f %8.2f %8.2f %9.2f\n", v.name,
                res.plan.physical_buffers(), res.plan.average_range(),
                100.0 * y.yield, 100.0 * (y.yield - yo.yield), secs);
    std::fflush(stdout);
  }
  return report.write();
}

}  // namespace

int main() { return run(); }
