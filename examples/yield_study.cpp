// Yield-vs-clock-period study: sweeps the target period around the measured
// distribution and prints yield curves for (a) no buffers, (b) the proposed
// insertion, (c) a buffer on every flip-flop — showing where tuning pays
// and where the unfixable tail takes over.
//
// The workload is declarative: examples/scenarios/yield_study.json is a
// campaign document sweeping clock.sigma_offset, so the same study is
// reproducible via `clktune sweep` (columns a and b) while this example adds
// the every-FF oracle column on top of the library API.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "exec/local_executor.h"
#include "exec/request.h"
#include "feas/yield_eval.h"
#include "scenario/campaign.h"
#include "scenario/scenario.h"
#include "ssta/seq_graph.h"
#include "util/env.h"
#include "util/json.h"

using namespace clktune;

namespace {

/// ctest/IDE working directories vary; look upward for the repo layout.
util::Json load_campaign_document() {
  const std::string rel = "examples/scenarios/yield_study.json";
  std::string prefix;
  for (int up = 0; up < 4; ++up) {
    try {
      return util::read_json_file(prefix + rel);
    } catch (const util::JsonError&) {
      throw;  // the file exists but is malformed — report that, not "missing"
    } catch (const std::exception&) {
      prefix += "../";
    }
  }
  throw std::runtime_error("cannot locate " + rel +
                           " (run from the repository root)");
}

}  // namespace

int main() try {
  const util::Json doc = load_campaign_document();
  scenario::CampaignSpec campaign = scenario::CampaignSpec::from_json(doc);
  campaign.threads =
      static_cast<int>(util::env_long("CLKTUNE_THREADS", campaign.threads));

  const std::vector<scenario::ScenarioSpec> specs = campaign.expand();
  exec::LocalExecutor executor;
  const scenario::CampaignSummary summary =
      executor.execute(exec::Request::for_campaign(campaign)).summary;

  std::printf("# %s: %zu scenarios from examples/scenarios/yield_study.json\n",
              campaign.name.c_str(), specs.size());
  std::printf("# setting  T_ps  original%%  proposed%%  every_ff%%  Nb\n");
  for (std::size_t i = 0; i < summary.results.size(); ++i) {
    const scenario::ScenarioResult& r = summary.results[i];

    // The every-FF oracle column: full symmetric windows on every flip-flop,
    // evaluated on the same out-of-sample chips as the scenario's report.
    const netlist::Design design = specs[i].design.build();
    const ssta::SeqGraph graph = ssta::extract_seq_graph(design);
    const feas::TuningPlan all = core::oracle_plan(
        graph, specs[i].insertion.steps, r.insertion.step_ps);
    const double everyff =
        feas::evaluate_yield_report(graph, all, r.clock_period_ps,
                                    specs[i].evaluation.seed,
                                    specs[i].evaluation.samples)
            .tuned.yield;

    std::printf("%9s  %8.1f  %8.2f  %8.2f  %8.2f  %3d\n", r.setting.c_str(),
                r.clock_period_ps, 100.0 * r.yield.original.yield,
                100.0 * r.yield.tuned.yield, 100.0 * everyff,
                r.insertion.plan.physical_buffers());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "yield_study: %s\n", e.what());
  return 1;
}
