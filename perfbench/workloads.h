// The benchmark's three workloads.  Each runs in its own process, builds its
// inputs from the run's seed, measures for the run's budget, checks every
// output it produced and fills the report's end-to-end metrics (untraced
// run) or per-layer metrics (traced run).  README.md says why each exists.
#pragma once

#include "measure.h"

namespace clktune::perfbench {

/// Table I as a designer runs it: a yield campaign over four paper circuits
/// x two clock settings, 10k/10k samples, through exec::LocalExecutor.
void run_paper_flow(const Options& options, RunReport& report);

/// Criticality, binning and yield scenarios on one mid-size circuit through
/// scenario::run_scenario (evaluation sampling and src/analysis dominate).
void run_eval_heavy(const Options& options, RunReport& report);

/// A closed loop of clients replaying a seeded load schedule against one
/// `clktune serve` daemon started fresh, with an empty cache, per run.
void run_serve_mix(const Options& options, RunReport& report);

}  // namespace clktune::perfbench
