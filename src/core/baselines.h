// Baseline insertion policies the proposed flow is compared against.
//
//  * top_k_criticality_plan — statistical criticality ranking with
//    symmetric windows, standing in for symmetric-range post-silicon-tunable
//    clock-tree methods in the spirit of Tsai et al. [2] (whose
//    implementation is not public).  Same buffer budget, no asymmetric
//    windows, no concentration, no grouping.
//  * oracle_plan — a tuning buffer with a full symmetric window on every
//    flip-flop: an upper bound on what clock tuning can possibly achieve.
#pragma once

#include <cstdint>
#include <vector>

#include "feas/tuning_plan.h"
#include "mc/sampler.h"
#include "ssta/seq_graph.h"

namespace clktune::core {

/// Adds one chip's failing-setup incidence at x = 0 to `incidence` (one
/// count per flip-flop per failing arc it ends, a self-loop counted once):
/// the per-sample body of criticality_incidence, shared with callers that
/// already hold the chip open.  Draws only the arcs whose bounds cannot
/// decide their setup sign.
void add_failing_incidence(const ssta::SeqGraph& graph,
                           const mc::ChipView& chip,
                           double clock_period_ps,
                           std::vector<std::uint64_t>& incidence);

/// Per-flip-flop incidence to failing setup arcs at x = 0 over `samples`
/// Monte-Carlo chips — the ranking statistic behind top_k_criticality_plan,
/// exposed so callers that need it more than once (several k values, or the
/// criticality analysis engine reporting it next to binding probabilities)
/// compute it exactly once.
std::vector<std::uint64_t> criticality_incidence(const ssta::SeqGraph& graph,
                                                 const mc::Sampler& sampler,
                                                 double clock_period_ps,
                                                 std::uint64_t samples,
                                                 int threads = 0);

/// Buffers the top `k` flip-flops of an incidence ranking with symmetric
/// windows of +-steps/2 (stable order: incidence desc, flip-flop index asc;
/// zero-incidence flip-flops are never buffered).
feas::TuningPlan plan_from_incidence(
    const ssta::SeqGraph& graph, const std::vector<std::uint64_t>& incidence,
    int k, int steps, double step_ps);

/// Ranks flip-flops by how often they are incident to a failing arc at
/// x = 0 over `samples` Monte-Carlo chips, then buffers the top `k` with
/// symmetric windows of +-steps/2.  Equivalent to plan_from_incidence over
/// criticality_incidence.
feas::TuningPlan top_k_criticality_plan(const ssta::SeqGraph& graph,
                                        const mc::Sampler& sampler,
                                        double clock_period_ps,
                                        std::uint64_t samples, int k,
                                        int steps, double step_ps,
                                        int threads = 0);

/// Buffers on every flip-flop, symmetric +-steps/2 windows.
feas::TuningPlan oracle_plan(const ssta::SeqGraph& graph, int steps,
                             double step_ps);

}  // namespace clktune::core
