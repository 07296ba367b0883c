// Yield evaluation of a tuning plan: a chip (Monte-Carlo sample) passes when
// a feasible assignment of discrete buffer delays exists that meets all
// setup and hold constraints at clock period T.
//
// With a fixed plan this is a pure feasibility question over difference
// constraints (buffered flip-flops are variables, everything else is pinned
// to zero, windows become bounds against a reference node), solved per
// sample on grid-floored constants.  The arc partition is computed once at
// construction:
//
//   * check-only arcs — both endpoints unbuffered, so tuning cancels: per
//     sample they reduce to a sign test on the raw constants, evaluated
//     first with early exit.  The test reads the arc's bounds
//     (mc::ChipView::bounds) and draws the arc only when they cannot
//     decide its sign, which is rare;
//   * edge arcs — incident to a tuned group: their constraint-graph
//     topology is static, so the SPFA graph is built once and only the two
//     weights per arc are rewritten per sample.
//
// This collapses the per-sample graph from |E| to the handful of
// buffer-adjacent arcs, and the steady-state check performs zero heap
// allocations (per-thread workspace).  Evaluation uses its own seed so
// reported yields are out-of-sample relative to the insertion run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "feas/spfa.h"
#include "feas/tuning_plan.h"
#include "mc/sampler.h"
#include "ssta/seq_graph.h"
#include "util/stats.h"

namespace clktune::feas {

struct YieldResult {
  double yield = 0.0;
  double ci95 = 0.0;  ///< 95 % confidence half-width
  std::uint64_t passing = 0;
  std::uint64_t samples = 0;
};

class YieldEvaluator {
 public:
  YieldEvaluator(const ssta::SeqGraph& graph, TuningPlan plan,
                 double clock_period_ps);

  /// Does the chip admit a feasible configuration?  Zero heap allocations
  /// in steady state (per-thread workspace).
  bool sample_feasible(const mc::ChipView& chip) const;

  /// Buffer configuration (delay steps per physical group) for the chip, or
  /// nullopt when it cannot be rescued.  This is the post-silicon "testing
  /// and configuration" step the paper lists as future work.
  std::optional<std::vector<int>> find_configuration(
      const mc::ChipView& chip) const;

  /// Group variable of flip-flop `ff` under the plan's grouping; -1 when
  /// the flip-flop carries no tuning buffer.  Configurations returned by
  /// find_configuration are indexed by this variable.
  int group_of_ff(int ff) const {
    return var_of_ff_[static_cast<std::size_t>(ff)];
  }

  const TuningPlan& plan() const { return plan_; }
  double clock_period_ps() const { return clock_period_; }
  /// Arc-partition sizes (check-only vs buffer-adjacent), for diagnostics.
  std::size_t check_arc_count() const { return check_arcs_.size(); }
  std::size_t edge_arc_count() const { return edge_arcs_.size(); }

 private:
  /// Per-thread scratch; contents carry only capacity between calls.
  struct Workspace {
    std::vector<std::int64_t> weights;
    SpfaScratch spfa;
  };

  /// A buffer-adjacent arc: its constraint edges live at fixed slots of the
  /// static SPFA graph; only the weights change per sample.
  struct EdgeArc {
    int arc = 0;         ///< index into graph.arcs
    int setup_slot = 0;  ///< weight slot of  x_ui - x_uj <= setup
    int hold_slot = 0;   ///< weight slot of  x_uj - x_ui <= hold
  };

  /// Feasibility of the chip; on success ws.spfa.dist holds the potentials.
  bool solve_chip(const mc::ChipView& chip, Workspace& ws) const;
  /// Per-group delay steps from a feasible workspace (reference at zero).
  std::vector<int> config_from_workspace(const Workspace& ws) const;

  void add_static_edge(int u, int v, std::int64_t w);

  const ssta::SeqGraph* graph_;
  TuningPlan plan_;
  double clock_period_;
  /// Group variable per FF; -1 when the FF has no buffer.
  std::vector<int> var_of_ff_;
  /// Per-group window (union of members).
  std::vector<BufferWindow> group_windows_;

  // Arc partition (III-style split, computed once).
  std::vector<int> check_arcs_;
  std::vector<EdgeArc> edge_arcs_;

  // Static constraint-graph topology over num_groups + 1 nodes (the last is
  // the pinned reference): CSR-ish adjacency with a parallel weight
  // template.  Window-bound weights are final; edge-arc slots are
  // placeholders rewritten into the workspace copy per sample.
  std::vector<int> head_;
  std::vector<int> edge_to_;
  std::vector<int> edge_next_;
  std::vector<std::int64_t> weights_template_;
};

/// The result of `passing` feasible chips out of `samples`.
YieldResult yield_of(std::uint64_t passing, std::uint64_t samples);

/// The plan with no buffers: its evaluator measures the original yield.
TuningPlan empty_plan();

/// Before/after yield measurement of a tuning plan at one clock period,
/// evaluated out-of-sample (its own seed): the paper's Yo, Y and Yi columns
/// as one machine-readable artifact.
struct YieldReport {
  double clock_period_ps = 0.0;
  std::uint64_t eval_seed = 0;
  YieldResult original;  ///< Yo: no buffers
  YieldResult tuned;     ///< Y: with the plan's buffers

  /// Yi = Y - Yo, in probability (not percent).
  double improvement() const { return tuned.yield - original.yield; }
};

/// Evaluates original and tuned yield over `samples` fresh Monte-Carlo chips
/// drawn with `eval_seed`.  Each chip is opened once (mc::fold_chips) and
/// checked by both evaluators.
YieldReport evaluate_yield_report(const ssta::SeqGraph& graph,
                                  const TuningPlan& plan,
                                  double clock_period_ps,
                                  std::uint64_t eval_seed,
                                  std::uint64_t samples, int threads = 0);

}  // namespace clktune::feas
