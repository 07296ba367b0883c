#include "feas/yield_eval.h"

#include <algorithm>
#include <cmath>

#include "mc/arc_constants.h"
#include "mc/fold.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace clktune::feas {

namespace {

/// MC hot-path metrics.  The evaluation loop records into these: one
/// counter add per pass (not per sample) and one timed solve every 64th
/// sample, so the instrumentation stays strictly bounded — sample_feasible
/// itself is untouched, which is what keeps the zero-allocation assertions
/// and the perf gate honest.
struct McMetrics {
  obs::Counter& samples;
  obs::Histogram& solve_seconds;

  static McMetrics& get() {
    static McMetrics m{
        obs::Registry::global().counter(
            "clktune_mc_samples_total",
            "Monte-Carlo feasibility samples evaluated"),
        obs::Registry::global().histogram(
            "clktune_mc_solve_seconds",
            "Per-sample feasibility solve wall time (sampled 1-in-64)",
            1e-9),
    };
    return m;
  }
};

/// Stride of the per-sample timing probe: every 64th solve pays two
/// steady-clock reads, the rest pay nothing.
constexpr std::uint64_t kSolveTimingStride = 64;

/// 1 when sample k passes `check`, else 0; every stride-th check is timed.
template <class Check>
std::uint64_t count_pass(std::size_t k, McMetrics& metrics,
                         const Check& check) {
  if ((k & (kSolveTimingStride - 1)) != 0) return check() ? 1 : 0;
  const std::uint64_t t0 = obs::steady_now_ns();
  const bool feasible = check();
  metrics.solve_seconds.record(obs::steady_now_ns() - t0);
  return feasible ? 1 : 0;
}

}  // namespace

void YieldEvaluator::add_static_edge(int u, int v, std::int64_t w) {
  // Constraint x_u - x_v <= w: edge v -> u with weight w.
  edge_to_.push_back(u);
  edge_next_.push_back(head_[static_cast<std::size_t>(v)]);
  head_[static_cast<std::size_t>(v)] =
      static_cast<int>(edge_to_.size()) - 1;
  weights_template_.push_back(w);
}

YieldEvaluator::YieldEvaluator(const ssta::SeqGraph& graph, TuningPlan plan,
                               double clock_period_ps)
    : graph_(&graph), plan_(std::move(plan)), clock_period_(clock_period_ps) {
  CLKTUNE_EXPECTS(clock_period_ps > 0.0);
  if (plan_.group_of.size() != plan_.buffers.size()) plan_.reset_groups();
  var_of_ff_.assign(static_cast<std::size_t>(graph.num_ffs), -1);
  for (std::size_t i = 0; i < plan_.buffers.size(); ++i) {
    const int ff = plan_.buffers[i].ff;
    CLKTUNE_EXPECTS(ff >= 0 && ff < graph.num_ffs);
    var_of_ff_[static_cast<std::size_t>(ff)] = plan_.group_of[i];
  }
  group_windows_.clear();
  for (int g = 0; g < plan_.num_groups; ++g)
    group_windows_.push_back(plan_.group_window(g));

  // Static topology: the reference node is plan_.num_groups.
  const int ref = plan_.num_groups;
  head_.assign(static_cast<std::size_t>(ref) + 1, -1);

  // Window bounds vs the reference node (weights final).
  for (int g = 0; g < plan_.num_groups; ++g) {
    add_static_edge(g, ref, group_windows_[static_cast<std::size_t>(g)].k_hi);
    add_static_edge(ref, g, -group_windows_[static_cast<std::size_t>(g)].k_lo);
  }

  // Arc partition: tuning cancels on same-variable arcs (both unbuffered,
  // or both in one group), leaving a per-sample sign test; the rest get
  // two weight slots in the static graph.
  for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
    const ssta::SeqArc& arc = graph.arcs[e];
    const int vi = var_of_ff_[static_cast<std::size_t>(arc.src_ff)];
    const int vj = var_of_ff_[static_cast<std::size_t>(arc.dst_ff)];
    const int ui = vi < 0 ? ref : vi;
    const int uj = vj < 0 ? ref : vj;
    if (ui == uj) {
      check_arcs_.push_back(static_cast<int>(e));
      continue;
    }
    EdgeArc ea;
    ea.arc = static_cast<int>(e);
    ea.setup_slot = static_cast<int>(weights_template_.size());
    add_static_edge(ui, uj, 0);  // setup: x_ui - x_uj <= setup_steps
    ea.hold_slot = static_cast<int>(weights_template_.size());
    add_static_edge(uj, ui, 0);  // hold:  x_uj - x_ui <= hold_steps
    edge_arcs_.push_back(ea);
  }
}

bool YieldEvaluator::solve_chip(const mc::ChipView& chip,
                                Workspace& ws) const {
  const ssta::SeqGraph& graph = *graph_;

  // ---- check-only arcs: sign tests with early exit ----------------------
  // The setup constant falls as the late delay grows and the hold constant
  // rises with the early delay, so late_hi and early_lo give their lowest
  // values; only an arc those cannot prove clean is drawn.
  for (const int e : check_arcs_) {
    const auto es = static_cast<std::size_t>(e);
    const mc::DelayBounds b = chip.bounds(es);
    double setup_c = 0.0, hold_c = 0.0;
    mc::arc_slack(graph, es, b.late_hi, b.early_lo, clock_period_, setup_c,
                  hold_c);
    if (setup_c >= 0.0 && hold_c >= 0.0) continue;
    double late = 0.0, early = 0.0;
    chip.delays(es, late, early);
    mc::arc_slack(graph, es, late, early, clock_period_, setup_c, hold_c);
    if (setup_c < 0.0 || hold_c < 0.0) return false;
  }
  if (edge_arcs_.empty() && plan_.num_groups == 0) {
    // No variables at all: feasible, all-zero potentials.
    ws.spfa.dist.assign(1, 0);
    return true;
  }

  // ---- edge arcs: rewrite the per-sample weights ------------------------
  const double step = plan_.step_ps;
  ws.weights.assign(weights_template_.begin(), weights_template_.end());
  for (const EdgeArc& ea : edge_arcs_) {
    const auto es = static_cast<std::size_t>(ea.arc);
    double late = 0.0, early = 0.0;
    chip.delays(es, late, early);
    double setup_c = 0.0, hold_c = 0.0;
    mc::arc_slack(graph, es, late, early, clock_period_, setup_c, hold_c);
    ws.weights[static_cast<std::size_t>(ea.setup_slot)] =
        mc::floor_steps(setup_c, step);
    ws.weights[static_cast<std::size_t>(ea.hold_slot)] =
        mc::floor_steps(hold_c, step);
  }

  // ---- SPFA over the static topology ------------------------------------
  return spfa_potentials(
      plan_.num_groups + 1, ws.spfa,
      [&](int v) { return head_[static_cast<std::size_t>(v)]; },
      [&](int e) { return edge_next_[static_cast<std::size_t>(e)]; },
      [&](int e) { return edge_to_[static_cast<std::size_t>(e)]; },
      [&](int e) { return ws.weights[static_cast<std::size_t>(e)]; });
}

bool YieldEvaluator::sample_feasible(const mc::ChipView& chip) const {
  thread_local Workspace ws;
  return solve_chip(chip, ws);
}

std::vector<int> YieldEvaluator::config_from_workspace(
    const Workspace& ws) const {
  // Normalise so the reference node sits at zero.
  const auto ref = static_cast<std::size_t>(plan_.num_groups);
  const std::vector<std::int64_t>& dist = ws.spfa.dist;
  const std::int64_t base = dist.size() > ref ? dist[ref] : 0;
  std::vector<int> config(static_cast<std::size_t>(plan_.num_groups));
  for (int g = 0; g < plan_.num_groups; ++g)
    config[static_cast<std::size_t>(g)] =
        static_cast<int>(dist[static_cast<std::size_t>(g)] - base);
  return config;
}

std::optional<std::vector<int>> YieldEvaluator::find_configuration(
    const mc::ChipView& chip) const {
  thread_local Workspace ws;
  if (!solve_chip(chip, ws)) return std::nullopt;
  return config_from_workspace(ws);
}

YieldResult yield_of(std::uint64_t passing, std::uint64_t samples) {
  YieldResult result;
  result.samples = samples;
  result.passing = passing;
  result.yield = samples == 0 ? 0.0
                              : static_cast<double>(passing) /
                                    static_cast<double>(samples);
  result.ci95 = util::yield_ci95(result.yield, samples);
  return result;
}

TuningPlan empty_plan() {
  TuningPlan empty;
  empty.step_ps = 1.0;
  empty.reset_groups();
  return empty;
}

YieldReport evaluate_yield_report(const ssta::SeqGraph& graph,
                                  const TuningPlan& plan,
                                  double clock_period_ps,
                                  std::uint64_t eval_seed,
                                  std::uint64_t samples, int threads) {
  YieldReport report;
  report.clock_period_ps = clock_period_ps;
  report.eval_seed = eval_seed;
  const mc::Sampler sampler(graph, eval_seed);
  const YieldEvaluator original(graph, empty_plan(), clock_period_ps);
  const YieldEvaluator tuned(graph, plan, clock_period_ps);

  // Each chip is opened once and both evaluators check that view: realised
  // delays do not depend on the plan, so an arc bounded or drawn for Yo is
  // not computed again for Y.
  struct Passing {
    std::uint64_t original = 0;
    std::uint64_t tuned = 0;
  };
  McMetrics& metrics = McMetrics::get();
  const std::vector<Passing> partial = mc::fold_chips(
      sampler, samples, threads, Passing{},
      [&](Passing& acc, std::uint64_t k, const mc::ChipView& chip) {
        acc.original += count_pass(
            k, metrics, [&] { return original.sample_feasible(chip); });
        acc.tuned += count_pass(
            k, metrics, [&] { return tuned.sample_feasible(chip); });
      });
  Passing total;
  for (const Passing& p : partial) {
    total.original += p.original;
    total.tuned += p.tuned;
  }
  // One count per feasibility check, as two evaluations would add.
  metrics.samples.inc(2 * samples);
  report.original = yield_of(total.original, samples);
  report.tuned = yield_of(total.tuned, samples);
  return report;
}

}  // namespace clktune::feas
