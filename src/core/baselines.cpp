#include "core/baselines.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "mc/fold.h"

namespace clktune::core {

void add_failing_incidence(const ssta::SeqGraph& graph,
                           const mc::ArcSample& chip,
                           double clock_period_ps,
                           std::vector<std::uint64_t>& incidence) {
  for (std::size_t e = 0; e < graph.arcs.size(); ++e) {
    const ssta::SeqArc& arc = graph.arcs[e];
    const auto i = static_cast<std::size_t>(arc.src_ff);
    const auto j = static_cast<std::size_t>(arc.dst_ff);
    const double slack = clock_period_ps - graph.setup_ps[j] -
                         chip.dmax[e] + graph.skew_ps[j] - graph.skew_ps[i];
    if (slack < 0.0) {
      ++incidence[i];
      if (i != j) ++incidence[j];
    }
  }
}

std::vector<std::uint64_t> criticality_incidence(const ssta::SeqGraph& graph,
                                                 const mc::Sampler& sampler,
                                                 double clock_period_ps,
                                                 std::uint64_t samples,
                                                 int threads) {
  using Counts = std::vector<std::uint64_t>;
  Counts incidence(static_cast<std::size_t>(graph.num_ffs), 0);
  const std::vector<Counts> partial = mc::fold_chips(
      sampler, samples, threads, incidence,
      [&](Counts& acc, std::uint64_t, const mc::ArcSample& chip) {
        add_failing_incidence(graph, chip, clock_period_ps, acc);
      });
  for (const Counts& p : partial)
    for (std::size_t f = 0; f < incidence.size(); ++f) incidence[f] += p[f];
  return incidence;
}

feas::TuningPlan plan_from_incidence(
    const ssta::SeqGraph& graph, const std::vector<std::uint64_t>& incidence,
    int k, int steps, double step_ps) {
  std::vector<int> order(static_cast<std::size_t>(graph.num_ffs));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return incidence[static_cast<std::size_t>(a)] >
           incidence[static_cast<std::size_t>(b)];
  });

  feas::TuningPlan plan;
  plan.step_ps = step_ps;
  const int half = steps / 2;
  for (int i = 0; i < k && i < graph.num_ffs; ++i) {
    const int ff = order[static_cast<std::size_t>(i)];
    if (incidence[static_cast<std::size_t>(ff)] == 0) break;
    plan.buffers.push_back(feas::BufferWindow{ff, -half, half});
  }
  plan.reset_groups();
  return plan;
}

feas::TuningPlan top_k_criticality_plan(const ssta::SeqGraph& graph,
                                        const mc::Sampler& sampler,
                                        double clock_period_ps,
                                        std::uint64_t samples, int k,
                                        int steps, double step_ps,
                                        int threads) {
  return plan_from_incidence(
      graph,
      criticality_incidence(graph, sampler, clock_period_ps, samples,
                            threads),
      k, steps, step_ps);
}

feas::TuningPlan oracle_plan(const ssta::SeqGraph& graph, int steps,
                             double step_ps) {
  feas::TuningPlan plan;
  plan.step_ps = step_ps;
  const int half = steps / 2;
  for (int f = 0; f < graph.num_ffs; ++f)
    plan.buffers.push_back(feas::BufferWindow{f, -half, half});
  plan.reset_groups();
  return plan;
}

}  // namespace clktune::core
