#include "analysis/criticality.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "core/baselines.h"
#include "feas/yield_eval.h"
#include "mc/arc_constants.h"
#include "mc/fold.h"
#include "mc/sampler.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace clktune::analysis {

using util::Json;

namespace {

struct CriticalityMetrics {
  obs::Counter& samples;

  static CriticalityMetrics& get() {
    static CriticalityMetrics m{
        obs::Registry::global().counter(
            "clktune_criticality_samples_total",
            "Monte-Carlo samples evaluated for criticality"),
    };
    return m;
  }
};

/// Per-worker integer tallies; summed in worker order so the totals are
/// bit-identical regardless of thread count.  The scratch members carry no
/// result, only the worker's buffers from one chip to the next.
struct Partial {
  std::vector<std::uint64_t> arc_before;
  std::vector<std::uint64_t> arc_after;
  std::vector<std::uint64_t> ff_before;
  std::vector<std::uint64_t> ff_after;
  std::vector<std::uint64_t> incidence;  ///< failing-arc incidence at x = 0
  std::uint64_t untunable = 0;

  std::vector<double> setup_c, hold_c, slack;  ///< scratch
  std::vector<int> binding, ffs;               ///< scratch

  Partial(std::size_t num_arcs, std::size_t num_ffs)
      : arc_before(num_arcs, 0),
        arc_after(num_arcs, 0),
        ff_before(num_ffs, 0),
        ff_after(num_ffs, 0),
        incidence(num_ffs, 0),
        setup_c(num_arcs),
        hold_c(num_arcs),
        slack(num_arcs) {}
};

/// Arcs attaining the minimum of `slack` (exact double ties all count).
void binding_arcs(const std::vector<double>& slack, std::vector<int>& out) {
  out.clear();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t e = 0; e < slack.size(); ++e) {
    if (slack[e] < best) {
      best = slack[e];
      out.clear();
      out.push_back(static_cast<int>(e));
    } else if (slack[e] == best) {
      out.push_back(static_cast<int>(e));
    }
  }
}

/// Counts the binding arcs and their endpoint registers (each register at
/// most once per sample, even when several tied arcs share it).
void tally(const ssta::SeqGraph& graph, const std::vector<int>& binding,
           std::vector<std::uint64_t>& arc_count,
           std::vector<std::uint64_t>& ff_count, std::vector<int>& ffs) {
  ffs.clear();
  for (const int e : binding) {
    ++arc_count[static_cast<std::size_t>(e)];
    const ssta::SeqArc& arc = graph.arcs[static_cast<std::size_t>(e)];
    for (const int f : {arc.src_ff, arc.dst_ff})
      if (std::find(ffs.begin(), ffs.end(), f) == ffs.end()) ffs.push_back(f);
  }
  for (const int f : ffs) ++ff_count[static_cast<std::size_t>(f)];
}

Json arc_json(const ArcCriticality& a) {
  Json j = Json::object();
  j.set("arc", static_cast<std::uint64_t>(a.arc));
  j.set("src_ff", a.src_ff);
  j.set("dst_ff", a.dst_ff);
  j.set("binding_before", a.binding_before);
  j.set("binding_after", a.binding_after);
  j.set("before", a.before);
  j.set("after", a.after);
  return j;
}

Json register_json(const RegisterCriticality& r) {
  Json j = Json::object();
  j.set("ff", r.ff);
  j.set("binding_before", r.binding_before);
  j.set("binding_after", r.binding_after);
  j.set("failing_incidence", r.failing_incidence);
  j.set("before", r.before);
  j.set("after", r.after);
  return j;
}

}  // namespace

Json CriticalityReport::to_json() const {
  Json j = Json::object();
  j.set("samples", samples);
  j.set("eval_seed", eval_seed);
  j.set("clock_period_ps", clock_period_ps);
  j.set("top_k", top_k);
  j.set("untunable", untunable);
  Json arc_list = Json::array();
  for (const ArcCriticality& a : arcs) arc_list.push_back(arc_json(a));
  j.set("arcs", std::move(arc_list));
  Json reg_list = Json::array();
  for (const RegisterCriticality& r : registers)
    reg_list.push_back(register_json(r));
  j.set("registers", std::move(reg_list));
  return j;
}

CriticalityReport CriticalityReport::from_json(const Json& j) {
  CriticalityReport report;
  report.samples = j.at("samples").as_uint();
  report.eval_seed = j.at("eval_seed").as_uint();
  report.clock_period_ps = j.at("clock_period_ps").as_double();
  report.top_k = static_cast<int>(j.at("top_k").as_int());
  report.untunable = j.at("untunable").as_uint();
  for (const Json& a : j.at("arcs").as_array()) {
    ArcCriticality arc;
    arc.arc = static_cast<std::size_t>(a.at("arc").as_uint());
    arc.src_ff = static_cast<int>(a.at("src_ff").as_int());
    arc.dst_ff = static_cast<int>(a.at("dst_ff").as_int());
    arc.binding_before = a.at("binding_before").as_uint();
    arc.binding_after = a.at("binding_after").as_uint();
    arc.before = a.at("before").as_double();
    arc.after = a.at("after").as_double();
    report.arcs.push_back(arc);
  }
  for (const Json& r : j.at("registers").as_array()) {
    RegisterCriticality reg;
    reg.ff = static_cast<int>(r.at("ff").as_int());
    reg.binding_before = r.at("binding_before").as_uint();
    reg.binding_after = r.at("binding_after").as_uint();
    reg.failing_incidence = r.at("failing_incidence").as_uint();
    reg.before = r.at("before").as_double();
    reg.after = r.at("after").as_double();
    report.registers.push_back(reg);
  }
  return report;
}

CriticalityReport compute_criticality(const ssta::SeqGraph& graph,
                                      const feas::TuningPlan& plan,
                                      double clock_period_ps,
                                      std::uint64_t eval_seed,
                                      std::uint64_t samples,
                                      const CriticalityOptions& options,
                                      int threads) {
  CLKTUNE_EXPECTS(clock_period_ps > 0.0);
  CLKTUNE_EXPECTS(options.top_k >= 1);
  const std::size_t num_arcs = graph.arcs.size();
  const std::size_t num_ffs = static_cast<std::size_t>(graph.num_ffs);

  const mc::Sampler sampler(graph, eval_seed);
  const feas::YieldEvaluator eval(graph, plan, clock_period_ps);
  const double step = plan.step_ps;

  const std::vector<Partial> partial = mc::fold_chips(
      sampler, samples, threads, Partial(num_arcs, num_ffs),
      [&](Partial& p, std::uint64_t, const mc::ArcSample& chip) {
        for (std::size_t e = 0; e < num_arcs; ++e) {
          mc::arc_slack(graph, e, chip.dmax[e], chip.dmin[e], clock_period_ps,
                        p.setup_c[e], p.hold_c[e]);
          p.slack[e] = std::min(p.setup_c[e], p.hold_c[e]);
        }
        binding_arcs(p.slack, p.binding);
        tally(graph, p.binding, p.arc_before, p.ff_before, p.ffs);

        core::add_failing_incidence(graph, chip, clock_period_ps, p.incidence);
        const std::optional<std::vector<int>> config =
            eval.find_configuration(chip);
        if (!config) {
          // Untunable chip: its critical path is the untuned one.
          ++p.untunable;
          tally(graph, p.binding, p.arc_after, p.ff_after, p.ffs);
          return;
        }
        for (std::size_t e = 0; e < num_arcs; ++e) {
          const ssta::SeqArc& arc = graph.arcs[e];
          const int vi = eval.group_of_ff(arc.src_ff);
          const int vj = eval.group_of_ff(arc.dst_ff);
          const int xi = vi < 0 ? 0 : (*config)[static_cast<std::size_t>(vi)];
          const int xj = vj < 0 ? 0 : (*config)[static_cast<std::size_t>(vj)];
          p.slack[e] = std::min(p.setup_c[e] + step * (xj - xi),
                                p.hold_c[e] + step * (xi - xj));
        }
        binding_arcs(p.slack, p.binding);
        tally(graph, p.binding, p.arc_after, p.ff_after, p.ffs);
      });
  CriticalityMetrics::get().samples.inc(samples);

  Partial total(num_arcs, num_ffs);
  for (const Partial& p : partial) {
    for (std::size_t e = 0; e < num_arcs; ++e) {
      total.arc_before[e] += p.arc_before[e];
      total.arc_after[e] += p.arc_after[e];
    }
    for (std::size_t f = 0; f < num_ffs; ++f) {
      total.ff_before[f] += p.ff_before[f];
      total.ff_after[f] += p.ff_after[f];
      total.incidence[f] += p.incidence[f];
    }
    total.untunable += p.untunable;
  }

  CriticalityReport report;
  report.samples = samples;
  report.eval_seed = eval_seed;
  report.clock_period_ps = clock_period_ps;
  report.top_k = options.top_k;
  report.untunable = total.untunable;

  const double denom =
      samples == 0 ? 1.0 : static_cast<double>(samples);
  const auto rank = [](const std::vector<std::uint64_t>& before,
                       const std::vector<std::uint64_t>& after) {
    std::vector<std::size_t> order(before.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (before[a] != before[b]) return before[a] > before[b];
                       return after[a] > after[b];
                     });
    return order;
  };

  for (const std::size_t e : rank(total.arc_before, total.arc_after)) {
    if (static_cast<int>(report.arcs.size()) >= options.top_k) break;
    if (total.arc_before[e] == 0 && total.arc_after[e] == 0) break;
    ArcCriticality a;
    a.arc = e;
    a.src_ff = graph.arcs[e].src_ff;
    a.dst_ff = graph.arcs[e].dst_ff;
    a.binding_before = total.arc_before[e];
    a.binding_after = total.arc_after[e];
    a.before = static_cast<double>(a.binding_before) / denom;
    a.after = static_cast<double>(a.binding_after) / denom;
    report.arcs.push_back(a);
  }
  for (const std::size_t f : rank(total.ff_before, total.ff_after)) {
    if (static_cast<int>(report.registers.size()) >= options.top_k) break;
    if (total.ff_before[f] == 0 && total.ff_after[f] == 0) break;
    RegisterCriticality r;
    r.ff = static_cast<int>(f);
    r.binding_before = total.ff_before[f];
    r.binding_after = total.ff_after[f];
    r.failing_incidence = total.incidence[f];
    r.before = static_cast<double>(r.binding_before) / denom;
    r.after = static_cast<double>(r.binding_after) / denom;
    report.registers.push_back(r);
  }
  return report;
}

}  // namespace clktune::analysis
