// Tests for the src/analysis subsystem: criticality and clock-binning
// engines, their scenario-kind plumbing, and the determinism / one-pass
// sampling contracts the reports advertise.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/binning.h"
#include "analysis/criticality.h"
#include "core/baselines.h"
#include "mc/period_mc.h"
#include "mc/sampler.h"
#include "netlist/generator.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "ssta/seq_graph.h"
#include "util/json.h"

namespace clktune::analysis {
namespace {

using util::Json;
using util::JsonError;

struct Fixture {
  netlist::Design design;
  ssta::SeqGraph graph;
  double period_mu = 0.0;
  double period_sigma = 0.0;
  feas::TuningPlan plan;

  Fixture() {
    netlist::SyntheticSpec spec;
    spec.num_flipflops = 40;
    spec.num_gates = 300;
    spec.seed = 611;
    design = netlist::generate(spec);
    graph = ssta::extract_seq_graph(design);
    const mc::Sampler sampler(graph, 20160314);
    const mc::PeriodStats stats = mc::sample_min_period(sampler, 800);
    period_mu = stats.mu();
    period_sigma = stats.sigma();
    plan = core::top_k_criticality_plan(graph, sampler, period_mu, 400,
                                        /*k=*/6, /*steps=*/8, /*step_ps=*/4.0);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// --------------------------------------------------------- criticality

TEST(CriticalityTest, ReportIsDeterministicAcrossThreadCounts) {
  const Fixture& f = fixture();
  CriticalityOptions options;
  options.top_k = 10;
  const CriticalityReport one = compute_criticality(
      f.graph, f.plan, f.period_mu, /*eval_seed=*/77, /*samples=*/500,
      options, /*threads=*/1);
  const CriticalityReport four = compute_criticality(
      f.graph, f.plan, f.period_mu, /*eval_seed=*/77, /*samples=*/500,
      options, /*threads=*/4);
  EXPECT_EQ(one.to_json().dump(), four.to_json().dump())
      << "integer partials summed in worker order must make the report "
         "bit-identical for any thread count";
}

TEST(CriticalityTest, ReportRoundTripsThroughJsonByteExactly) {
  const Fixture& f = fixture();
  CriticalityOptions options;
  options.top_k = 8;
  const CriticalityReport report = compute_criticality(
      f.graph, f.plan, f.period_mu, /*eval_seed=*/5, /*samples=*/300, options);
  const std::string bytes = report.to_json().dump();
  const CriticalityReport back = CriticalityReport::from_json(Json::parse(bytes));
  EXPECT_EQ(back.to_json().dump(), bytes);
}

TEST(CriticalityTest, RankingInvariantsHold) {
  const Fixture& f = fixture();
  CriticalityOptions options;
  options.top_k = 10;
  const std::uint64_t samples = 500;
  const CriticalityReport report = compute_criticality(
      f.graph, f.plan, f.period_mu, /*eval_seed=*/77, samples, options);

  ASSERT_FALSE(report.arcs.empty()) << "every chip has a binding arc";
  EXPECT_LE(report.arcs.size(), static_cast<std::size_t>(options.top_k));
  EXPECT_LE(report.registers.size(), static_cast<std::size_t>(options.top_k));
  EXPECT_EQ(report.samples, samples);
  EXPECT_LE(report.untunable, samples);
  for (std::size_t i = 0; i < report.arcs.size(); ++i) {
    const ArcCriticality& arc = report.arcs[i];
    EXPECT_GT(arc.binding_before, 0u) << "never-binding arcs are not ranked";
    EXPECT_LE(arc.binding_before, samples);
    EXPECT_LE(arc.binding_after, samples);
    EXPECT_DOUBLE_EQ(arc.before,
                     static_cast<double>(arc.binding_before) / samples);
    EXPECT_DOUBLE_EQ(arc.after,
                     static_cast<double>(arc.binding_after) / samples);
    if (i > 0) {
      EXPECT_GE(report.arcs[i - 1].binding_before, arc.binding_before)
          << "rank order is binding_before descending";
    }
    const ssta::SeqArc& topo = f.graph.arcs[arc.arc];
    EXPECT_EQ(topo.src_ff, arc.src_ff);
    EXPECT_EQ(topo.dst_ff, arc.dst_ff);
  }
  for (const RegisterCriticality& reg : report.registers) {
    EXPECT_GT(reg.binding_before, 0u);
    EXPECT_LE(reg.binding_before, samples);
    EXPECT_DOUBLE_EQ(reg.before,
                     static_cast<double>(reg.binding_before) / samples);
  }
}

// The incidence tallied inside the criticality pass must equal the one
// core::criticality_incidence computes over the same sampler.
TEST(CriticalityTest, FailingIncidenceMatchesCoreStatistic) {
  const Fixture& f = fixture();
  CriticalityOptions options;
  options.top_k = 40;
  const std::uint64_t seed = 91, samples = 500;
  const CriticalityReport report = compute_criticality(
      f.graph, f.plan, f.period_mu, seed, samples, options, /*threads=*/3);
  const mc::Sampler sampler(f.graph, seed);
  const std::vector<std::uint64_t> incidence = core::criticality_incidence(
      f.graph, sampler, f.period_mu, samples, /*threads=*/2);
  ASSERT_FALSE(report.registers.empty());
  std::uint64_t nonzero = 0;
  for (const RegisterCriticality& reg : report.registers) {
    EXPECT_EQ(reg.failing_incidence,
              incidence[static_cast<std::size_t>(reg.ff)])
        << "ff " << reg.ff;
    nonzero += reg.failing_incidence > 0 ? 1 : 0;
  }
  EXPECT_GT(nonzero, 0u);
}

// Satellite: the hoisted core::criticality_incidence must reproduce the
// exact plan top_k_criticality_plan builds — one statistic, two callers.
TEST(CriticalityTest, IncidenceAgreesWithBaselinePlan) {
  const Fixture& f = fixture();
  const mc::Sampler sampler(f.graph, 424242);
  const double t = f.period_mu;
  const std::uint64_t samples = 600;
  const int k = 5, steps = 8;
  const double step_ps = 3.0;

  const std::vector<std::uint64_t> incidence =
      core::criticality_incidence(f.graph, sampler, t, samples, /*threads=*/2);
  const feas::TuningPlan a =
      core::plan_from_incidence(f.graph, incidence, k, steps, step_ps);
  const feas::TuningPlan b = core::top_k_criticality_plan(
      f.graph, sampler, t, samples, k, steps, step_ps, /*threads=*/2);

  ASSERT_EQ(a.buffers.size(), b.buffers.size());
  for (std::size_t i = 0; i < a.buffers.size(); ++i) {
    EXPECT_EQ(a.buffers[i].ff, b.buffers[i].ff);
    EXPECT_EQ(a.buffers[i].k_lo, b.buffers[i].k_lo);
    EXPECT_EQ(a.buffers[i].k_hi, b.buffers[i].k_hi);
  }
  EXPECT_EQ(a.group_of, b.group_of);
  EXPECT_EQ(a.num_groups, b.num_groups);
  EXPECT_DOUBLE_EQ(a.step_ps, b.step_ps);
}

// ------------------------------------------------------------- binning

std::vector<double> three_rung_ladder(const Fixture& f) {
  return {f.period_mu - f.period_sigma, f.period_mu,
          f.period_mu + 2.0 * f.period_sigma};
}

TEST(BinningTest, ReportIsDeterministicAcrossThreadCounts) {
  const Fixture& f = fixture();
  const std::vector<double> ladder = three_rung_ladder(f);
  const BinningReport one = compute_binning(f.graph, f.plan, ladder,
                                            /*eval_seed=*/33, /*samples=*/500,
                                            /*threads=*/1);
  const BinningReport four = compute_binning(f.graph, f.plan, ladder,
                                             /*eval_seed=*/33, /*samples=*/500,
                                             /*threads=*/4);
  EXPECT_EQ(one.to_json().dump(), four.to_json().dump());
}

TEST(BinningTest, ReportRoundTripsThroughJsonByteExactly) {
  const Fixture& f = fixture();
  const BinningReport report =
      compute_binning(f.graph, f.plan, three_rung_ladder(f),
                      /*eval_seed=*/9, /*samples=*/300);
  const std::string bytes = report.to_json().dump();
  const BinningReport back = BinningReport::from_json(Json::parse(bytes));
  EXPECT_EQ(back.to_json().dump(), bytes);
}

TEST(BinningTest, SellHistogramInvariantsHold) {
  const Fixture& f = fixture();
  const std::vector<double> ladder = three_rung_ladder(f);
  const std::uint64_t samples = 600;
  const BinningReport report = compute_binning(f.graph, f.plan, ladder,
                                               /*eval_seed=*/33, samples);

  ASSERT_EQ(report.bins.size(), ladder.size());
  std::uint64_t sold = 0, cumulative = 0;
  for (std::size_t r = 0; r < report.bins.size(); ++r) {
    const BinYield& bin = report.bins[r];
    EXPECT_DOUBLE_EQ(bin.period_ps, ladder[r]);
    EXPECT_EQ(bin.tuned.samples, samples);
    EXPECT_EQ(bin.original.samples, samples);
    // Slower clock can only help setup and leaves hold untouched, so
    // feasibility — and therefore yield — is monotone up the ladder.
    if (r > 0) {
      EXPECT_GE(bin.tuned.passing, report.bins[r - 1].tuned.passing);
      EXPECT_GE(bin.original.passing, report.bins[r - 1].original.passing);
    }
    // Chips feasible at rung r are exactly the ones whose fastest
    // feasible bin is <= r.
    cumulative += bin.sell;
    EXPECT_EQ(bin.tuned.passing, cumulative);
    EXPECT_DOUBLE_EQ(bin.sell_fraction,
                     static_cast<double>(bin.sell) / samples);
    sold += bin.sell;
  }
  EXPECT_EQ(sold + report.unsellable, samples)
      << "every chip sells in exactly one bin or not at all";
  EXPECT_DOUBLE_EQ(report.unsellable_fraction,
                   static_cast<double>(report.unsellable) / samples);
  if (sold > 0) {
    EXPECT_GE(report.expected_sell_period_ps, ladder.front());
    EXPECT_LE(report.expected_sell_period_ps, ladder.back());
  }
}

// The ISSUE's headline binning property: one sampling pass regardless of
// ladder length.  The engine's counters expose exactly this — sampling
// passes advance by `samples`, rung evaluations by samples * rungs * 2
// (tuned + original per rung).
TEST(BinningTest, LadderSharesOneSamplingPass) {
  const Fixture& f = fixture();
  obs::Counter& passes = obs::Registry::global().counter(
      "clktune_binning_sampling_passes_total",
      "Monte-Carlo chips sampled by binning runs (one pass per chip, "
      "shared by every rung)");
  obs::Counter& evals = obs::Registry::global().counter(
      "clktune_binning_rung_evals_total",
      "Per-rung feasibility evaluations by binning runs (tuned and "
      "original count separately)");
  const std::uint64_t passes_before = passes.value();
  const std::uint64_t evals_before = evals.value();

  const std::uint64_t samples = 400;
  const std::vector<double> ladder = three_rung_ladder(f);
  compute_binning(f.graph, f.plan, ladder, /*eval_seed=*/12, samples);

  EXPECT_EQ(passes.value() - passes_before, samples)
      << "a longer ladder must not resample chips per rung";
  EXPECT_EQ(evals.value() - evals_before, samples * ladder.size() * 2);
}

TEST(BinningTest, RejectsMalformedLadders) {
  const Fixture& f = fixture();
  EXPECT_THROW(compute_binning(f.graph, f.plan, {}, 1, 10), JsonError);
  EXPECT_THROW(compute_binning(f.graph, f.plan, {500.0, 400.0}, 1, 10),
               JsonError)
      << "ladder must be strictly ascending";
  EXPECT_THROW(compute_binning(f.graph, f.plan, {400.0, 400.0}, 1, 10),
               JsonError);
  EXPECT_THROW(compute_binning(f.graph, f.plan, {-5.0, 400.0}, 1, 10),
               JsonError)
      << "periods must be positive";
}

// ------------------------------------------------- scenario-kind plumbing

Json tiny_scenario_doc() {
  Json design = Json::object();
  Json synth = Json::object();
  synth.set("name", "tiny");
  synth.set("num_flipflops", 30);
  synth.set("num_gates", 220);
  synth.set("seed", 5);
  design.set("synthetic", std::move(synth));

  Json clock = Json::object();
  clock.set("sigma_offset", 0.0);
  clock.set("period_samples", 400);

  Json insertion = Json::object();
  insertion.set("num_samples", 200);
  insertion.set("steps", 8);

  Json evaluation = Json::object();
  evaluation.set("samples", 400);
  evaluation.set("seed", 99);

  Json doc = Json::object();
  doc.set("name", "tiny");
  doc.set("design", std::move(design));
  doc.set("clock", std::move(clock));
  doc.set("insertion", std::move(insertion));
  doc.set("evaluation", std::move(evaluation));
  return doc;
}

Json criticality_doc() {
  Json doc = tiny_scenario_doc();
  doc.set("kind", "criticality");
  Json options = Json::object();
  options.set("top_k", 6);
  doc.set("criticality", std::move(options));
  return doc;
}

Json binning_doc() {
  Json doc = tiny_scenario_doc();
  doc.set("kind", "binning");
  Json bins = Json::object();
  Json rungs = Json::array();
  for (double offset : {-1.0, 0.0, 2.0}) rungs.push_back(Json(offset));
  bins.set("sigma_offsets", std::move(rungs));
  doc.set("bins", std::move(bins));
  return doc;
}

TEST(ScenarioKindTest, KindTaggedSpecsRoundTripByteExactly) {
  for (const Json& doc : {criticality_doc(), binning_doc()}) {
    const auto spec = scenario::ScenarioSpec::from_json(doc);
    const std::string bytes = spec.to_json().dump();
    const auto back = scenario::ScenarioSpec::from_json(Json::parse(bytes));
    EXPECT_EQ(back.to_json().dump(), bytes);
  }
}

TEST(ScenarioKindTest, YieldSpecAndResultCarryNoKindMember) {
  // Backward compatibility: documents and artifacts of the original
  // workload must serialise byte-identically to before kinds existed.
  const auto spec = scenario::ScenarioSpec::from_json(tiny_scenario_doc());
  EXPECT_EQ(spec.kind, scenario::ScenarioKind::yield);
  EXPECT_EQ(spec.to_json().find("kind"), nullptr);
  const scenario::ScenarioResult result = scenario::run_scenario(spec, 2);
  EXPECT_EQ(result.to_json().find("kind"), nullptr);
}

TEST(ScenarioKindTest, RejectsInvalidKindDocuments) {
  using scenario::ScenarioSpec;
  {  // unknown kind name
    Json doc = tiny_scenario_doc();
    doc.set("kind", "voltage");
    EXPECT_THROW(ScenarioSpec::from_json(doc), JsonError);
  }
  {  // criticality options on a yield scenario
    Json doc = tiny_scenario_doc();
    Json options = Json::object();
    options.set("top_k", 4);
    doc.set("criticality", std::move(options));
    EXPECT_THROW(ScenarioSpec::from_json(doc), JsonError);
  }
  {  // bins on a criticality scenario
    Json doc = criticality_doc();
    Json bins = Json::object();
    Json rungs = Json::array();
    rungs.push_back(Json(500.0));
    bins.set("periods_ps", std::move(rungs));
    doc.set("bins", std::move(bins));
    EXPECT_THROW(ScenarioSpec::from_json(doc), JsonError);
  }
  {  // binning without a ladder
    Json doc = tiny_scenario_doc();
    doc.set("kind", "binning");
    EXPECT_THROW(ScenarioSpec::from_json(doc), JsonError);
  }
  {  // both explicit periods and sigma rungs
    Json doc = binning_doc();
    Json bins = doc.at("bins");
    Json rungs = Json::array();
    rungs.push_back(Json(400.0));
    bins.set("periods_ps", std::move(rungs));
    doc.set("bins", std::move(bins));
    EXPECT_THROW(ScenarioSpec::from_json(doc), JsonError);
  }
  {  // non-ascending explicit ladder
    Json doc = binning_doc();
    Json bins = Json::object();
    Json rungs = Json::array();
    rungs.push_back(Json(500.0));
    rungs.push_back(Json(400.0));
    bins.set("periods_ps", std::move(rungs));
    doc.set("bins", std::move(bins));
    EXPECT_THROW(ScenarioSpec::from_json(doc), JsonError);
  }
  {  // yield_target is a yield-kind concept
    Json doc = criticality_doc();
    doc.set("yield_target", 0.9);
    EXPECT_THROW(ScenarioSpec::from_json(doc), JsonError);
  }
}

TEST(ScenarioKindTest, CriticalityResultRoundTripsByteExactly) {
  const auto spec = scenario::ScenarioSpec::from_json(criticality_doc());
  const scenario::ScenarioResult result = scenario::run_scenario(spec, 2);
  EXPECT_EQ(result.kind, scenario::ScenarioKind::criticality);
  const std::string bytes = result.to_json().dump();
  EXPECT_EQ(Json::parse(bytes).at("kind").as_string(), "criticality");
  const auto back = scenario::ScenarioResult::from_json(Json::parse(bytes));
  EXPECT_EQ(back.to_json().dump(), bytes);
  EXPECT_FALSE(back.criticality.arcs.empty());
}

TEST(ScenarioKindTest, BinningResultRoundTripsAndDerivesSigmaLadder) {
  const auto spec = scenario::ScenarioSpec::from_json(binning_doc());
  const scenario::ScenarioResult result = scenario::run_scenario(spec, 2);
  EXPECT_EQ(result.kind, scenario::ScenarioKind::binning);
  ASSERT_EQ(result.binning.bins.size(), 3u);
  // sigma_offsets rungs resolve against the measured period distribution:
  // mu + offset * sigma, ascending.
  for (std::size_t r = 0; r < 3; ++r) {
    const double offset = r == 0 ? -1.0 : (r == 1 ? 0.0 : 2.0);
    EXPECT_DOUBLE_EQ(result.binning.bins[r].period_ps,
                     result.period_mu_ps + offset * result.period_sigma_ps);
  }
  const std::string bytes = result.to_json().dump();
  const auto back = scenario::ScenarioResult::from_json(Json::parse(bytes));
  EXPECT_EQ(back.to_json().dump(), bytes);
}

}  // namespace
}  // namespace clktune::analysis
