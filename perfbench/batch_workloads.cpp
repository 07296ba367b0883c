// The in-process workloads: paper_flow and eval_heavy.
// Each times calls into the program's public functions from outside; the
// traced run arms the program's own obs::TraceSpans around a second pass
// of the same calls and reads them back.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "exec/local_executor.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "ssta/seq_graph.h"
#include "workloads.h"

namespace clktune::perfbench {

namespace {

using util::Json;
using util::JsonArray;

/// Set-up repetitions before the first measured pass and again after every
/// pass (see set_setup); the cheaper the set-up, the more of them.
constexpr int kPaperFlowSetups = 21;
constexpr int kEvalHeavySetups = 15;

/// Compares output `index` of a pass with the reference recorded for the
/// run's variant; in record mode the first pass records it and later passes
/// must reproduce it.
void expect_reference(const Options& options, RunReport& report,
                      std::size_t index, const Json& actual,
                      const std::string& what) {
  const std::string key = std::to_string(options.variant());
  if (options.record) {
    Json& recorded = report.recorded();
    if (recorded.find(key) == nullptr) recorded.set(key, Json::array());
    JsonArray& list = recorded.find(key)->as_array();
    if (index == list.size()) list.push_back(actual);
    report.check(index < list.size() &&
                     list[index].dump() == actual.dump(),
                 what + ": differs between passes of one run");
    return;
  }
  const Json* list = options.references.find(key);
  const bool ok = list != nullptr && list->is_array() &&
                  index < list->as_array().size() &&
                  list->as_array()[index].dump() == actual.dump();
  report.check(ok, what + ": " + actual.dump() +
                       " does not match the recorded reference for seed "
                       "variant " + key);
}

double seconds_since(std::uint64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

/// Sets the pass-shaped end-to-end metrics shared by the batch workloads.
/// A "run" is one unit of work (a cell or a scenario) and a "job" is one
/// whole pass.  A run measures too few passes for a tail
/// percentile to have samples beyond it, so the tails are medians over the
/// passes: run_p99_ms is the pass's slowest unit and job_p95_ms the pass.
void set_pass_metrics(RunReport& report, const std::vector<double>& passes,
                      const std::vector<double>& unit_seconds,
                      std::size_t units_per_pass) {
  std::fprintf(stderr, "perfbench: %zu passes:", passes.size());
  for (const double pass : passes) std::fprintf(stderr, " %.3f", pass);
  std::fprintf(stderr, " s\n");
  std::vector<double> slowest;
  for (std::size_t begin = 0; begin + units_per_pass <= unit_seconds.size();
       begin += units_per_pass)
    slowest.push_back(*std::max_element(
        unit_seconds.begin() + static_cast<std::ptrdiff_t>(begin),
        unit_seconds.begin() +
            static_cast<std::ptrdiff_t>(begin + units_per_pass)));
  const double wall = median(passes);
  report.set("wall_s", wall);
  report.set("throughput_rps", static_cast<double>(units_per_pass) / wall);
  report.set("run_p50_ms", 1e3 * median(unit_seconds));
  report.set("run_p99_ms", 1e3 * median(slowest));
  report.set("job_p95_ms", 1e3 * wall);
}

/// Runs `pass` with the program's obs::TraceSpans armed, then loads the
/// spans it recorded into `log`; returns the pass's seconds.
double traced_pass(const std::string& trace_path,
                   const std::function<double()>& pass, SpanLog& log) {
  double wall = 0.0;
  {
    const obs::TraceSession session(trace_path);
    wall = pass();
  }
  log.import_chrome_trace(trace_path);
  return wall;
}

/// The insertion engine's own per-step timing and counters, summed over
/// the results (core and milp layers).
void set_insertion_metrics(RunReport& report,
                           const std::vector<scenario::ScenarioResult>& results) {
  core::PhaseDiagnostics all;
  double step1 = 0.0, step2a = 0.0, step2b = 0.0;
  for (const scenario::ScenarioResult& result : results) {
    all.merge(result.insertion.step1);
    all.merge(result.insertion.step2a);
    all.merge(result.insertion.step2b);
    step1 += result.insertion.step1.seconds;
    step2a += result.insertion.step2a.seconds;
    step2b += result.insertion.step2b.seconds;
  }
  report.set("core.step1_s", step1);
  report.set("core.step2a_s", step2a);
  report.set("core.step2b_s", step2b);
  report.set("core.violating_samples",
             static_cast<double>(all.samples_with_violations));
  report.set("core.unfixable_samples",
             static_cast<double>(all.unfixable_samples));
  report.set("milp.solved", static_cast<double>(all.milps_solved));
  report.set("milp.nodes", static_cast<double>(all.milp_nodes));
  report.set("milp.truncated", static_cast<double>(all.truncated_milps));
  report.set("milp.lazy_rounds", static_cast<double>(all.lazy_rounds));
}

/// Design build + graph extraction of one design, timed as two layers.
struct BuiltDesign {
  netlist::Design design;
  ssta::SeqGraph graph;
  double build_s = 0.0;
  double extract_s = 0.0;
};

BuiltDesign build_design(const scenario::DesignSource& source) {
  BuiltDesign built;
  std::uint64_t t0 = now_ns();
  built.design = source.build();
  built.build_s = seconds_since(t0);
  t0 = now_ns();
  built.graph = ssta::extract_seq_graph(built.design);
  built.extract_s = seconds_since(t0);
  return built;
}

scenario::DesignSource paper_design(const std::string& circuit) {
  scenario::DesignSource source;
  source.kind = scenario::DesignSourceKind::paper_circuit;
  source.paper_circuit = circuit;
  return source;
}

// ------------------------------------------------------------ paper_flow

const char* const kPaperFlowCircuits[] = {"s9234", "s13207", "s15850",
                                          "s38584"};

/// The Table-I campaign.  The seed varies the out-of-sample evaluation
/// draw; insertion and period sampling keep the paper's seeds, so every
/// variant does the same insertion work.
Json paper_flow_campaign(std::uint64_t variant) {
  Json doc = Json::parse(R"({
    "name": "paper_flow",
    "base": {
      "name": "table1",
      "design": {"paper_circuit": "s9234"},
      "clock": {"sigma_offset": 0.0, "period_samples": 5000,
                "period_seed": 20160314},
      "insertion": {"num_samples": 10000, "steps": 20},
      "evaluation": {"samples": 10000, "seed": 5150}
    },
    "sweep": {
      "design.paper_circuit": ["s9234", "s13207", "s15850", "s38584"],
      "clock.sigma_offset": [0.0, 2.0]
    },
    "seed_stride": 1
  })");
  doc.find("base")->find("evaluation")->set("seed", 5150 + 1000 * variant);
  return doc;
}

/// Collects per-cell wall times (cells finish on worker threads).
class CellTimes : public exec::Observer {
 public:
  void on_cell(const exec::CellEvent& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    seconds_.push_back(event.seconds);
  }
  std::vector<double> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::move(seconds_);
  }

 private:
  std::mutex mutex_;
  std::vector<double> seconds_;
};

}  // namespace

void run_paper_flow(const Options& options, RunReport& report) {
  const Json doc = paper_flow_campaign(options.variant());

  // Set-up: load and validate the campaign, expand it, and build each
  // circuit's design and timing graph (the cells rebuild their own; this
  // is where the netlist and ssta layers are measured).
  exec::Request request;
  std::vector<double> setup_s, build_s, extract_s;
  double arcs = 0.0;
  const auto setup = [&]() {
    request = exec::Request::from_json(doc);
    request.threads = kThreads;
    request.validate();
    const std::vector<scenario::ScenarioSpec> cells =
        request.campaign.expand();
    double build = 0.0, extract = 0.0;
    arcs = 0.0;
    for (const char* circuit : kPaperFlowCircuits) {
      const BuiltDesign built = build_design(paper_design(circuit));
      build += built.build_s;
      extract += built.extract_s;
      arcs += static_cast<double>(built.graph.arcs.size());
    }
    build_s.push_back(build);
    extract_s.push_back(extract);
    if (cells.size() != 8)
      throw std::logic_error("paper_flow: campaign must expand to 8 cells");
  };
  time_setups(kPaperFlowSetups, setup, setup_s);

  exec::LocalExecutor executor;
  std::vector<double> cell_seconds;
  exec::Outcome last;
  const auto pass = [&]() {
    CellTimes cells;
    const std::uint64_t t0 = now_ns();
    exec::Outcome outcome = executor.execute(request, &cells);
    const double wall = seconds_since(t0);
    for (const double s : cells.take()) cell_seconds.push_back(s);
    report.check(outcome.scenarios_run == 8 && outcome.ok(),
                 "paper_flow: campaign did not run 8 cells on target");
    expect_reference(options, report, 0,
                     Json(sha256_of_artifact(outcome.artifact())),
                     "paper_flow summary sha256");
    last = std::move(outcome);
    return wall;
  };

  if (!options.trace) {
    const std::vector<double> passes =
        timed_passes(options.seconds, [&]() {
          const double wall = pass();
          time_setups(kPaperFlowSetups, setup, setup_s);
          return wall;
        });
    set_pass_metrics(report, passes, cell_seconds, 8);
    set_setup(report, setup_s);
    report.set("peak_rss_mb", peak_rss_self_mb());
    double gain = 0.0, buffers = 0.0;
    for (const scenario::ScenarioResult& cell : last.summary.results) {
      gain += cell.yield.improvement();
      buffers += cell.insertion.plan.physical_buffers();
    }
    report.set("yield_gain_pct",
               100.0 * gain /
                   static_cast<double>(last.summary.results.size()));
    report.set("buffers", buffers);
    return;
  }

  // Traced run: one plain pass for the overhead baseline, then one with
  // the program's trace spans armed (cell, design_build, period_mc,
  // insertion, yield_eval) and read back.
  const double plain = pass();
  cell_seconds.clear();
  SpanLog log;
  const double traced =
      traced_pass(options.work_dir + "/paper_flow.trace", pass, log);

  const double cells_total = log.total_seconds("cell");
  const double unattributed = log.self_seconds("cell");
  report.set("netlist.build_s", median(build_s));
  report.set("ssta.extract_s", median(extract_s));
  report.set("ssta.arcs", arcs);
  report.set("mc.period_mc_s", log.total_seconds("period_mc"));
  report.set("core.insert_s", log.total_seconds("insertion"));
  report.set("feas.yield_eval_s", log.total_seconds("yield_eval"));
  set_insertion_metrics(report, last.summary.results);
  report.set("exec.cell_s_p50", median(cell_seconds));
  report.set("exec.cell_s_max", quantile(cell_seconds, 1.0));
  report.set("exec.worker_idle_s",
             static_cast<double>(kThreads) * traced - cells_total);
  report.set("trace.span_coverage_pct",
             cells_total > 0.0
                 ? 100.0 * (cells_total - unattributed) / cells_total
                 : 0.0);
  report.set("trace.unattributed_s", unattributed);
  report.set("trace.overhead_pct", 100.0 * (traced - plain) / plain);
}

// ------------------------------------------------------------ eval_heavy

namespace {

/// Criticality, binning and yield on s13207, each with a few thousand
/// insertion samples and four times more evaluation samples.  The seed
/// varies the evaluation draw.
std::vector<scenario::ScenarioSpec> eval_heavy_scenarios(
    std::uint64_t variant) {
  const Json base = Json::parse(R"({
    "design": {"paper_circuit": "s13207"},
    "clock": {"sigma_offset": 0.0, "period_samples": 5000,
              "period_seed": 20160314},
    "insertion": {"num_samples": 3000, "steps": 20},
    "evaluation": {"samples": 12000, "seed": 424242}
  })");
  std::vector<scenario::ScenarioSpec> specs;
  const auto add = [&](const char* name, const char* kind,
                       const char* member, const char* extra) {
    Json doc = base;
    doc.set("name", name);
    doc.set("kind", kind);
    doc.find("evaluation")->set("seed", 424242 + 1000 * variant);
    if (member != nullptr) doc.set(member, Json::parse(extra));
    specs.push_back(scenario::ScenarioSpec::from_json(doc));
  };
  add("eval_heavy_criticality", "criticality", "criticality",
      R"({"top_k": 15})");
  add("eval_heavy_binning", "binning", "bins",
      R"({"sigma_offsets": [-1.0, 0.0, 1.0, 2.0, 3.0]})");
  add("eval_heavy_yield", "yield", nullptr, nullptr);
  specs.back().clock.sigma_offset = 1.0;
  return specs;
}

}  // namespace

void run_eval_heavy(const Options& options, RunReport& report) {
  std::vector<scenario::ScenarioSpec> specs;
  std::vector<double> setup_s, build_s, extract_s;
  double arcs = 0.0;
  const auto setup = [&]() {
    specs = eval_heavy_scenarios(options.variant());
    for (const scenario::ScenarioSpec& spec : specs) spec.validate();
    const BuiltDesign built = build_design(specs.front().design);
    build_s.push_back(built.build_s);
    extract_s.push_back(built.extract_s);
    arcs = static_cast<double>(built.graph.arcs.size());
  };
  time_setups(kEvalHeavySetups, setup, setup_s);

  std::vector<double> scenario_seconds;
  std::vector<scenario::ScenarioResult> results(specs.size());
  const auto pass = [&]() {
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      results[i] = scenario::run_scenario(specs[i], kThreads);
      scenario_seconds.push_back(seconds_since(t0));
      expect_reference(options, report, i,
                       Json(sha256_of_artifact(results[i].to_json())),
                       specs[i].name + " artifact sha256");
    }
    return seconds_since(start);
  };

  if (!options.trace) {
    const std::vector<double> passes =
        timed_passes(options.seconds, [&]() {
          const double wall = pass();
          time_setups(kEvalHeavySetups, setup, setup_s);
          return wall;
        });
    set_pass_metrics(report, passes, scenario_seconds, specs.size());
    set_setup(report, setup_s);
    report.set("peak_rss_mb", peak_rss_self_mb());
    double buffers = 0.0;
    for (const scenario::ScenarioResult& result : results)
      buffers += result.insertion.plan.physical_buffers();
    report.set("yield_gain_pct", 100.0 * results.back().yield.improvement());
    report.set("buffers", buffers);
    return;
  }

  // Traced run: one plain pass for the overhead baseline, then the same
  // pass with run_scenario's trace spans armed (design_build, period_mc,
  // insertion, yield_eval, criticality, binning) and read back.
  const double plain = pass();
  scenario_seconds.clear();
  SpanLog log;
  const double traced =
      traced_pass(options.work_dir + "/eval_heavy.trace", pass, log);

  const double scenarios = sum(scenario_seconds);
  double covered = 0.0;
  for (const char* layer : {"design_build", "period_mc", "insertion",
                            "yield_eval", "criticality", "binning"})
    covered += log.total_seconds(layer);
  report.set("netlist.build_s", median(build_s));
  report.set("ssta.extract_s", median(extract_s));
  report.set("ssta.arcs", arcs);
  report.set("mc.period_mc_s", log.total_seconds("period_mc"));
  report.set("core.insert_s", log.total_seconds("insertion"));
  set_insertion_metrics(report, results);
  report.set("feas.yield_eval_s", log.total_seconds("yield_eval"));
  report.set("analysis.criticality_s", log.total_seconds("criticality"));
  report.set("analysis.binning_s", log.total_seconds("binning"));
  report.set("trace.span_coverage_pct", 100.0 * covered / scenarios);
  report.set("trace.unattributed_s", scenarios - covered);
  report.set("trace.overhead_pct", 100.0 * (traced - plain) / plain);
}

}  // namespace clktune::perfbench
