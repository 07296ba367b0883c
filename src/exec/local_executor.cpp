#include "exec/local_executor.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "netlist/paper_circuits.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace clktune::exec {

using util::Json;

namespace {

/// Cell-level metrics: how many cells were computed vs. served from the
/// cache, and the wall-time distribution of the computed ones.
struct CellMetrics {
  obs::Counter& computed;
  obs::Counter& cached;
  obs::Histogram& cell_seconds;

  static CellMetrics& get() {
    static CellMetrics m{
        obs::Registry::global().counter("clktune_exec_cells_computed_total",
                                        "Scenario cells computed"),
        obs::Registry::global().counter(
            "clktune_exec_cells_cached_total",
            "Scenario cells served from the result cache"),
        obs::Registry::global().histogram(
            "clktune_exec_cell_seconds",
            "Wall time of one computed scenario cell", 1e-9),
    };
    return m;
  }
};

/// Fetches one cell: cache lookup by content key, else a fresh engine run
/// whose result is stored back.  `threads` caps the cell's inner loops.
scenario::ScenarioResult run_cell(const scenario::ScenarioSpec& spec,
                                  cache::ResultCache* cache, int threads,
                                  bool& cached) {
  if (cache != nullptr) {
    const std::string key = cache::scenario_cache_key(spec);
    if (std::optional<Json> artifact = cache->get(key)) {
      cached = true;
      CellMetrics::get().cached.inc();
      return scenario::ScenarioResult::from_json(*artifact);
    }
    scenario::ScenarioResult result = scenario::run_scenario(spec, threads);
    cache->put(key, result.to_json());
    cached = false;
    CellMetrics::get().computed.inc();
    CellMetrics::get().cell_seconds.record(
        static_cast<std::uint64_t>(result.seconds * 1e9));
    return result;
  }
  cached = false;
  CellMetrics& metrics = CellMetrics::get();
  scenario::ScenarioResult result = scenario::run_scenario(spec, threads);
  metrics.computed.inc();
  metrics.cell_seconds.record(
      static_cast<std::uint64_t>(result.seconds * 1e9));
  return result;
}

void notify(Observer* observer, std::size_t index,
            const scenario::ScenarioResult& result, bool cached) {
  if (observer == nullptr) return;
  CellEvent event{index, result, cached, cached ? 0.0 : result.seconds};
  observer->on_cell(event);
}

Outcome execute_scenario(const Request& request, Observer* observer) {
  const util::Stopwatch timer;
  if (observer != nullptr) {
    observer->on_begin(1, 1);
    if (observer->cancelled())
      throw CancelledError("exec: cancelled before the scenario started");
  }
  Outcome outcome;
  outcome.kind = Request::Kind::scenario;
  bool cached = false;
  {
    const obs::TraceSpan span("cell:" + request.scenario.name);
    outcome.result =
        run_cell(request.scenario, request.cache, request.threads, cached);
  }
  notify(observer, 0, outcome.result, cached);
  outcome.scenarios_run = 1;
  outcome.scenarios_cached = cached ? 1 : 0;
  outcome.targets_missed = outcome.result.met_target ? 0 : 1;
  outcome.seconds = timer.seconds();
  return outcome;
}

/// Relative size of a cell, used only to order dispatch: per-sample work
/// grows with the design's sequential arcs, roughly its flip-flops, times
/// the samples drawn.  A design read from a file is not sized before it is
/// built, so it counts as the largest and starts first.
double cell_size(const scenario::ScenarioSpec& spec) {
  const scenario::DesignSource& design = spec.design;
  std::optional<netlist::SyntheticSpec> sized;
  if (design.kind == scenario::DesignSourceKind::synthetic)
    sized = design.synthetic;
  else if (design.kind == scenario::DesignSourceKind::paper_circuit)
    sized = netlist::paper_circuit_spec(design.paper_circuit);
  if (!sized) return std::numeric_limits<double>::infinity();
  const double samples = static_cast<double>(spec.clock.period_samples) +
                         static_cast<double>(spec.insertion.num_samples) +
                         static_cast<double>(spec.evaluation.samples);
  return static_cast<double>(sized->num_flipflops) * samples;
}

Outcome execute_campaign(const Request& request, Observer* observer) {
  const util::Stopwatch timer;
  std::vector<scenario::ScenarioSpec> all;
  {
    const obs::TraceSpan span("expand");
    all = request.campaign.expand();
  }

  // The expansion index is the unit of determinism, so any selection of it
  // partitions a campaign across processes/hosts without coordination: an
  // explicit index list (fleet work units) or a round-robin shard slice.
  std::vector<std::size_t> selected;
  if (!request.indices.empty()) {
    selected = request.indices;
  } else {
    selected.reserve(all.size() / request.shard_count + 1);
    for (std::size_t i = request.shard_index; i < all.size();
         i += request.shard_count)
      selected.push_back(i);
  }

  if (observer != nullptr) observer->on_begin(all.size(), selected.size());

  scenario::CampaignSummary summary;
  summary.name = request.campaign.name;
  summary.shard_index = request.shard_index;
  summary.shard_count = request.shard_count;
  summary.results.resize(selected.size());
  std::vector<char> cached(selected.size(), 0);

  // One worker thread per concurrent cell; each cell runs its inner loops
  // single-threaded so the batch scales with cell count.  Workers pull the
  // next unstarted cell, largest first: the campaign then ends on small
  // cells that whichever worker is free picks up, not on one large cell
  // that a single worker runs while the others wait.  With one worker the
  // order cannot shorten anything, so cells run in expansion order.  Every
  // cell writes only its own result slot, and slots are ordered by
  // expansion index, so the summary is independent of scheduling.  Cache
  // hits substitute a stored artifact for the computation — ScenarioResult
  // JSON round trips are byte-exact, so the summary bytes cannot tell.
  const int requested =
      request.threads > 0 ? request.threads : request.campaign.threads;
  const std::size_t workers = util::resolve_thread_count(
      requested <= 0 ? 0 : static_cast<std::size_t>(requested));
  std::vector<std::size_t> order(selected.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (workers > 1) {
    std::vector<double> size(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i)
      size[i] = cell_size(all[selected[i]]);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return size[a] > size[b];
                     });
  }
  std::atomic<bool> cancel{false};
  util::parallel_pull(selected.size(), workers, [&](std::size_t,
                                                    std::size_t next) {
    const std::size_t i = order[next];
    if (cancel.load(std::memory_order_relaxed)) return;
    if (observer != nullptr && observer->cancelled()) {
      cancel.store(true, std::memory_order_relaxed);
      return;
    }
    bool from_cache = false;
    {
      const obs::TraceSpan span(obs::trace_enabled()
                                    ? "cell:" + all[selected[i]].name
                                    : std::string());
      summary.results[i] = run_cell(all[selected[i]], request.cache,
                                    /*threads=*/1, from_cache);
    }
    cached[i] = from_cache ? 1 : 0;
    notify(observer, selected[i], summary.results[i], from_cache);
  });
  if (cancel.load())
    throw CancelledError("exec: campaign cancelled by the observer");

  summary.recount();
  for (const char flag : cached) summary.scenarios_cached += flag;
  summary.total_seconds = timer.seconds();
  return Outcome::from_summary(std::move(summary), {});
}

}  // namespace

Outcome LocalExecutor::execute(const Request& request, Observer* observer) {
  request.validate();
  Outcome outcome = request.kind == Request::Kind::scenario
                        ? execute_scenario(request, observer)
                        : execute_campaign(request, observer);
  outcome.backend = name();
  return outcome;
}

}  // namespace clktune::exec
