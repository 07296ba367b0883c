// Execution-layer tests.  The load-bearing property is backend
// equivalence: the same request must produce byte-identical artifacts
// through LocalExecutor and RemoteExecutor (a real loopback daemon) —
// that is what makes the backends interchangeable (FleetExecutor's legs
// live in fleet_test).  Also covered: shard-summary merge
// validation (the `report --merge` path), CampaignSummary round trips,
// observer streaming and cooperative cancellation.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "exec/local_executor.h"
#include "exec/merge.h"
#include "exec/observer.h"
#include "exec/remote_executor.h"
#include "exec/request.h"
#include "scenario/campaign.h"
#include "scenario/scenario.h"
#include "serve/server.h"
#include "util/json.h"

namespace clktune {
namespace {

using util::Json;

Json tiny_scenario_doc() {
  return Json::parse(R"({
    "name": "tiny",
    "design": {"synthetic": {"name": "tiny", "num_flipflops": 30,
                             "num_gates": 220, "seed": 5}},
    "clock": {"sigma_offset": 0.0, "period_samples": 400},
    "insertion": {"num_samples": 200, "steps": 8},
    "evaluation": {"samples": 400, "seed": 99}
  })");
}

Json tiny_campaign_doc() {
  Json doc = Json::object();
  doc.set("name", "tiny_campaign");
  doc.set("base", tiny_scenario_doc());
  Json sweep = Json::object();
  sweep.set("clock.sigma_offset",
            Json(util::JsonArray{Json(0.0), Json(1.0)}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

exec::Request campaign_request() {
  return exec::Request::from_json(tiny_campaign_doc());
}

Json criticality_scenario_doc() {
  Json doc = tiny_scenario_doc();
  doc.set("kind", "criticality");
  Json options = Json::object();
  options.set("top_k", 5);
  doc.set("criticality", std::move(options));
  return doc;
}

Json binning_campaign_doc() {
  Json base = tiny_scenario_doc();
  base.set("kind", "binning");
  Json bins = Json::object();
  bins.set("sigma_offsets",
           Json(util::JsonArray{Json(0.0), Json(1.0), Json(2.0)}));
  base.set("bins", std::move(bins));
  Json doc = Json::object();
  doc.set("name", "binning_campaign");
  doc.set("base", std::move(base));
  Json sweep = Json::object();
  sweep.set("design.synthetic.seed",
            Json(util::JsonArray{Json(5), Json(6)}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Collects every observer event; thread-safe, since campaign cells finish
/// on worker threads.
class RecordingObserver : public exec::Observer {
 public:
  void on_begin(std::size_t total, std::size_t own) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    total_cells = total;
    own_cells = own;
    ++begins;
  }
  void on_cell(const exec::CellEvent& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    indices.insert(event.index);
    cached_cells += event.cached ? 1 : 0;
  }

  std::mutex mutex_;
  std::size_t total_cells = 0;
  std::size_t own_cells = 0;
  int begins = 0;
  std::set<std::size_t> indices;
  std::size_t cached_cells = 0;
};

/// Daemon on an ephemeral loopback port, accept loop on a worker thread.
class ExecServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::ServeOptions options;
    options.port = 0;
    options.threads = 2;
    server_ = std::make_unique<serve::ScenarioServer>(std::move(options));
    server_->start();
    thread_ = std::thread([this] { server_->serve_forever(); });
  }

  void TearDown() override {
    server_->stop();
    if (thread_.joinable()) thread_.join();
  }

  std::unique_ptr<serve::ScenarioServer> server_;
  std::thread thread_;
};

// ------------------------------------------------------ backend equivalence

TEST_F(ExecServerFixture, LocalAndRemoteBackendsAreByteIdentical) {
  const exec::Request request = campaign_request();

  exec::LocalExecutor local;
  const exec::Outcome via_local = local.execute(request);

  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  const exec::Outcome via_remote = remote.execute(request);

  EXPECT_EQ(via_remote.artifact().dump(), via_local.artifact().dump());

  EXPECT_EQ(via_local.backend, "local");
  EXPECT_NE(via_remote.backend.find("remote(127.0.0.1:"), std::string::npos);
  for (const exec::Outcome* outcome : {&via_local, &via_remote}) {
    EXPECT_EQ(outcome->scenarios_run, 2u);
    EXPECT_TRUE(outcome->ok());
  }
}

// Analysis kinds ride the scenario document, so they must flow through
// every backend with zero wire changes — the daemon never inspects the
// kind, it just runs the document it was handed.
TEST_F(ExecServerFixture, AnalysisKindsAreByteIdenticalAcrossBackends) {
  // Criticality: a lone kind-tagged scenario, compared against direct
  // in-process execution.
  exec::Request crit = exec::Request::from_json(criticality_scenario_doc());
  ASSERT_EQ(crit.kind, exec::Request::Kind::scenario);
  crit.threads = 2;
  const scenario::ScenarioResult direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(criticality_scenario_doc()), 2);
  ASSERT_EQ(direct.kind, scenario::ScenarioKind::criticality);
  const std::string crit_expected = direct.to_json().dump();

  exec::LocalExecutor local;
  EXPECT_EQ(local.execute(crit).artifact().dump(), crit_expected);
  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  EXPECT_EQ(remote.execute(crit).artifact().dump(), crit_expected);

  // Binning: a two-cell campaign through both backends.
  const exec::Request bins = exec::Request::from_json(binning_campaign_doc());
  const std::string bins_expected = local.execute(bins).artifact().dump();
  EXPECT_EQ(remote.execute(bins).artifact().dump(), bins_expected);

  // The artifacts really are kind-tagged (not silently downgraded).
  const Json summary = Json::parse(bins_expected);
  for (const Json& r : summary.at("results").as_array())
    EXPECT_EQ(r.at("kind").as_string(), "binning");
}

TEST_F(ExecServerFixture, ScenarioRequestMatchesDirectExecution) {
  exec::Request request = exec::Request::from_json(tiny_scenario_doc());
  ASSERT_EQ(request.kind, exec::Request::Kind::scenario);
  // A lone scenario parallelises its inner Monte-Carlo loops, whose
  // reduction order depends on the worker count — pin it to the daemon's.
  request.threads = 2;

  const scenario::ScenarioResult direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(tiny_scenario_doc()), 2);

  exec::LocalExecutor local;
  EXPECT_EQ(local.execute(request).artifact().dump(),
            direct.to_json().dump());

  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  const exec::Outcome cold = remote.execute(request);
  EXPECT_EQ(cold.artifact().dump(), direct.to_json().dump());
  EXPECT_EQ(cold.scenarios_cached, 0u);
  // The daemon's cache serves the repeat byte-identically.
  const exec::Outcome warm = remote.execute(request);
  EXPECT_EQ(warm.scenarios_cached, 1u);
  EXPECT_EQ(warm.artifact().dump(), direct.to_json().dump());
}

TEST_F(ExecServerFixture, RemoteShardSliceMatchesLocalShard) {
  exec::Request request = campaign_request();
  request.shard_index = 0;
  request.shard_count = 2;

  exec::LocalExecutor local;
  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  EXPECT_EQ(remote.execute(request).artifact().dump(),
            local.execute(request).artifact().dump());
}

TEST_F(ExecServerFixture, ExplicitIndicesMatchLocalAndShardSelections) {
  exec::Request request = campaign_request();
  request.indices = {1};

  // The same single cell through an index list and through the equivalent
  // shard slice is byte-identical — both are selections, not computations.
  exec::LocalExecutor local;
  const exec::Outcome via_indices = local.execute(request);
  exec::Request slice = campaign_request();
  slice.shard_index = 1;
  slice.shard_count = 2;
  const exec::Outcome via_shard = local.execute(slice);
  ASSERT_EQ(via_indices.summary.results.size(), 1u);
  EXPECT_EQ(via_indices.summary.results[0].to_json().dump(),
            via_shard.summary.results[0].to_json().dump());

  // And the remote backend forwards the list for daemon-side selection.
  exec::RemoteExecutor remote("127.0.0.1", server_->port());
  RecordingObserver observer;
  EXPECT_EQ(remote.execute(request, &observer).artifact().dump(),
            via_indices.artifact().dump());
  EXPECT_EQ(observer.indices, (std::set<std::size_t>{1}));

  // The full expansion as an explicit list reproduces the plain sweep.
  exec::Request all = campaign_request();
  all.indices = {0, 1};
  EXPECT_EQ(local.execute(all).artifact().dump(),
            local.execute(campaign_request()).artifact().dump());
}

TEST(RequestValidationTest, RejectsMalformedIndexSelections) {
  exec::Request scenario_request =
      exec::Request::from_json(tiny_scenario_doc());
  scenario_request.indices = {0};
  EXPECT_THROW(scenario_request.validate(), exec::ExecError);

  exec::Request doubly_selected = campaign_request();
  doubly_selected.indices = {0};
  doubly_selected.shard_index = 0;
  doubly_selected.shard_count = 2;
  EXPECT_THROW(doubly_selected.validate(), exec::ExecError);

  exec::Request out_of_range = campaign_request();
  out_of_range.indices = {7};
  EXPECT_THROW(out_of_range.validate(), exec::ExecError);

  exec::Request unsorted = campaign_request();
  unsorted.indices = {1, 0};
  EXPECT_THROW(unsorted.validate(), exec::ExecError);

  exec::Request duplicated = campaign_request();
  duplicated.indices = {1, 1};
  EXPECT_THROW(duplicated.validate(), exec::ExecError);

  exec::Request good = campaign_request();
  good.indices = {0, 1};
  good.validate();
  EXPECT_EQ(good.shard_cells(), 2u);
}

// ------------------------------------------------------------------- merge

TEST(MergeTest, ShardSummariesMergeToUnshardedBytes) {
  exec::LocalExecutor local;
  const exec::Request request = campaign_request();
  const scenario::CampaignSummary full = local.execute(request).summary;

  exec::Request shard0 = request, shard1 = request;
  shard0.shard_count = shard1.shard_count = 2;
  shard0.shard_index = 0;
  shard1.shard_index = 1;
  const scenario::CampaignSummary a = local.execute(shard0).summary;
  const scenario::CampaignSummary b = local.execute(shard1).summary;

  // Input order must not matter, and the merged bytes must be exactly the
  // unsharded sweep's (modulo the timing field, which to_json omits).
  const scenario::CampaignSummary merged = exec::merge_shard_summaries({b, a});
  EXPECT_EQ(merged.to_json().dump(), full.to_json().dump());

  // Through the artifact layer too — the `report --merge` path parses the
  // shard summaries back from their JSON files first.
  const scenario::CampaignSummary reparsed = exec::merge_shard_summaries(
      {scenario::CampaignSummary::from_json(a.to_json()),
       scenario::CampaignSummary::from_json(b.to_json())});
  EXPECT_EQ(reparsed.to_json().dump(), full.to_json().dump());
}

TEST(MergeTest, RejectsOverlappingMissingAndMismatchedShards) {
  exec::LocalExecutor local;
  exec::Request shard0 = campaign_request(), shard1 = campaign_request();
  shard0.shard_count = shard1.shard_count = 2;
  shard0.shard_index = 0;
  shard1.shard_index = 1;
  const scenario::CampaignSummary a = local.execute(shard0).summary;
  const scenario::CampaignSummary b = local.execute(shard1).summary;

  EXPECT_THROW(exec::merge_shard_summaries({}), exec::ExecError);
  EXPECT_THROW(exec::merge_shard_summaries({a, a}), exec::ExecError);
  EXPECT_THROW(exec::merge_shard_summaries({a}), exec::ExecError);

  scenario::CampaignSummary renamed = b;
  renamed.name = "other_campaign";
  EXPECT_THROW(exec::merge_shard_summaries({a, renamed}), exec::ExecError);

  scenario::CampaignSummary recount = b;
  recount.shard_count = 3;
  EXPECT_THROW(exec::merge_shard_summaries({a, recount}), exec::ExecError);

  // Shard 0 of any non-empty round-robin split can never be empty, so the
  // cell-count consistency check rejects this pair.
  scenario::CampaignSummary truncated = a;
  truncated.results.clear();
  EXPECT_THROW(exec::merge_shard_summaries({truncated, b}),
               exec::ExecError);
}

TEST(MergeTest, EmptyShardsOfAnOversplitCampaignMergeCleanly) {
  // 3-way split of a 2-cell campaign: shard 2 legitimately runs nothing,
  // and the merge must still reproduce the unsharded bytes.
  exec::LocalExecutor local;
  const scenario::CampaignSummary full =
      local.execute(campaign_request()).summary;

  std::vector<scenario::CampaignSummary> shards;
  for (std::size_t k = 0; k < 3; ++k) {
    exec::Request slice = campaign_request();
    slice.shard_index = k;
    slice.shard_count = 3;
    shards.push_back(local.execute(slice).summary);
  }
  EXPECT_EQ(shards[2].results.size(), 0u);
  EXPECT_EQ(exec::merge_shard_summaries(shards).to_json().dump(),
            full.to_json().dump());
}

TEST(MergeTest, SingleCellCampaignMergesAcrossAnySplit) {
  Json doc = tiny_campaign_doc();
  Json sweep = Json::object();
  sweep.set("clock.sigma_offset", Json(util::JsonArray{Json(0.0)}));
  doc.set("sweep", std::move(sweep));
  const exec::Request request = exec::Request::from_json(doc);
  ASSERT_EQ(request.expansion_size(), 1u);

  exec::LocalExecutor local;
  const scenario::CampaignSummary full = local.execute(request).summary;

  // A 1-shard "split" merges to itself; a 2-way split leaves shard 1
  // empty and still reproduces the unsharded bytes.
  EXPECT_EQ(exec::merge_shard_summaries({full}).to_json().dump(),
            full.to_json().dump());
  exec::Request shard0 = request, shard1 = request;
  shard0.shard_count = shard1.shard_count = 2;
  shard0.shard_index = 0;
  shard1.shard_index = 1;
  const scenario::CampaignSummary merged = exec::merge_shard_summaries(
      {local.execute(shard0).summary, local.execute(shard1).summary});
  EXPECT_EQ(merged.to_json().dump(), full.to_json().dump());
}

TEST(MergeTest, DuplicateShardIndexAcrossParsedSummariesIsRejected) {
  // Two files both claiming shard 0/2 — e.g. the same shard output passed
  // twice to `report --merge` under different names — must be rejected as
  // overlapping even though names and cell counts agree.
  exec::LocalExecutor local;
  exec::Request shard0 = campaign_request(), shard1 = campaign_request();
  shard0.shard_count = shard1.shard_count = 2;
  shard0.shard_index = 0;
  shard1.shard_index = 1;
  const scenario::CampaignSummary a = local.execute(shard0).summary;

  Json relabelled = local.execute(shard1).summary.to_json();
  ASSERT_NE(relabelled.find("shard"), nullptr);
  relabelled.find("shard")->set("index", 0);
  EXPECT_THROW(
      exec::merge_shard_summaries(
          {a, scenario::CampaignSummary::from_json(relabelled)}),
      exec::ExecError);
}

TEST(MergeTest, SummaryJsonRoundTripIsByteExact) {
  exec::LocalExecutor local;
  exec::Request request = campaign_request();
  request.shard_index = 1;
  request.shard_count = 2;
  const scenario::CampaignSummary shard = local.execute(request).summary;
  const std::string original = shard.to_json().dump();
  const scenario::CampaignSummary rebuilt =
      scenario::CampaignSummary::from_json(Json::parse(original));
  EXPECT_EQ(rebuilt.to_json().dump(), original);
  EXPECT_EQ(rebuilt.shard_index, 1u);
  EXPECT_EQ(rebuilt.shard_count, 2u);
}

// ---------------------------------------------------- observer + cancelling

TEST(ObserverTest, StreamsEveryCellWithGlobalIndices) {
  cache::ResultCache cache_store;
  exec::Request request = campaign_request();
  request.cache = &cache_store;

  exec::LocalExecutor local;
  RecordingObserver cold;
  local.execute(request, &cold);
  EXPECT_EQ(cold.begins, 1);
  EXPECT_EQ(cold.total_cells, 2u);
  EXPECT_EQ(cold.own_cells, 2u);
  EXPECT_EQ(cold.indices, (std::set<std::size_t>{0, 1}));
  EXPECT_EQ(cold.cached_cells, 0u);

  RecordingObserver warm;
  local.execute(request, &warm);
  EXPECT_EQ(warm.cached_cells, 2u);

  // A shard slice reports its own cell count but global indices.
  exec::Request slice = request;
  slice.shard_index = 1;
  slice.shard_count = 2;
  RecordingObserver sliced;
  local.execute(slice, &sliced);
  EXPECT_EQ(sliced.total_cells, 2u);
  EXPECT_EQ(sliced.own_cells, 1u);
  EXPECT_EQ(sliced.indices, (std::set<std::size_t>{1}));
}

TEST(ObserverTest, CancellationStopsTheCampaign) {
  // Single worker makes the poll order deterministic: cell 0 completes,
  // then the cancel flag is seen before cell 1 starts.
  struct CancelAfterFirst : RecordingObserver {
    bool cancelled() override {
      const std::lock_guard<std::mutex> lock(mutex_);
      return !indices.empty();
    }
  } observer;

  auto spec = scenario::CampaignSpec::from_json(tiny_campaign_doc());
  spec.threads = 1;
  exec::LocalExecutor local;
  EXPECT_THROW(
      local.execute(exec::Request::for_campaign(spec), &observer),
      exec::CancelledError);
  EXPECT_EQ(observer.indices.size(), 1u);
}

TEST(ObserverTest, SeveralWorkersStartTheLargestCellsFirst) {
  // Expansion order is smallest first.  Two workers take the two largest
  // cells; the middle one finishes first and cancels, so the smallest
  // never starts.  Expansion-order dispatch would run cells 0 and 1.
  struct CancelAfterFirst : RecordingObserver {
    bool cancelled() override {
      const std::lock_guard<std::mutex> lock(mutex_);
      return !indices.empty();
    }
  } observer;

  Json doc = tiny_campaign_doc();
  doc.find("base")->find("design")->find("synthetic")->set("num_gates", 900);
  Json sweep = Json::object();
  sweep.set("design.synthetic.num_flipflops",
            Json(util::JsonArray{Json(20), Json(30), Json(120)}));
  doc.set("sweep", std::move(sweep));
  auto spec = scenario::CampaignSpec::from_json(doc);
  spec.threads = 2;
  exec::LocalExecutor local;
  EXPECT_THROW(
      local.execute(exec::Request::for_campaign(spec), &observer),
      exec::CancelledError);
  EXPECT_EQ(observer.indices, (std::set<std::size_t>{1, 2}));
}

}  // namespace
}  // namespace clktune
