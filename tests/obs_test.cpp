// Observability tests: the metrics registry's concurrency guarantees
// (lossless sharded recording, snapshot consistency), its exposition
// formats (JSON snapshot, Prometheus text), and the end-to-end wiring —
// a daemon's `metrics` verb reflecting real cache/serve activity, and
// `fleet status` aggregation across a pool with a dead member.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet_spec.h"
#include "fleet/fleet_status.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/json.h"

namespace clktune {
namespace {

using util::Json;

// ------------------------------------------------------------- primitives

TEST(ObsCounterTest, ConcurrentIncrementsAreLossless) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("test_events_total", "events");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsHistogramTest, BucketPlacementFollowsBitWidth) {
  obs::Registry registry;
  obs::Histogram& h =
      registry.histogram("test_latency_seconds", "latency", 1.0);
  h.record(0);    // bucket 0: exactly zero
  h.record(1);    // bucket 1: [1, 2)
  h.record(100);  // bucket 7: [64, 128)
  const obs::Histogram::Snapshot snap = h.snapshot(1.0);
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[7], 1u);
  EXPECT_DOUBLE_EQ(snap.sum(), 101.0);
  // The quantile estimate is the containing bucket's upper bound (here
  // 128 = 2^7): it can overshoot the true value but never undershoot it.
  EXPECT_GE(snap.quantile(1.0), 100.0);
  EXPECT_LE(snap.quantile(1.0), 128.0);
  EXPECT_GT(snap.upper_bound(7), snap.upper_bound(1));
}

TEST(ObsHistogramTest, ConcurrentRecordingIsLosslessAndScaled) {
  obs::Registry registry;
  // ns -> seconds scaling, as every duration histogram registers it.
  obs::Histogram& h =
      registry.histogram("test_scaled_seconds", "scaled", 1e-9);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.record(1000);
    });
  for (std::thread& w : workers) w.join();
  const obs::Histogram::Snapshot snap = h.snapshot(1e-9);
  EXPECT_EQ(snap.count(), kThreads * kPerThread);
  // 160k records of 1000 ns = 160 microseconds total, in seconds.
  EXPECT_NEAR(snap.sum(), kThreads * kPerThread * 1000 * 1e-9, 1e-12);
  // Snapshot consistency: count() derives from the buckets, so the two
  // can never disagree — verify the invariant explicitly anyway.
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count());
}

TEST(ObsRegistryTest, IdentityIsNamePlusSortedLabels) {
  obs::Registry registry;
  obs::Counter& a =
      registry.counter("reqs_total", "requests", {{"verb", "run"}});
  obs::Counter& b =
      registry.counter("reqs_total", "requests", {{"verb", "run"}});
  obs::Counter& c =
      registry.counter("reqs_total", "requests", {{"verb", "sweep"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  // Same identity as a different kind, or a histogram re-registered with
  // a different unit scale, is a programming error — loud, not silent.
  EXPECT_THROW(registry.gauge("reqs_total", "", {{"verb", "run"}}),
               std::invalid_argument);
  registry.histogram("lat_seconds", "latency", 1e-9);
  EXPECT_THROW(registry.histogram("lat_seconds", "latency", 1.0),
               std::invalid_argument);
  // Invalid Prometheus names and label keys are rejected at registration.
  EXPECT_THROW(registry.counter("1bad", "leading digit"),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("ok_total", "bad label", {{"1k", "v"}}),
               std::invalid_argument);
}

TEST(ObsRegistryTest, SnapshotJsonListsEveryKindDeterministically) {
  obs::Registry registry;
  registry.counter("z_total", "last").inc(3);
  registry.gauge("depth", "queue").set(-2);
  registry.histogram("d_seconds", "dur", 1e-9).record(1500);
  const Json snap = registry.snapshot_json();
  EXPECT_EQ(snap.at("counters").at("z_total").as_uint(), 3u);
  EXPECT_EQ(snap.at("gauges").at("depth").as_int(), -2);
  const Json& hist = snap.at("histograms").at("d_seconds");
  EXPECT_EQ(hist.at("count").as_uint(), 1u);
  EXPECT_NEAR(hist.at("sum").as_double(), 1500e-9, 1e-12);
  // Deterministic exposition: identical state, byte-identical dumps.
  EXPECT_EQ(snap.dump(), registry.snapshot_json().dump());
}

TEST(ObsRegistryTest, PrometheusExpositionEscapesAndGroupsFamilies) {
  obs::Registry registry;
  // Label values with every escapable character: backslash, quote,
  // newline.
  registry
      .counter("files_total", "files seen", {{"path", "a\\b\"c\nd"}})
      .inc();
  registry.counter("files_total", "files seen", {{"path", "plain"}}).inc(2);
  registry.gauge("load", "current load").set(7);
  registry.histogram("wait_seconds", "wait", 1e-9).record(1000);
  const std::string text = registry.prometheus_text();

  // One HELP/TYPE pair per family even with several labeled children.
  std::size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE files_total", pos)) != std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("# TYPE files_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE load gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wait_seconds histogram"), std::string::npos);

  // Escaped label value per the exposition spec: \\ \" \n.
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
  EXPECT_NE(text.find("files_total{path=\"plain\"} 2"), std::string::npos);

  // Histogram exposition: cumulative buckets ending at +Inf, plus sum
  // and count series.
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("wait_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_sum"), std::string::npos);
}

// --------------------------------------------------------- serve exposure

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

/// Reads a named counter out of a metrics frame; 0 when absent.  The
/// global registry accumulates across every test in this binary, so
/// integration assertions below compare before/after deltas, never
/// absolute values.
std::uint64_t counter_of(const Json& frame, const std::string& id) {
  const Json* counters = frame.at("metrics").find("counters");
  if (counters == nullptr) return 0;
  const Json* value = counters->find(id);
  return value == nullptr ? 0 : value->as_uint();
}

class ObsServerFixture : public ::testing::Test {
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

  Json fetch_metrics(bool prometheus = false) {
    const serve::SubmitOutcome outcome =
        serve::Client("127.0.0.1", server_->port()).metrics(prometheus);
    EXPECT_EQ(outcome.final_event.at("event").as_string(), "metrics");
    return outcome.final_event;
  }

  std::unique_ptr<serve::ScenarioServer> server_;
  std::thread thread_;
};

TEST_F(ObsServerFixture, MetricsVerbReflectsCacheAndVerbActivity) {
  const Json before = fetch_metrics();
  EXPECT_EQ(before.at("version").as_uint(), serve::kProtocolVersion);
  EXPECT_GE(before.at("uptime_seconds").as_double(), 0.0);

  // Cold sweep computes both cells; the warm repeat is all cache hits.
  const Json doc = tiny_campaign_doc();
  ASSERT_TRUE(serve::Client("127.0.0.1", server_->port()).sweep(doc).ok());
  ASSERT_TRUE(serve::Client("127.0.0.1", server_->port()).sweep(doc).ok());

  const Json after = fetch_metrics();
  EXPECT_GE(counter_of(after, "clktune_cache_misses_total") -
                counter_of(before, "clktune_cache_misses_total"),
            2u);
  EXPECT_GE(counter_of(after, "clktune_cache_hits_total") -
                counter_of(before, "clktune_cache_hits_total"),
            2u);
  EXPECT_GE(
      counter_of(after, "clktune_serve_requests_total{verb=\"sweep\"}") -
          counter_of(before, "clktune_serve_requests_total{verb=\"sweep\"}"),
      2u);
  EXPECT_GE(counter_of(after, "clktune_exec_cells_computed_total") -
                counter_of(before, "clktune_exec_cells_computed_total"),
            2u);
  // Per-verb latency histograms recorded the sweeps too.  The timer fires
  // at handler scope exit, just *after* the reply frame is written, so a
  // fetch on another handler thread can race it — poll until it settles.
  std::uint64_t sweep_latencies = 0;
  for (int i = 0; i < 100 && sweep_latencies < 2; ++i) {
    const Json frame = fetch_metrics();
    const Json* hist = frame.at("metrics").at("histograms").find(
        "clktune_serve_request_seconds{verb=\"sweep\"}");
    ASSERT_NE(hist, nullptr);
    sweep_latencies = hist->at("count").as_uint();
    if (sweep_latencies < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(sweep_latencies, 2u);
}

TEST_F(ObsServerFixture, StatusFrameCarriesVersionAndSteadyUptime) {
  const serve::SubmitOutcome status =
      serve::Client("127.0.0.1", server_->port()).status();
  EXPECT_EQ(status.final_event.at("event").as_string(), "status");
  EXPECT_EQ(status.final_event.at("version").as_uint(),
            serve::kProtocolVersion);
  EXPECT_GE(status.final_event.at("uptime_seconds").as_double(), 0.0);
  EXPECT_LT(status.final_event.at("uptime_seconds").as_double(), 3600.0);
}

TEST_F(ObsServerFixture, PrometheusFormatReturnsTextExposition) {
  const Json frame = fetch_metrics(true);
  EXPECT_EQ(frame.at("format").as_string(), "prometheus");
  const std::string& text = frame.at("text").as_string();
  EXPECT_NE(text.find("# TYPE clktune_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE clktune_serve_queue_depth gauge"),
            std::string::npos);

  // An unknown format is a structured error, not a silent default.
  Json wire = Json::object();
  wire.set("cmd", "metrics");
  wire.set("format", "xml");
  const serve::SubmitOutcome bad =
      serve::submit_raw("127.0.0.1", server_->port(), wire);
  EXPECT_EQ(bad.final_event.at("event").as_string(), "error");
}

// --------------------------------------------------------- fleet exposure

TEST(ObsFleetStatusTest, ProbeAggregatesLiveMembersAndReportsDead) {
  serve::ServeOptions options_a;
  options_a.port = 0;
  options_a.threads = 2;
  serve::ScenarioServer server_a(std::move(options_a));
  server_a.start();
  std::thread thread_a([&server_a] { server_a.serve_forever(); });

  serve::ServeOptions options_b;
  options_b.port = 0;
  options_b.threads = 2;
  serve::ScenarioServer server_b(std::move(options_b));
  server_b.start();
  std::thread thread_b([&server_b] { server_b.serve_forever(); });

  // Give one member real traffic so the aggregated totals are nonzero.
  ASSERT_TRUE(serve::Client("127.0.0.1", server_a.port())
                  .sweep(tiny_campaign_doc())
                  .ok());

  fleet::FleetSpec spec;
  spec.members.push_back({"127.0.0.1", server_a.port(), 1});
  spec.members.push_back({"127.0.0.1", server_b.port(), 1});
  spec.members.push_back({"127.0.0.1", 1, 1});  // nothing listens here

  serve::SubmitOptions timeouts;
  timeouts.connect_timeout_ms = 2000;
  timeouts.io_timeout_ms = 5000;
  const fleet::PoolStatus pool = fleet::probe_pool(spec, timeouts);

  ASSERT_EQ(pool.daemons.size(), 3u);
  EXPECT_EQ(pool.alive, 2u);
  EXPECT_EQ(pool.dead, 1u);
  EXPECT_GE(pool.scenarios_run, 2u);
  EXPECT_GE(pool.requests, 2u);
  EXPECT_GE(pool.cache_misses, 2u);

  // Order is preserved; the dead member names its failure.
  EXPECT_TRUE(pool.daemons[0].alive);
  EXPECT_TRUE(pool.daemons[1].alive);
  EXPECT_FALSE(pool.daemons[2].alive);
  EXPECT_FALSE(pool.daemons[2].error.empty());
  // Live members carry their metrics snapshot alongside the status frame.
  EXPECT_NE(pool.daemons[0].metrics.find("metrics"), nullptr);

  // The rendered table has one row per member plus the TOTAL summary.
  std::ostringstream table;
  fleet::render_pool_table(table, pool);
  const std::string rendered = table.str();
  EXPECT_NE(rendered.find("DAEMON"), std::string::npos);
  EXPECT_NE(rendered.find("127.0.0.1:1"), std::string::npos);
  EXPECT_NE(rendered.find("dead"), std::string::npos);
  EXPECT_NE(rendered.find("TOTAL"), std::string::npos);
  EXPECT_NE(rendered.find("2/3"), std::string::npos);

  // The JSON form mirrors the struct for scripting.
  const Json as_json = pool.to_json();
  EXPECT_EQ(as_json.at("alive").as_uint(), 2u);
  EXPECT_EQ(as_json.at("dead").as_uint(), 1u);
  EXPECT_EQ(as_json.at("daemons").as_array().size(), 3u);

  server_a.stop();
  server_b.stop();
  thread_a.join();
  thread_b.join();
}

}  // namespace
}  // namespace clktune
