// Fault-injection and robustness tests.  The load-bearing properties:
// the registry is deterministic (same plan + same poll sequence = same
// fault schedule) and free when disarmed; the atomic file commit never
// leaves a torn final file except under an explicit `truncate` fault;
// torn envelopes — cache or job store — degrade to a self-healing miss /
// a skipped load, never a crash; a cache that cannot write its disk
// layer goes read-only instead of aborting the campaign; a stalled job
// is re-queued by the watchdog and still finishes byte-identically; a
// draining daemon finishes in-flight work and a restart recovers the
// rest; and the capstone chaos soak: a 3-daemon fleet campaign under a
// seeded plan of resets, torn frames, one ENOSPC and a daemon
// stop/restart produces a summary byte-identical to a clean local run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "exec/local_executor.h"
#include "exec/request.h"
#include "fault/fault.h"
#include "fleet/fleet_executor.h"
#include "fleet/fleet_spec.h"
#include "jobs/job_scheduler.h"
#include "jobs/job_store.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/backoff.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/socket.h"

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

/// A 4-cell campaign: enough cells that faults land mid-campaign.
Json small_campaign_doc() {
  Json doc = Json::object();
  doc.set("name", "fault_campaign");
  doc.set("base", tiny_scenario_doc());
  Json sweep = Json::object();
  sweep.set("clock.sigma_offset",
            Json(util::JsonArray{Json(0.0), Json(1.0)}));
  sweep.set("insertion.num_samples",
            Json(util::JsonArray{Json(150), Json(200)}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

std::filesystem::path fresh_dir(const std::string& stem) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (stem + "_" + std::to_string(::getpid()) + "_" +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Every test leaves the process disarmed, whatever path it exits on.
class FaultGuard {
 public:
  ~FaultGuard() { fault::disarm(); }
};

// --------------------------------------------------------------- registry

TEST(FaultRegistryTest, DisarmedSitesAreInertNoOps) {
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(static_cast<bool>(fault::poll("socket.write")));
  EXPECT_FALSE(static_cast<bool>(fault::check("socket.read")));
  EXPECT_FALSE(fault::status_json().at("armed").as_bool());
}

TEST(FaultRegistryTest, NthEveryAndCountTriggerDeterministically) {
  FaultGuard guard;
  fault::arm(Json::parse(R"({"sites": {
    "t.nth":   {"action": "fail", "nth": 3},
    "t.every": {"action": "fail", "every": 2, "count": 2}
  }})"));
  ASSERT_TRUE(fault::armed());

  // nth: exactly the third poll fires, nothing before or after.
  std::vector<bool> nth_fires;
  for (int i = 0; i < 6; ++i)
    nth_fires.push_back(static_cast<bool>(fault::poll("t.nth")));
  EXPECT_EQ(nth_fires, (std::vector<bool>{false, false, true, false, false,
                                          false}));

  // every 2, count 2: hits 2 and 4 fire, the count cap silences hit 6.
  std::vector<bool> every_fires;
  for (int i = 0; i < 6; ++i)
    every_fires.push_back(static_cast<bool>(fault::poll("t.every")));
  EXPECT_EQ(every_fires, (std::vector<bool>{false, true, false, true, false,
                                            false}));

  // Unmatched sites never fire.
  EXPECT_FALSE(static_cast<bool>(fault::poll("t.unlisted")));
}

TEST(FaultRegistryTest, ProbabilityStreamIsSeededAndReproducible) {
  FaultGuard guard;
  const Json plan = Json::parse(
      R"({"seed": 42, "sites": {"t.p": {"action": "fail",
                                        "probability": 0.5}}})");
  const auto run = [&plan] {
    fault::arm(plan);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i)
      fires.push_back(static_cast<bool>(fault::poll("t.p")));
    return fires;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);  // re-arming replays the same schedule

  const std::size_t fired =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 50u);  // p=0.5 over 200 polls; binomial tails are tiny
  EXPECT_LT(fired, 150u);

  // A different seed gives a different schedule.
  fault::arm(Json::parse(
      R"({"seed": 43, "sites": {"t.p": {"action": "fail",
                                        "probability": 0.5}}})"));
  std::vector<bool> reseeded;
  for (int i = 0; i < 200; ++i)
    reseeded.push_back(static_cast<bool>(fault::poll("t.p")));
  EXPECT_NE(first, reseeded);
}

TEST(FaultRegistryTest, CheckMapsActionsToNamedExceptions) {
  FaultGuard guard;
  fault::arm(Json::parse(R"({"sites": {
    "t.fail":   {"action": "fail"},
    "t.enospc": {"action": "enospc"},
    "t.reset":  {"action": "reset"},
    "t.delay":  {"action": "delay", "delay_ms": 1}
  }})"));
  try {
    fault::check("t.fail");
    FAIL() << "expected an injected failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fault injected at t.fail"),
              std::string::npos);
  }
  try {
    fault::check("t.enospc");
    FAIL() << "expected an injected ENOSPC";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ENOSPC"), std::string::npos);
  }
  EXPECT_THROW(fault::check("t.reset"), std::runtime_error);
  // delay continues normally (after sleeping) and counts as a fire.
  const std::uint64_t before = fault::injected_total();
  EXPECT_FALSE(static_cast<bool>(fault::check("t.delay")));
  EXPECT_EQ(fault::injected_total(), before + 1);
}

TEST(FaultRegistryTest, MalformedPlansAreRejectedAtArmTime) {
  FaultGuard guard;
  // Unknown action.
  EXPECT_ANY_THROW(fault::arm(Json::parse(
      R"({"sites": {"s": {"action": "explode"}}})")));
  // Missing action.
  EXPECT_ANY_THROW(fault::arm(Json::parse(R"({"sites": {"s": {"nth": 1}}})")));
  // A rejected plan must not leave the registry half-armed.
  EXPECT_FALSE(fault::armed());
}

TEST(FaultRegistryTest, StatusJsonReportsHitsAndFires) {
  FaultGuard guard;
  fault::arm(Json::parse(
      R"({"sites": {"t.s": {"action": "fail", "every": 2}}})"));
  for (int i = 0; i < 4; ++i) fault::poll("t.s");
  const Json status = fault::status_json();
  EXPECT_TRUE(status.at("armed").as_bool());
  const Json& site = status.at("sites").at("t.s");
  EXPECT_EQ(site.at("action").as_string(), "fail");
  EXPECT_EQ(site.at("hits").as_uint(), 4u);
  EXPECT_EQ(site.at("fires").as_uint(), 2u);
}

// ---------------------------------------------------------------- backoff

TEST(BackoffTest, DelaysAreDeterministicCappedAndJittered) {
  util::Backoff a(20, 1500);
  util::Backoff b(20, 1500);
  for (std::size_t attempt = 0; attempt < 24; ++attempt) {
    const int da = a.delay_ms(attempt);
    EXPECT_EQ(da, b.delay_ms(attempt));  // same seed, same stream
    const int raw = static_cast<int>(
        std::min<std::uint64_t>(1500, 20ull << std::min(attempt, 16ul)));
    EXPECT_GE(da, raw / 2);  // jitter floor is half the raw delay
    EXPECT_LT(da, raw + 1);
    EXPECT_LE(da, 1500);
  }
  // Different seeds give different jitter streams.
  util::Backoff c(20, 1500, 7);
  bool differs = false;
  for (std::size_t attempt = 0; attempt < 24 && !differs; ++attempt)
    differs = c.delay_ms(attempt) != a.delay_ms(attempt);
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------- atomic file commits

TEST(AtomicWriteTest, ShortWriteFailsCommitAndLeavesNoFile) {
  FaultGuard guard;
  const std::filesystem::path dir = fresh_dir("clktune_fault_fs");
  const std::string target = (dir / "entry.json").string();

  fault::arm(Json::parse(R"({"sites": {
    "tfs.write": {"action": "short_write", "nth": 1, "keep_bytes": 4}
  }})"));
  EXPECT_THROW(
      util::write_file_atomic(target, "0123456789", true, "tfs"),
      std::runtime_error);
  // The torn temporary is cleaned up and the final path never appears.
  EXPECT_FALSE(std::filesystem::exists(target));
  EXPECT_TRUE(std::filesystem::is_empty(dir));

  // The next commit (fault consumed) succeeds durably.
  util::write_file_atomic(target, "0123456789", true, "tfs");
  std::ifstream in(target);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "0123456789");
  std::filesystem::remove_all(dir);
}

TEST(AtomicWriteTest, FsyncAndRenameFaultsNeverCommitAPartialFile) {
  FaultGuard guard;
  const std::filesystem::path dir = fresh_dir("clktune_fault_fs");
  const std::string target = (dir / "entry.json").string();

  fault::arm(Json::parse(R"({"sites": {
    "tfs.fsync":  {"action": "enospc", "nth": 1},
    "tfs.rename": {"action": "fail", "nth": 1}
  }})"));
  EXPECT_THROW(util::write_file_atomic(target, "abc", true, "tfs"),
               std::runtime_error);  // the fsync ENOSPC
  EXPECT_THROW(util::write_file_atomic(target, "abc", true, "tfs"),
               std::runtime_error);  // the rename failure
  EXPECT_FALSE(std::filesystem::exists(target));
  EXPECT_TRUE(std::filesystem::is_empty(dir));  // no leaked temporaries
  std::filesystem::remove_all(dir);
}

TEST(AtomicWriteTest, TruncateFaultCommitsATornFile) {
  // `truncate` deliberately commits the torn bytes — it models a file torn
  // by a crash *after* rename, and is the generator the torn-envelope
  // tests below build on.
  FaultGuard guard;
  const std::filesystem::path dir = fresh_dir("clktune_fault_fs");
  const std::string target = (dir / "entry.json").string();

  fault::arm(Json::parse(R"({"sites": {
    "tfs.write": {"action": "truncate", "nth": 1, "keep_bytes": 4}
  }})"));
  util::write_file_atomic(target, "0123456789", true, "tfs");
  std::ifstream in(target);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "0123");
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- degraded-mode cache

TEST(CacheDegradedTest, DiskWriteFailureDegradesToReadOnlyNotAnAbort) {
  FaultGuard guard;
  const std::filesystem::path dir = fresh_dir("clktune_fault_cache");
  cache::ResultCache cache(dir.string());

  Json artifact = Json::object();
  artifact.set("name", "a");
  cache.put("aaaa", artifact);  // clean commit
  ASSERT_TRUE(cache.get("aaaa").has_value());
  EXPECT_FALSE(cache.degraded());

  fault::arm(Json::parse(
      R"({"sites": {"cache.write": {"action": "enospc", "nth": 1}}})"));
  Json second = Json::object();
  second.set("name", "b");
  cache.put("bbbb", second);  // must NOT throw: degrade instead
  EXPECT_TRUE(cache.degraded());
  EXPECT_EQ(cache.stats().write_failures, 1u);

  // The memory layer still serves the failed put; the earlier disk entry
  // still serves; new puts skip the disk silently.
  EXPECT_TRUE(cache.get("bbbb").has_value());
  EXPECT_TRUE(cache.get("aaaa").has_value());
  fault::disarm();
  Json third = Json::object();
  third.set("name", "c");
  cache.put("cccc", third);  // degraded is sticky: no disk write attempted
  EXPECT_TRUE(cache.get("cccc").has_value());
  EXPECT_FALSE(std::filesystem::exists(dir / "bbbb.json"));
  EXPECT_FALSE(std::filesystem::exists(dir / "cccc.json"));
  EXPECT_EQ(cache.stats().write_failures, 1u);

  // A fresh instance on the same directory starts healthy.
  cache::ResultCache fresh(dir.string());
  EXPECT_FALSE(fresh.degraded());
  EXPECT_TRUE(fresh.get("aaaa").has_value());
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- torn envelopes

TEST(TornEnvelopeTest, TornCacheEntryIsASelfHealingMissNotAThrow) {
  const std::filesystem::path dir = fresh_dir("clktune_fault_torn");
  Json artifact = Json::object();
  artifact.set("name", "torn");
  {
    cache::ResultCache cache(dir.string());
    cache.put("feedbeef", artifact);
  }
  // Tear the envelope mid-JSON, as a crash after a truncate fault would.
  const std::filesystem::path entry = dir / "feedbeef.json";
  ASSERT_TRUE(std::filesystem::exists(entry));
  std::filesystem::resize_file(entry,
                               std::filesystem::file_size(entry) / 2);

  cache::ResultCache reopened(dir.string());
  EXPECT_FALSE(reopened.get("feedbeef").has_value());  // miss, no throw
  EXPECT_EQ(reopened.stats().self_heals, 1u);

  // Re-putting overwrites the torn entry and the key serves again.
  reopened.put("feedbeef", artifact);
  cache::ResultCache third(dir.string());
  EXPECT_TRUE(third.get("feedbeef").has_value());
  std::filesystem::remove_all(dir);
}

TEST(TornEnvelopeTest, TornJobEnvelopeIsSkippedOnLoadIntactOnesRequeue) {
  const std::filesystem::path dir = fresh_dir("clktune_fault_jobs");
  std::string torn_id;
  std::string intact_id;
  {
    jobs::JobStore store(dir.string());
    store.load();
    exec::Request request = exec::Request::from_json(small_campaign_doc());
    request.validate();
    torn_id = store.create(request.document(), "campaign", "torn", {}, 4).id;
    intact_id =
        store.create(request.document(), "campaign", "intact", {}, 4).id;
    store.set_state(intact_id, jobs::JobState::running);
  }
  const std::filesystem::path torn_path = dir / (torn_id + ".json");
  ASSERT_TRUE(std::filesystem::exists(torn_path));
  std::filesystem::resize_file(torn_path,
                               std::filesystem::file_size(torn_path) / 2);

  // Reload: the torn envelope is skipped (a daemon restart must never
  // crash on a half-written file), the intact running one re-queues.
  jobs::JobStore recovered(dir.string());
  EXPECT_EQ(recovered.load(), 1u);
  EXPECT_FALSE(recovered.get(torn_id).has_value());
  ASSERT_TRUE(recovered.get(intact_id).has_value());
  EXPECT_EQ(recovered.get(intact_id)->state, jobs::JobState::queued);
  const auto claimed = recovered.claim_next();
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->id, intact_id);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ socket seams

TEST(SocketFaultTest, ConnectReadAndWriteSitesInjectNamedFailures) {
  FaultGuard guard;
  const util::TcpSocket listener = util::tcp_listen(0);
  const std::uint16_t port = util::tcp_local_port(listener);

  fault::arm(Json::parse(
      R"({"sites": {"socket.connect": {"action": "reset", "nth": 1}}})"));
  try {
    util::tcp_connect("127.0.0.1", port, 1000);
    FAIL() << "expected the injected connect reset";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("socket.connect"),
              std::string::npos);
  }
  // The fault is consumed: the second connect succeeds for real.
  const util::TcpSocket alive = util::tcp_connect("127.0.0.1", port, 1000);

  fault::arm(Json::parse(R"({"sites": {
    "socket.write": {"action": "truncate", "nth": 1, "keep_bytes": 2}
  }})"));
  try {
    util::tcp_write_all(alive, "0123456789\n");
    FAIL() << "expected the injected torn frame";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("torn"), std::string::npos);
  }
}

// ---------------------------------------------------------- stuck-job watchdog

TEST(WatchdogTest, StalledJobIsRequeuedAndStillFinishes) {
  FaultGuard guard;
  const std::filesystem::path dir = fresh_dir("clktune_fault_watchdog");
  cache::ResultCache cache((dir / "cache").string());

  // The first checkpoint sleeps far past the stall deadline, so the
  // watchdog flags the job; the executor observes the flag before the
  // next cell and the worker re-queues instead of cancelling.  The rerun
  // replays finished cells from the cache and completes.
  fault::arm(Json::parse(R"({"sites": {
    "scheduler.checkpoint": {"action": "delay", "nth": 1,
                              "delay_ms": 1500}
  }})"));
  jobs::JobSchedulerOptions options;
  options.workers = 1;
  // One campaign worker: cells run in order, so the cells after the first
  // are still unstarted when the delayed checkpoint returns — a second
  // worker would pull and finish them during the delay, leaving no next
  // cell at which to observe the stall flag.
  options.threads = 1;
  options.stall_timeout_ms = 300;
  jobs::JobScheduler scheduler((dir / "jobs").string(), &cache, options);
  scheduler.start();
  const std::uint64_t requeues_before =
      obs::Registry::global()
          .counter("clktune_jobs_stall_requeues_total",
                   "Stalled jobs re-queued by the watchdog")
          .value();

  const jobs::JobRecord job = scheduler.submit(small_campaign_doc(), {});
  jobs::JobRecord finished = job;
  for (int i = 0; i < 3000; ++i) {
    const auto state = scheduler.get(job.id);
    ASSERT_TRUE(state.has_value());
    finished = *state;
    if (finished.state == jobs::JobState::done ||
        finished.state == jobs::JobState::error)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(finished.state, jobs::JobState::done);
  EXPECT_EQ(finished.done_indices.size(), 4u);
  EXPECT_GE(obs::Registry::global()
                .counter("clktune_jobs_stall_requeues_total",
                         "Stalled jobs re-queued by the watchdog")
                .value(),
            requeues_before + 1);

  // The requeued job's attach stream is still byte-identical to a clean
  // synchronous sweep.
  exec::LocalExecutor local;
  const exec::Outcome reference =
      local.execute(exec::Request::from_json(small_campaign_doc()));
  std::vector<std::string> streamed;
  scheduler.attach(job.id, [&streamed](const Json& frame) {
    streamed.push_back(frame.at("result").dump());
    return true;
  });
  ASSERT_EQ(streamed.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(streamed[i], reference.summary.results[i].to_json().dump());

  scheduler.stop();
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ drain + prune

class ServeFaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = fresh_dir("clktune_fault_serve");
    start_server();
  }
  void TearDown() override {
    fault::disarm();
    if (server_ != nullptr) stop_server();
    std::filesystem::remove_all(cache_dir_);
  }

  void start_server() {
    serve::ServeOptions options;
    options.port = port_;  // 0 first time; the restart reuses the port
    options.threads = 2;
    options.cache_dir = cache_dir_.string();
    options.drain_grace_ms = 10000;
    server_ = std::make_unique<serve::ScenarioServer>(std::move(options));
    server_->start();
    port_ = server_->port();
    thread_ = std::thread([s = server_.get()] { s->serve_forever(); });
  }

  void stop_server() {
    server_->stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
  }

  serve::Client client() const { return {"127.0.0.1", port_}; }

  std::unique_ptr<serve::ScenarioServer> server_;
  std::thread thread_;
  std::uint16_t port_ = 0;
  std::filesystem::path cache_dir_;
};

TEST_F(ServeFaultFixture, DrainVerbStopsAdmissionFinishesAndExitsCleanly) {
  // Seed one finished job so the restart has something to recover.
  const Json admitted = client().submit(tiny_scenario_doc()).final_event;
  ASSERT_EQ(admitted.at("event").as_string(), "job");
  const std::string id = admitted.at("id").as_string();

  const Json draining = client().drain().final_event;
  ASSERT_EQ(draining.at("event").as_string(), "draining");
  EXPECT_TRUE(draining.at("ok").as_bool());

  // serve_forever must come home on its own: admission is closed, the
  // in-flight work finishes inside the grace window.
  thread_.join();
  EXPECT_TRUE(server_->draining());
  server_.reset();

  // A restart on the same directory still knows the job, and its attach
  // stream matches a clean direct run byte for byte.
  start_server();
  Json frame = client().status(id).final_event;
  ASSERT_EQ(frame.at("event").as_string(), "job");
  for (int i = 0; i < 600 && frame.at("state").as_string() != "done"; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    frame = client().status(id).final_event;
  }
  ASSERT_EQ(frame.at("state").as_string(), "done");

  const serve::SubmitOutcome stream = client().attach(id);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream.results.size(), 1u);
  const scenario::ScenarioResult direct = scenario::run_scenario(
      scenario::ScenarioSpec::from_json(tiny_scenario_doc()), 2);
  EXPECT_EQ(stream.results[0].dump(), direct.to_json().dump());
}

TEST_F(ServeFaultFixture, PruneVerbDropsTerminalEnvelopes) {
  const std::string id =
      client().submit(tiny_scenario_doc()).final_event.at("id").as_string();
  Json frame = client().status(id).final_event;
  for (int i = 0; i < 600 && frame.at("state").as_string() != "done"; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    frame = client().status(id).final_event;
  }
  ASSERT_EQ(frame.at("state").as_string(), "done");

  const Json pruned = client().prune(0).final_event;
  ASSERT_EQ(pruned.at("event").as_string(), "pruned");
  EXPECT_EQ(pruned.at("removed").as_uint(), 1u);
  EXPECT_EQ(pruned.at("keep").as_uint(), 0u);

  // The envelope is gone from memory and disk.
  EXPECT_EQ(client().status(id).final_event.at("event").as_string(), "error");
  EXPECT_TRUE(std::filesystem::is_empty(cache_dir_ / "jobs"));
}

// -------------------------------------------------------------- chaos soak

TEST(ChaosSoakTest, SeededFaultStormFleetStaysByteIdenticalToCleanRun) {
  FaultGuard guard;
  const exec::Request request =
      exec::Request::from_json(small_campaign_doc());

  // The clean reference, computed before any fault is armed.
  exec::LocalExecutor local;
  const std::string expected = local.execute(request).artifact().dump();

  const std::filesystem::path cache_dir = fresh_dir("clktune_fault_soak");
  std::vector<std::unique_ptr<serve::ScenarioServer>> servers;
  std::vector<std::thread> accept_threads;
  for (std::size_t i = 0; i < 3; ++i) {
    serve::ServeOptions options;
    options.port = 0;
    options.threads = 2;
    options.cache_dir = cache_dir.string();
    servers.push_back(
        std::make_unique<serve::ScenarioServer>(std::move(options)));
    servers.back()->start();
    accept_threads.emplace_back(
        [s = servers.back().get()] { s->serve_forever(); });
  }
  fleet::FleetSpec pool;
  for (const auto& server : servers)
    pool.members.push_back({"127.0.0.1", server->port(), 1});

  // The storm, seeded so a failure reproduces: periodic torn frames and
  // connection resets on the shared socket seams (client and daemon ends
  // both poll them), one ENOSPC that degrades one daemon's cache to
  // read-only mid-campaign.  Every count is capped so the fleet's retry
  // budget always outlasts the plan.
  fault::arm(Json::parse(R"({"seed": 20160, "sites": {
    "socket.write":  {"action": "truncate", "every": 6, "keep_bytes": 64,
                       "count": 4},
    "socket.read":   {"action": "reset", "every": 9, "count": 3},
    "cache.write":   {"action": "enospc", "nth": 1, "count": 1}
  }})"));
  const std::uint64_t injected_before = fault::injected_total();

  fleet::FleetOptions options;
  options.max_retries = 25;  // storm headroom; a clean pool needs 1
  options.reprobe_interval_ms = 50;
  fleet::FleetExecutor executor(std::move(pool), options);

  std::string produced;
  std::string failure;
  std::thread campaign([&] {
    try {
      produced = executor.execute(request).artifact().dump();
    } catch (const std::exception& e) {
      failure = e.what();
    }
  });

  // Mid-storm, daemon 0 goes away entirely and comes back on the same
  // port — the reprobe must fold it back into the pool.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::uint16_t lost_port = servers[0]->port();
  servers[0]->stop();
  accept_threads[0].join();
  servers[0].reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  serve::ServeOptions revived_options;
  revived_options.port = lost_port;
  revived_options.threads = 2;
  revived_options.cache_dir = cache_dir.string();
  auto revived =
      std::make_unique<serve::ScenarioServer>(std::move(revived_options));
  revived->start();
  std::thread revived_thread([s = revived.get()] { s->serve_forever(); });

  campaign.join();
  fault::disarm();

  EXPECT_EQ(failure, "");
  EXPECT_EQ(produced, expected);  // byte identity under the storm
  EXPECT_GT(fault::injected_total(), injected_before);  // storm was real

  revived->stop();
  revived_thread.join();
  for (std::size_t i = 1; i < servers.size(); ++i) {
    servers[i]->stop();
    accept_threads[i].join();
  }
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace clktune
