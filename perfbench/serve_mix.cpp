// serve_mix: a closed loop of clients against one `clktune serve` daemon.
//
// Every run starts its own daemons with empty cache directories: the load
// schedule's fresh documents are keyed by ordinal, not seed, so a daemon
// that outlived a run would serve them from cache the next time.  The
// clients replay a fixed-length load::make_schedule from the run's seed
// (the request budget is fixed, not the duration) and keep every request's
// latency, so percentiles are exact order statistics.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/local_executor.h"
#include "load/workload.h"
#include "serve/client.h"
#include "workloads.h"

namespace clktune::perfbench {

namespace {

using util::Json;

/// Requests per second of the run's budget: sized so a run takes about
/// --seconds on a 4-core machine.
constexpr double kRequestsPerSecond = 100.0;
/// Job flows number their fresh documents from here, fresh runs from 0.
constexpr std::uint64_t kJobDocs = 1000000;
/// Fresh answers recomputed locally and compared, per verb (run, job).
constexpr std::size_t kCheckedPerVerb = 6;
/// Daemon starts before and again after the measured pass (see set_setup).
constexpr int kSetupRepeats = 51;
constexpr int kTimeoutMs = 60000;

/// A `clktune serve` child process on an ephemeral loopback port.  The
/// destructor kills and reaps it if stop() was not reached.
class Daemon {
 public:
  Daemon(const Options& options, const std::string& cache_dir) {
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);
    const std::string log = options.work_dir + "/serve.log";
    const std::string threads = std::to_string(kThreads);
    std::vector<std::string> args = {options.clktune, "serve",   "--port",
                                     "0",             "--quiet", "--cache-dir",
                                     cache_dir,       "-t",      threads};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    int out[2];
    if (pipe(out) != 0) throw std::runtime_error("serve_mix: pipe failed");
    const int log_fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    pid_ = fork();
    if (pid_ < 0) {
      close(out[0]);
      close(out[1]);
      if (log_fd >= 0) close(log_fd);
      throw std::runtime_error("serve_mix: fork failed");
    }
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, even one killed hard.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], STDOUT_FILENO);
      if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
      close(out[0]);
      close(out[1]);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out[1]);
    if (log_fd >= 0) close(log_fd);
    try {
      port_ = read_port(out[0]);
    } catch (...) {
      close(out[0]);
      reap();  // the destructor does not run for a failed constructor
      throw;
    }
    close(out[0]);
  }

  ~Daemon() { reap(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// Asks the daemon to shut down and reaps it (SIGKILL after 10 s).
  void stop() {
    try {
      Json wire = Json::object();
      wire.set("cmd", "shutdown");
      serve::submit_raw("127.0.0.1", port_, wire, {}, timeouts());
    } catch (const std::exception&) {
      // Reaped below either way.
    }
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    reap();
  }

  static serve::SubmitOptions timeouts() {
    serve::SubmitOptions t;
    t.connect_timeout_ms = 5000;
    t.io_timeout_ms = kTimeoutMs;
    return t;
  }

 private:
  /// Reads "clktune: serving on 127.0.0.1:<port>" from the child's stdout.
  static std::uint16_t read_port(int fd) {
    std::string text;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (text.find('\n') == std::string::npos) {
      if (std::chrono::steady_clock::now() > deadline)
        throw std::runtime_error("serve_mix: daemon did not report a port");
      pollfd p{fd, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = read(fd, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("serve_mix: daemon exited early");
      text.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t colon = text.rfind(':', text.find('\n'));
    if (text.find("serving on") == std::string::npos ||
        colon == std::string::npos)
      throw std::runtime_error("serve_mix: unexpected daemon banner: " +
                               text);
    return static_cast<std::uint16_t>(std::stoul(text.substr(colon + 1)));
  }

  /// Kills the child (if still running) and waits for it.
  void reap() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

Json command(const char* cmd) {
  Json wire = Json::object();
  wire.set("cmd", cmd);
  return wire;
}

std::string results_dump(const serve::SubmitOutcome& outcome) {
  std::string out;
  for (const Json& result : outcome.results) out += result.dump() + "\n";
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The run's schedule: load::make_schedule's seeded order, cut so that
/// every kind gets exactly its share of the budget under the mix weights,
/// and with fresh documents numbered densely per kind (fresh runs from 0,
/// job flows from kJobDocs).  Every seed then does the same work in a
/// different order.  Left as drawn, the per-kind counts vary with the seed,
/// and so does which documents become runs and which become jobs; their
/// compute times are heavy-tailed, and the metrics would follow that draw
/// instead of the program.
std::vector<load::Op> quota_schedule(std::uint64_t seed, std::size_t budget) {
  const load::WorkloadMix mix;
  const double weights[] = {mix.run_warm, mix.run_fresh, mix.sweep, mix.status,
                            mix.job_flow};
  std::size_t quota[5], total = 0;
  for (std::size_t k = 0; k < 5; ++k) {
    quota[k] = static_cast<std::size_t>(static_cast<double>(budget) *
                                        weights[k] / mix.total());
    total += quota[k];
  }
  std::vector<load::Op> schedule;
  std::uint64_t runs = 0, jobs = 0;
  for (load::Op op : load::make_schedule(mix, seed, 4 * budget, {1})) {
    const auto kind = static_cast<std::size_t>(op.kind);
    if (quota[kind] == 0) continue;
    --quota[kind];
    if (op.kind == load::OpKind::run_fresh) op.fresh_ordinal = runs++;
    if (op.kind == load::OpKind::job_flow) op.fresh_ordinal = kJobDocs + jobs++;
    schedule.push_back(op);
    if (schedule.size() == total) return schedule;
  }
  throw std::logic_error("serve_mix: schedule too short to fill the quotas");
}

/// What the clients observed; merged from per-thread copies.
struct Observed {
  std::vector<double> run_ms, job_ms;
  std::vector<double> request_ms;  ///< every exchange, for span coverage
  std::uint64_t ops = 0, failed = 0;
  std::map<std::uint64_t, std::string> fresh;  ///< checked ordinal -> answer
  std::string warm, sweep;  ///< first answers; later ones must equal them
  std::uint64_t warm_mismatch = 0, sweep_mismatch = 0;
};

class Client {
 public:
  Client(std::uint16_t port, const std::vector<load::Op>& schedule,
         std::atomic<std::size_t>& cursor, const Json& base,
         const Json& sweep, std::uint64_t seed, bool spans)
      : port_(port),
        schedule_(schedule),
        cursor_(cursor),
        base_(base),
        sweep_(sweep),
        seed_(seed),
        spans_(spans) {}

  void run() {
    while (true) {
      const std::size_t i = cursor_.fetch_add(1);
      if (i >= schedule_.size()) return;
      execute(schedule_[i]);
      ++seen_.ops;
    }
  }

  Observed& observed() { return seen_; }

 private:
  enum class Status { ok, busy, failed };

  Status exchange(const Json& wire, serve::SubmitOutcome& outcome) {
    const std::uint64_t t0 = now_ns();
    bool sent = true;
    try {
      outcome = serve::submit_raw("127.0.0.1", port_, wire, {},
                                  Daemon::timeouts());
    } catch (const std::exception&) {
      sent = false;
    }
    if (spans_)
      seen_.request_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    if (!sent) return Status::failed;
    const Json* code = outcome.final_event.find("code");
    if (code != nullptr && code->is_string() && code->as_string() == "busy")
      return Status::busy;
    const Json* event = outcome.final_event.find("event");
    if (event == nullptr || event->as_string() == "error")
      return Status::failed;
    return Status::ok;
  }

  /// The seeded subset of fresh answers kept for checking, plus the first
  /// document of each verb so that even a short run checks both.
  bool checked(std::uint64_t ordinal) const {
    return ordinal == 0 || ordinal == kJobDocs ||
           mix64(seed_ ^ mix64(ordinal)) % 8 == 0;
  }

  void keep_fresh(std::uint64_t ordinal, const serve::SubmitOutcome& out) {
    if (checked(ordinal)) seen_.fresh[ordinal] = results_dump(out);
  }

  void keep_first(std::string& first, std::uint64_t& mismatches,
                  const serve::SubmitOutcome& out) {
    const std::string answer = results_dump(out);
    if (first.empty())
      first = answer;
    else if (answer != first)
      ++mismatches;
  }

  /// The detached lifecycle: submit, poll status until done, attach.
  Status run_job(std::uint64_t ordinal, serve::SubmitOutcome& out) {
    Json submit = command("submit");
    submit.set("doc", load::fresh_scenario(base_, ordinal));
    Status status = exchange(submit, out);
    if (status != Status::ok) return status;
    const Json* id_frame = out.final_event.find("id");
    if (id_frame == nullptr || !id_frame->is_string()) return Status::failed;
    const std::string id = id_frame->as_string();  // `out` is reused below
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(kTimeoutMs);
    while (true) {
      Json poll_wire = command("status");
      poll_wire.set("id", id);
      status = exchange(poll_wire, out);
      if (status == Status::failed) return status;
      if (status == Status::ok) {
        const std::string state = out.final_event.at("state").as_string();
        if (state == "done") break;
        if (state != "queued" && state != "preparing" && state != "running")
          return Status::failed;
      }
      if (std::chrono::steady_clock::now() > deadline) return Status::failed;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Json attach = command("attach");
    attach.set("id", id);
    status = exchange(attach, out);
    if (status == Status::ok) {
      if (out.results.size() != 1) return Status::failed;
      keep_fresh(ordinal, out);
    }
    return status;
  }

  void execute(const load::Op& op) {
    serve::SubmitOutcome out;
    Status status = Status::failed;
    try {
      status = dispatch(op, out);
    } catch (const std::exception&) {
      status = Status::failed;  // a malformed frame; reported below
    }
    if (status == Status::ok) return;
    if (seen_.failed++ == 0)
      std::fprintf(stderr, "perfbench: serve_mix: %s failed, last frame %s\n",
                   load::to_string(op.kind), out.final_event.dump().c_str());
  }

  Status dispatch(const load::Op& op, serve::SubmitOutcome& out) {
    Status status = Status::failed;
    const std::uint64_t t0 = now_ns();
    switch (op.kind) {
      case load::OpKind::run_warm:
      case load::OpKind::run_fresh: {
        const bool fresh = op.kind == load::OpKind::run_fresh;
        Json wire = command("run");
        wire.set("doc", fresh ? load::fresh_scenario(base_, op.fresh_ordinal)
                              : base_);
        status = exchange(wire, out);
        seen_.run_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0));
        if (status == Status::ok && out.results.size() != 1)
          status = Status::failed;
        if (status != Status::ok) break;
        if (fresh)
          keep_fresh(op.fresh_ordinal, out);
        else
          keep_first(seen_.warm, seen_.warm_mismatch, out);
        break;
      }
      case load::OpKind::sweep: {
        Json wire = command("sweep");
        wire.set("doc", sweep_);
        status = exchange(wire, out);
        if (status == Status::ok)
          keep_first(seen_.sweep, seen_.sweep_mismatch, out);
        break;
      }
      case load::OpKind::status_probe:
        status = exchange(command("status"), out);
        break;
      case load::OpKind::job_flow:
        status = run_job(op.fresh_ordinal, out);
        seen_.job_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0));
        break;
    }
    return status;
  }

  std::uint16_t port_;
  const std::vector<load::Op>& schedule_;
  std::atomic<std::size_t>& cursor_;
  const Json& base_;
  const Json& sweep_;
  std::uint64_t seed_;
  bool spans_;  ///< traced run: keep every exchange's duration
  Observed seen_;
};

/// Folds "first answer + mismatch count" of one client into the total.
void merge_first(std::string& into, std::uint64_t& mismatches,
                 const std::string& first, std::uint64_t part_mismatches) {
  mismatches += part_mismatches;
  if (into.empty())
    into = first;
  else if (!first.empty() && first != into)
    ++mismatches;
}

void merge_into(Observed& all, Observed& part) {
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(all.run_ms, part.run_ms);
  append(all.job_ms, part.job_ms);
  append(all.request_ms, part.request_ms);
  all.ops += part.ops;
  all.failed += part.failed;
  all.fresh.merge(part.fresh);
  merge_first(all.warm, all.warm_mismatch, part.warm, part.warm_mismatch);
  merge_first(all.sweep, all.sweep_mismatch, part.sweep, part.sweep_mismatch);
}

/// One load pass against `daemon`; returns the pass's wall seconds.
double load_pass(const Options& options, const Daemon& daemon,
                 const std::vector<load::Op>& schedule, const Json& base,
                 const Json& sweep, bool spans, Observed& observed) {
  std::atomic<std::size_t> cursor{0};
  std::vector<Client> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back(daemon.port(), schedule, cursor, base, sweep,
                         options.seed, spans);
  const std::uint64_t t0 = now_ns();
  {
    std::vector<std::jthread> threads;
    for (Client& client : clients) threads.emplace_back([&client] {
      client.run();
    });
  }
  const double wall = 1e-9 * static_cast<double>(now_ns() - t0);
  for (Client& client : clients) merge_into(observed, client.observed());
  return wall;
}

/// The answer LocalExecutor gives for `doc`, in the daemon's result form.
std::string local_answer(const Json& doc, int threads) {
  exec::Request request = exec::Request::from_json(doc);
  request.threads = threads;
  const exec::Outcome outcome = exec::LocalExecutor().execute(request);
  std::string out;
  if (outcome.kind == exec::Request::Kind::scenario)
    return outcome.result.to_json().dump() + "\n";
  for (const scenario::ScenarioResult& cell : outcome.summary.results)
    out += cell.to_json().dump() + "\n";
  return out;
}

/// Checks every answer the clients kept against LocalExecutor.
void check_answers(const Observed& observed,
                   const Json& base, const Json& sweep, RunReport& report) {
  report.check(!observed.warm.empty() && observed.warm_mismatch == 0 &&
                   observed.warm == local_answer(base, kThreads),
               "serve_mix: warm answers differ from LocalExecutor");
  report.check(observed.sweep.empty() || (observed.sweep_mismatch == 0 &&
                                          observed.sweep ==
                                              local_answer(sweep,
                                                           kThreads)),
               "serve_mix: sweep answers differ from LocalExecutor");
  // Fresh runs are numbered below kJobDocs and job flows from it; both
  // verbs get their own share of the checks.
  const auto jobs = observed.fresh.lower_bound(kJobDocs);
  const auto check_verb = [&](auto it, const auto end) {
    for (std::size_t n = 0; it != end && n < kCheckedPerVerb; ++it, ++n)
      report.check(it->second == local_answer(load::fresh_scenario(
                                                   base, it->first),
                                               kThreads),
                   "serve_mix: fresh document " + std::to_string(it->first) +
                       " differs from LocalExecutor");
  };
  check_verb(observed.fresh.begin(), jobs);
  check_verb(jobs, observed.fresh.end());
}

std::uint64_t counter(const Json& snapshot, const std::string& name) {
  const Json* value = snapshot.at("metrics").at("counters").find(name);
  return value == nullptr ? 0 : value->as_uint();
}

}  // namespace

void run_serve_mix(const Options& options, RunReport& report) {
  const Json base = load::default_base_scenario();
  const Json sweep = load::sweep_campaign(base);
  const std::size_t budget = static_cast<std::size_t>(
      kRequestsPerSecond * options.seconds);
  const std::vector<load::Op> schedule = quota_schedule(options.seed, budget);

  // Set-up: daemon start (empty cache) to the first answered frame,
  // repeated; the last daemon carries the measured pass.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  const auto setup = [&]() {
    daemon.reset();  // killed: a daemon that served nothing needs no stop
    daemon = std::make_unique<Daemon>(options, options.work_dir + "/cache");
    const serve::SubmitOutcome status =
        serve::submit_raw("127.0.0.1", daemon->port(), command("status"), {},
                          Daemon::timeouts());
    if (status.final_event.find("event") == nullptr)
      throw std::runtime_error("serve_mix: daemon did not answer status");
  };
  time_setups(kSetupRepeats, setup, setup_s);

  // The traced run measures one plain pass first, then the traced pass
  // against another fresh daemon: the difference is the tracing overhead.
  double plain_wall = 0.0;
  if (options.trace) {
    Observed plain;
    plain_wall = load_pass(options, *daemon, schedule, base, sweep, false,
                           plain);
    report.tally(plain.ops, plain.failed,
                 "serve_mix: requests of the plain pass failed");
    check_answers(plain, base, sweep, report);
    daemon->stop();
    daemon = std::make_unique<Daemon>(options, options.work_dir + "/cache");
  }
  Observed observed;
  const double wall = load_pass(options, *daemon, schedule, base, sweep,
                                options.trace, observed);
  Json status, metrics;
  if (options.trace) {
    status = serve::submit_raw("127.0.0.1", daemon->port(), command("status"),
                               {}, Daemon::timeouts())
                 .final_event;
    metrics = serve::submit_raw("127.0.0.1", daemon->port(),
                                command("metrics"), {}, Daemon::timeouts())
                  .final_event;
  }
  daemon->stop();
  daemon.reset();

  report.tally(observed.ops, observed.failed, "serve_mix: requests failed");
  check_answers(observed, base, sweep, report);

  if (!options.trace) {
    report.set("wall_s", wall);
    time_setups(kSetupRepeats, setup, setup_s);
    daemon.reset();
    set_setup(report, setup_s);
    report.set("peak_rss_mb", peak_rss_children_mb());
    report.set("throughput_rps", static_cast<double>(observed.ops) / wall);
    report.set("run_p50_ms", median(observed.run_ms));
    report.set("run_p99_ms", quantile(observed.run_ms, 0.99));
    report.set("job_p95_ms", quantile(observed.job_ms, 0.95));
    if (observed.warm.empty())
      throw std::runtime_error("serve_mix: no warm answer to report on");
    const scenario::ScenarioResult warm = scenario::ScenarioResult::from_json(
        Json::parse(observed.warm.substr(0, observed.warm.size() - 1)));
    report.set("yield_gain_pct", 100.0 * warm.yield.improvement());
    report.set("buffers", warm.insertion.plan.physical_buffers());
    return;
  }

  const Json& cache = status.at("cache");
  const double hits = static_cast<double>(cache.at("hits").as_uint());
  const double misses = static_cast<double>(cache.at("misses").as_uint());
  const Json* run_hist = metrics.at("metrics").at("histograms").find(
      "clktune_serve_request_seconds{verb=\"run\"}");
  report.set("serve.server_run_ms_p50",
             run_hist == nullptr ? 0.0 : 1e3 * run_hist->at("p50").as_double());
  report.set("serve.busy",
             static_cast<double>(
                 counter(metrics, "clktune_serve_busy_rejections_total")));
  report.set("serve.error_rate", static_cast<double>(observed.failed) /
                                     static_cast<double>(observed.ops));
  report.set("cache.hits", hits);
  report.set("cache.misses", misses);
  report.set("cache.hit_ratio",
             hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  report.set("jobs.completed",
             static_cast<double>(status.at("jobs").at("done").as_uint()));
  const double in_exchanges = sum(observed.request_ms) * 1e-3;
  const double capacity = wall * static_cast<double>(kClients);
  report.set("trace.span_coverage_pct", 100.0 * in_exchanges / capacity);
  report.set("trace.unattributed_s", capacity - in_exchanges);
  report.set("trace.overhead_pct", 100.0 * (wall - plain_wall) / plain_wall);
}

}  // namespace clktune::perfbench
