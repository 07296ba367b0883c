#include "load/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "bench/bench_report.h"
#include "obs/metrics.h"
#include "serve/client.h"

namespace clktune::load {

namespace {

using util::Json;

/// The serve verbs a load client exercises; fixed so the per-verb
/// histograms are plain arrays with no locking on the record path.
constexpr const char* kVerbs[] = {"run", "sweep", "status", "submit",
                                 "attach"};
constexpr std::size_t kVerbCount = sizeof(kVerbs) / sizeof(kVerbs[0]);
constexpr std::size_t kRun = 0, kSweep = 1, kStatus = 2, kSubmit = 3,
                      kAttach = 4;

/// Duration-mode runs loop around a schedule of this many operations;
/// fresh-document indices advance by the schedule's fresh count per lap,
/// so wrapped laps still submit never-seen documents.
constexpr std::size_t kScheduleChunk = 4096;

enum class Status { ok, busy, error_frame, transport };

/// Shared run state: counters are relaxed atomics, histograms are
/// obs::Histogram (thread-sharded, lock-free recording).
struct RunState {
  obs::Histogram verb_latency[kVerbCount];
  std::atomic<std::uint64_t> ops{0}, ok{0}, busy{0}, errors{0},
      transport{0};
};

class Worker {
 public:
  Worker(const LoadOptions& options, const std::vector<Op>& schedule,
         std::uint64_t schedule_fresh, const Json& base_doc,
         const Json& sweep_doc, std::atomic<std::uint64_t>& next_op,
         std::uint64_t budget, std::uint64_t deadline_ns,
         std::uint64_t start_ns, RunState& state)
      : options_(options),
        schedule_(schedule),
        schedule_fresh_(schedule_fresh),
        base_doc_(base_doc),
        sweep_doc_(sweep_doc),
        next_op_(next_op),
        budget_(budget),
        deadline_ns_(deadline_ns),
        start_ns_(start_ns),
        state_(state) {}

  void run() {
    while (true) {
      const std::uint64_t g = next_op_.fetch_add(1);
      if (g >= budget_) return;
      std::uint64_t arrival_lag_ns = 0;
      if (options_.rate > 0.0) {
        // Open loop: operation g is due at g/rate; latency counts from
        // the due time, so a saturated pool shows up as queueing delay.
        const auto due_ns =
            start_ns_ + static_cast<std::uint64_t>(
                            1e9 * static_cast<double>(g) / options_.rate);
        if (deadline_ns_ != 0 && due_ns >= deadline_ns_) return;
        std::uint64_t now = obs::steady_now_ns();
        if (now < due_ns) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due_ns - now));
          now = obs::steady_now_ns();
        }
        arrival_lag_ns = now > due_ns ? now - due_ns : 0;
      } else if (deadline_ns_ != 0 &&
                 obs::steady_now_ns() >= deadline_ns_) {
        return;
      }
      const Op& op = schedule_[g % schedule_.size()];
      const std::uint64_t epoch = g / schedule_.size();
      execute(op, epoch * schedule_fresh_ + op.fresh_ordinal,
              arrival_lag_ns);
    }
  }

 private:
  serve::Client client(const Op& op) const {
    serve::SubmitOptions timeouts;
    timeouts.connect_timeout_ms = options_.connect_timeout_ms;
    timeouts.io_timeout_ms = options_.io_timeout_ms;
    return options_.targets.members[op.target].client(timeouts);
  }

  /// One request/response exchange — `call` runs one client verb — timed
  /// end to end (connect included).  Records into the verb histogram for
  /// every exchange the server also counted — a busy frame is rejected
  /// before the request line is read, so it stays out; an error frame is
  /// a served request, so it counts.
  template <typename Call>
  Status exchange(std::size_t verb, std::uint64_t extra_ns, Call&& call,
                  serve::SubmitOutcome* outcome_out = nullptr) {
    const std::uint64_t t0 = obs::steady_now_ns();
    serve::SubmitOutcome outcome;
    try {
      outcome = call();
    } catch (const std::exception&) {
      return Status::transport;
    }
    const std::uint64_t elapsed =
        obs::steady_now_ns() - t0 + extra_ns;
    if (outcome.eof()) return Status::transport;  // EOF mid-stream
    if (outcome.busy()) return Status::busy;
    state_.verb_latency[verb].record(elapsed);
    const Status status =
        outcome.is("error") ? Status::error_frame : Status::ok;
    if (outcome_out != nullptr) *outcome_out = std::move(outcome);
    return status;
  }

  Status run_scenario(const Op& op, std::uint64_t fresh_index,
                      std::uint64_t extra_ns) {
    const Json doc = op.kind == OpKind::run_fresh
                         ? fresh_scenario(base_doc_, fresh_index)
                         : base_doc_;
    return exchange(kRun, extra_ns, [&] { return client(op).run(doc); });
  }

  Status run_sweep(const Op& op, std::uint64_t extra_ns) {
    return exchange(kSweep, extra_ns,
                    [&] { return client(op).sweep(sweep_doc_); });
  }

  Status run_status(const Op& op, std::uint64_t extra_ns) {
    return exchange(kStatus, extra_ns,
                    [&] { return client(op).status(); });
  }

  /// The detached lifecycle: submit --detach, poll status, attach.  Each
  /// phase is timed under its own verb, exactly as the server counts it.
  /// The poll loop is deadline-bounded so a wedged job can never hang a
  /// load client — it becomes an error instead.
  Status run_job_flow(const Op& op, std::uint64_t fresh_index,
                      std::uint64_t extra_ns) {
    const serve::Client daemon = client(op);
    const Json doc = fresh_scenario(base_doc_, fresh_index);
    serve::SubmitOutcome submitted;
    const Status submit_status = exchange(
        kSubmit, extra_ns, [&] { return daemon.submit(doc); }, &submitted);
    if (submit_status != Status::ok) return submit_status;
    if (!submitted.is("job")) return Status::error_frame;
    const std::string id = submitted.final_event.at("id").as_string();

    const int poll_budget_ms =
        options_.io_timeout_ms > 0 ? options_.io_timeout_ms : 30000;
    const std::uint64_t poll_deadline =
        obs::steady_now_ns() +
        static_cast<std::uint64_t>(poll_budget_ms) * 1000000ULL;
    while (true) {
      serve::SubmitOutcome polled;
      const Status poll_status = exchange(
          kStatus, 0, [&] { return daemon.status(id); }, &polled);
      if (poll_status == Status::transport) return poll_status;
      if (poll_status == Status::ok) {
        const std::string state =
            polled.final_event.at("state").as_string();
        if (state == "done") break;
        if (state == "failed" || state == "cancelled")
          return Status::error_frame;
      }
      if (obs::steady_now_ns() >= poll_deadline)
        return Status::error_frame;  // job never finished in budget
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    return exchange(kAttach, 0, [&] { return daemon.attach(id); });
  }

  void execute(const Op& op, std::uint64_t fresh_index,
               std::uint64_t extra_ns) {
    Status status = Status::error_frame;
    switch (op.kind) {
      case OpKind::run_warm:
      case OpKind::run_fresh:
        status = run_scenario(op, fresh_index, extra_ns);
        break;
      case OpKind::sweep:
        status = run_sweep(op, extra_ns);
        break;
      case OpKind::status_probe:
        status = run_status(op, extra_ns);
        break;
      case OpKind::job_flow:
        status = run_job_flow(op, fresh_index, extra_ns);
        break;
    }
    state_.ops.fetch_add(1, std::memory_order_relaxed);
    switch (status) {
      case Status::ok:
        state_.ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case Status::busy:
        state_.busy.fetch_add(1, std::memory_order_relaxed);
        break;
      case Status::transport:
        state_.transport.fetch_add(1, std::memory_order_relaxed);
        [[fallthrough]];
      case Status::error_frame:
        state_.errors.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }

  const LoadOptions& options_;
  const std::vector<Op>& schedule_;
  const std::uint64_t schedule_fresh_;
  const Json& base_doc_;
  const Json& sweep_doc_;
  std::atomic<std::uint64_t>& next_op_;
  const std::uint64_t budget_;
  const std::uint64_t deadline_ns_;
  const std::uint64_t start_ns_;
  RunState& state_;
};

/// Pre/post metrics fetch with bounded retries — under an armed chaos
/// plan a fetch can eat an injected reset, and the stamp (and the
/// cross-check baseline) is worth a few attempts.
bool try_fetch_snapshot(const fleet::FleetSpec& targets,
                        const serve::SubmitOptions& timeouts,
                        ServerSnapshot& out, std::string& error) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      out = fetch_server_snapshot(targets, timeouts);
      return true;
    } catch (const std::exception& e) {
      error = e.what();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

}  // namespace

LoadResult run_load(const LoadOptions& options) {
  if (options.targets.members.empty())
    throw std::invalid_argument("run_load: no targets");
  if (options.clients == 0)
    throw std::invalid_argument("run_load: clients must be >= 1");

  serve::SubmitOptions timeouts;
  timeouts.connect_timeout_ms = options.connect_timeout_ms;
  timeouts.io_timeout_ms =
      options.io_timeout_ms > 0 ? options.io_timeout_ms : 30000;

  // Pre-flight: every target must answer the metrics verb before any
  // load is generated — an unreachable daemon is "nothing measured"
  // (exit 2), not a 100% error rate.  Doubles as the cross-check's
  // before-snapshot.
  ServerSnapshot before;
  {
    std::string error;
    if (!try_fetch_snapshot(options.targets, timeouts, before, error))
      throw std::runtime_error("pre-flight metrics probe failed: " + error);
  }

  // The artifact's wall clock starts here — it measures the load run,
  // not target resolution or the pre-flight.
  bench::BenchReport report("load");

  const Json base_doc = options.base_doc.is_object()
                            ? options.base_doc
                            : default_base_scenario();
  const Json sweep_doc = sweep_campaign(base_doc);

  std::vector<std::size_t> target_weights;
  for (const fleet::FleetMember& member : options.targets.members)
    target_weights.push_back(member.weight);

  const bool budgeted = options.requests > 0;
  double duration = options.duration_seconds;
  if (!budgeted && duration <= 0.0) duration = 5.0;
  const std::size_t schedule_size =
      budgeted ? static_cast<std::size_t>(
                     std::min<std::uint64_t>(options.requests,
                                             kScheduleChunk))
               : kScheduleChunk;
  const std::vector<Op> schedule = make_schedule(
      options.mix, options.seed, schedule_size, target_weights);
  const std::uint64_t schedule_fresh = fresh_ops(schedule);

  RunState state;
  std::atomic<std::uint64_t> next_op{0};
  const std::uint64_t start_ns = obs::steady_now_ns();
  const std::uint64_t deadline_ns =
      budgeted ? 0
               : start_ns + static_cast<std::uint64_t>(duration * 1e9);
  const std::uint64_t budget =
      budgeted ? options.requests
               : std::numeric_limits<std::uint64_t>::max();

  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  for (std::size_t c = 0; c < options.clients; ++c)
    clients.emplace_back([&] {
      Worker worker(options, schedule, schedule_fresh, base_doc, sweep_doc,
                    next_op, budget, deadline_ns, start_ns, state);
      worker.run();
    });
  for (std::thread& client : clients) client.join();
  const double wall =
      static_cast<double>(obs::steady_now_ns() - start_ns) * 1e-9;

  LoadResult result;
  result.ops = state.ops.load();
  result.ok = state.ok.load();
  result.busy = state.busy.load();
  result.errors = state.errors.load();
  result.transport_errors = state.transport.load();
  result.wall_seconds = wall;
  for (std::size_t v = 0; v < kVerbCount; ++v) {
    const obs::Histogram::Snapshot snapshot =
        state.verb_latency[v].snapshot(1e-9);
    if (snapshot.count() == 0) continue;
    VerbObservation observation;
    observation.verb = kVerbs[v];
    observation.count = snapshot.count();
    observation.p50 = snapshot.quantile(0.5);
    observation.p90 = snapshot.quantile(0.9);
    observation.p99 = snapshot.quantile(0.99);
    observation.mean =
        snapshot.sum() / static_cast<double>(snapshot.count());
    result.verbs.push_back(observation);
  }

  // Post-run snapshot: always attempted — the faults_injected stamp must
  // survive even a --no-xcheck chaos run — but only the cross-check turns
  // a failed fetch into a failed gate.
  //
  // The server's latency histogram records when the handler *returns*,
  // which is after the final event was sent — so the last exchanges of the
  // run can still be mid-record when the first snapshot lands.  The
  // counters are monotonic: refetch until every client-observed verb has
  // settled (or the settle budget runs out, and the count rule reports
  // the real discrepancy).
  ServerSnapshot after;
  std::string fetch_error;
  result.server_metrics_available =
      try_fetch_snapshot(options.targets, timeouts, after, fetch_error);
  for (int settle = 0; result.server_metrics_available && settle < 20;
       ++settle) {
    const ServerSnapshot probe = ServerSnapshot::delta(before, after);
    bool settled = true;
    for (const VerbObservation& observation : result.verbs) {
      const auto it = probe.verb_latency.find(observation.verb);
      const std::uint64_t seen =
          it == probe.verb_latency.end() ? 0 : it->second.count();
      const std::uint64_t expected =
          observation.count > result.transport_errors
              ? observation.count - result.transport_errors
              : 0;
      if (seen < expected) settled = false;
    }
    if (settled) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    result.server_metrics_available =
        try_fetch_snapshot(options.targets, timeouts, after, fetch_error);
  }
  if (result.server_metrics_available) {
    const ServerSnapshot delta = ServerSnapshot::delta(before, after);
    result.server_busy_rejections = delta.busy_rejections;
    result.server_faults_injected = delta.faults_injected;
    if (options.cross_check) {
      std::vector<ClientVerb> client_verbs;
      for (const VerbObservation& observation : result.verbs) {
        ClientVerb verb;
        verb.verb = observation.verb;
        verb.count = observation.count;
        verb.p50 = observation.p50;
        verb.p90 = observation.p90;
        verb.p99 = observation.p99;
        client_verbs.push_back(verb);
      }
      result.agreement = cross_check(client_verbs, delta,
                                     result.transport_errors,
                                     options.xcheck);
    }
  } else if (options.cross_check) {
    result.agreement.ok = false;
    VerbAgreement verdict;
    verdict.ok = false;
    verdict.note = "post-run metrics fetch failed: " + fetch_error;
    result.agreement.verbs.push_back(verdict);
  }

  // Gates.
  if (options.max_error_rate < 1.0 &&
      result.error_rate() > options.max_error_rate) {
    result.gates_ok = false;
    char diagnostic[128];
    std::snprintf(diagnostic, sizeof(diagnostic),
                  "error rate %.4f exceeds --max-error-rate %.4f",
                  result.error_rate(), options.max_error_rate);
    result.gate_failures.push_back(diagnostic);
  }
  if (options.cross_check && !result.agreement.ok) {
    result.gates_ok = false;
    result.gate_failures.push_back(
        "client/server latency histograms disagree");
  }

  // The gate-ready artifact: BenchReport supplies wall clock, provenance
  // and the faults_injected guard; the flat p50/p99/throughput/rate
  // members are what bench/baselines/gate.conf holds the trajectory on.
  report.count_samples(result.ops);
  report.override_samples_per_sec(result.throughput_rps());
  report.count_external_faults(result.server_faults_injected);
  report.metric("requests", static_cast<double>(result.ops));
  report.metric("throughput_rps", result.throughput_rps());
  report.metric("ok", static_cast<double>(result.ok));
  report.metric("busy", static_cast<double>(result.busy));
  report.metric("errors", static_cast<double>(result.errors));
  report.metric("transport_errors",
                static_cast<double>(result.transport_errors));
  report.metric("busy_rate", result.busy_rate());
  report.metric("error_rate", result.error_rate());
  for (const VerbObservation& observation : result.verbs) {
    report.metric("p50_" + observation.verb + "_seconds", observation.p50);
    report.metric("p99_" + observation.verb + "_seconds", observation.p99);
  }
  {
    Json verbs = Json::object();
    for (const VerbObservation& observation : result.verbs) {
      Json detail = Json::object();
      detail.set("count", observation.count);
      detail.set("p50_seconds", observation.p50);
      detail.set("p90_seconds", observation.p90);
      detail.set("p99_seconds", observation.p99);
      detail.set("mean_seconds", observation.mean);
      verbs.set(observation.verb, std::move(detail));
    }
    report.metric_json("verbs", std::move(verbs));

    Json server = Json::object();
    server.set("metrics_available", result.server_metrics_available);
    server.set("busy_rejections", result.server_busy_rejections);
    server.set("faults_injected", result.server_faults_injected);
    report.metric_json("server", std::move(server));

    if (options.cross_check)
      report.metric_json("agreement", result.agreement.to_json());

    Json workload = Json::object();
    workload.set("seed", options.seed);
    workload.set("clients", static_cast<std::uint64_t>(options.clients));
    workload.set("mode", options.rate > 0.0 ? "open" : "closed");
    if (options.rate > 0.0) workload.set("rate_rps", options.rate);
    if (budgeted)
      workload.set("requests_budget", options.requests);
    else
      workload.set("duration_seconds", duration);
    workload.set("mix", options.mix.to_json());
    Json targets = Json::array();
    for (const fleet::FleetMember& member : options.targets.members)
      targets.push_back(member.endpoint());
    workload.set("targets", std::move(targets));
    report.metric_json("workload", std::move(workload));
  }
  result.bench_artifact = report.to_json();
  return result;
}

}  // namespace clktune::load
