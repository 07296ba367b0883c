#include "fleet/fleet_executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "util/backoff.h"
#include "util/timer.h"

namespace clktune::fleet {

using exec::CancelledError;
using exec::ExecError;
using util::Json;

namespace {

/// Fleet-dispatch metrics in the process-wide obs registry (these live in
/// the *dispatching* process — the CLI or whoever drives FleetExecutor —
/// not in the daemons).
struct FleetMetrics {
  obs::Counter& dispatched;
  obs::Counter& requeues;
  obs::Counter& busy;
  obs::Counter& probe_failures;

  static FleetMetrics& get() {
    static FleetMetrics m{
        obs::Registry::global().counter("clktune_fleet_units_dispatched_total",
                                        "Work-unit dispatches attempted"),
        obs::Registry::global().counter(
            "clktune_fleet_requeues_total",
            "Work units returned to the queue after a failed dispatch"),
        obs::Registry::global().counter(
            "clktune_fleet_busy_total",
            "Dispatches answered with busy backpressure"),
        obs::Registry::global().counter(
            "clktune_fleet_probe_failures_total",
            "Health probes a pool member failed to answer"),
    };
    return m;
  }
};

/// Per-daemon in-flight gauge with RAII accounting, so every exit path of
/// a dispatch — success, requeue, transport death, cancel — decrements.
class InflightGuard {
 public:
  explicit InflightGuard(const std::string& endpoint)
      : gauge_(obs::Registry::global().gauge(
            "clktune_fleet_inflight_units",
            "Work units currently dispatched to this daemon",
            {{"daemon", endpoint}})) {
    gauge_.add(1);
  }
  ~InflightGuard() { gauge_.add(-1); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  obs::Gauge& gauge_;
};

/// A slice of the campaign expansion owed to the fleet.  `remaining`
/// shrinks as dispatches stream cells back — a unit that lost its daemon
/// halfway is requeued with only the cells still missing, because cells
/// are deterministic and partial progress counts.
struct WorkUnit {
  std::size_t id = 0;
  std::vector<std::size_t> cells;  ///< the whole unit; streams stay inside
  std::vector<std::size_t> remaining;
  std::size_t attempts = 0;     ///< failed dispatches so far
  std::size_t busy_streak = 0;  ///< consecutive busy rejections
  std::string last_error;
  /// Job id this unit already holds on each daemon: a re-dispatch to the
  /// same member re-attaches instead of re-submitting, so cells the
  /// daemon computed while the stream was down replay from its cache.
  std::map<std::size_t, std::string> job_ids;
};

/// Every 8th consecutive busy rejection of one unit costs a retry
/// attempt, so a pool that stays saturated indefinitely eventually fails
/// the campaign with a diagnostic instead of spinning forever.
constexpr std::size_t kBusyPerAttempt = 8;

serve::SubmitOptions timeouts_of(const FleetOptions& options) {
  serve::SubmitOptions timeouts;
  timeouts.connect_timeout_ms = options.connect_timeout_ms;
  timeouts.io_timeout_ms = options.io_timeout_ms;
  return timeouts;
}

/// One status round trip judged by SubmitOutcome::healthy(), shared by
/// the up-front probe and mid-campaign re-probing.
bool probe_member(const FleetMember& member, const FleetOptions& options,
                  std::string& error) {
  try {
    const serve::SubmitOutcome outcome =
        member.client(serve::bounded(timeouts_of(options))).status();
    if (outcome.healthy()) return true;
    error = outcome.error_message("no status response");
  } catch (const std::exception& e) {
    error = e.what();
  }
  FleetMetrics::get().probe_failures.inc();
  return false;
}

/// One campaign's shared dispatch state: the work queue, the recorded
/// cells, the liveness of every pool member and the terminal flags.  The
/// per-daemon dispatcher threads all drain the same queue — that is the
/// whole work-stealing scheme.  An optional monitor thread re-probes
/// retired members and spawns fresh dispatchers when one rejoins.
class CampaignDispatch {
 public:
  CampaignDispatch(const FleetSpec& spec, const FleetOptions& options,
                   const std::vector<char>& alive,
                   const exec::Request& request, exec::Observer* observer)
      : spec_(spec),
        options_(options),
        request_(request),
        observer_(observer),
        document_(request.document()),
        total_cells_(request.expansion_size()),
        cells_(total_cells_, serve::Selection{}, observer),
        member_dead_(spec.members.size()) {
    for (std::size_t m = 0; m < spec_.members.size(); ++m) {
      member_dead_[m].store(alive[m] == 0);
      if (alive[m] != 0) ++alive_members_;
    }
    initial_alive_ = alive_members_;
  }

  exec::Outcome run(const std::string& backend, const util::Stopwatch& timer) {
    if (observer_ != nullptr) observer_->on_begin(total_cells_, total_cells_);

    const std::size_t unit_cells =
        options_.unit_cells == 0 ? 1 : options_.unit_cells;
    for (std::size_t begin = 0; begin < total_cells_; begin += unit_cells) {
      WorkUnit unit;
      unit.id = pending_.size();
      for (std::size_t i = begin;
           i < begin + unit_cells && i < total_cells_; ++i)
        unit.cells.push_back(i);
      unit.remaining = unit.cells;
      pending_.push_back(std::move(unit));
    }
    outstanding_ = pending_.size();

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (outstanding_ > 0)
        for (std::size_t m = 0; m < spec_.members.size(); ++m)
          if (!member_dead_[m].load()) spawn_workers_locked(m);
    }
    std::thread monitor;
    if (outstanding_ > 0 && options_.reprobe_interval_ms > 0)
      monitor = std::thread([this] { monitor_loop(); });

    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [this] {
        return workers_running_ == 0 &&
               (outstanding_ == 0 || failed_ || cancelled_);
      });
      monitor_stop_ = true;
    }
    monitor_cv_.notify_all();
    if (monitor.joinable()) monitor.join();
    // The monitor was the only late spawner; with it joined the
    // dispatcher list is final and every thread in it has returned.
    for (std::thread& dispatcher : dispatchers_) dispatcher.join();

    if (cancelled_)
      throw CancelledError("fleet: campaign cancelled by the observer");
    if (failed_) throw ExecError(failure_);
    return cells_.outcome(exec::Request::Kind::campaign,
                          request_.campaign.name, backend, timer.seconds());
  }

 private:
  /// Starts this member's dispatchers (weight many).  mutex_ held.
  void spawn_workers_locked(std::size_t member_id) {
    const std::size_t weight = spec_.members[member_id].weight;
    workers_running_ += weight;
    for (std::size_t w = 0; w < weight; ++w)
      dispatchers_.emplace_back(
          [this, member_id] { worker_entry(member_id); });
  }

  void worker_entry(std::size_t member_id) {
    worker(member_id);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --workers_running_;
    }
    done_cv_.notify_all();
  }

  void worker(std::size_t member_id) {
    for (;;) {
      WorkUnit unit;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] {
          return failed_ || cancelled_ || outstanding_ == 0 ||
                 !pending_.empty();
        });
        if (failed_ || cancelled_ || outstanding_ == 0) return;
        if (member_dead_[member_id].load()) return;  // sibling saw it die
        if (observer_ != nullptr && observer_->cancelled()) {
          cancelled_ = true;
          ready_.notify_all();
          return;
        }
        unit = std::move(pending_.front());
        pending_.pop_front();
      }
      if (dispatch_unit(member_id, std::move(unit))) return;
    }
  }

  /// Periodically re-probes retired members; a daemon that answers again
  /// rejoins the pool with fresh dispatchers.  While re-probing is armed,
  /// an all-dead pool waits instead of failing — bounded by max_retries+1
  /// consecutive fruitless probe rounds.
  void monitor_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    std::size_t all_dead_rounds = 0;
    const auto interval =
        std::chrono::milliseconds(options_.reprobe_interval_ms);
    for (;;) {
      monitor_cv_.wait_for(lock, interval, [this] {
        return monitor_stop_ || failed_ || cancelled_ || outstanding_ == 0;
      });
      if (monitor_stop_ || failed_ || cancelled_ || outstanding_ == 0)
        return;
      std::vector<std::size_t> dead;
      for (std::size_t m = 0; m < spec_.members.size(); ++m)
        if (member_dead_[m].load()) dead.push_back(m);
      if (dead.empty()) {
        all_dead_rounds = 0;
        continue;
      }
      lock.unlock();  // probes are network round trips
      std::vector<std::size_t> revived;
      for (const std::size_t m : dead) {
        std::string error;
        if (probe_member(spec_.members[m], options_, error))
          revived.push_back(m);
      }
      lock.lock();
      if (monitor_stop_ || failed_ || cancelled_ || outstanding_ == 0)
        return;
      for (const std::size_t m : revived) {
        member_dead_[m].store(false);
        ++alive_members_;
        spawn_workers_locked(m);
      }
      if (!revived.empty()) ready_.notify_all();
      if (alive_members_ > 0) {
        all_dead_rounds = 0;
        continue;
      }
      if (++all_dead_rounds > options_.max_retries) {
        failure_ = "fleet: all " + std::to_string(initial_alive_) +
                   " daemons lost with " + std::to_string(outstanding_) +
                   " work units unfinished; no daemon rejoined within " +
                   std::to_string(all_dead_rounds) + " probe rounds";
        append_unit_errors_locked();
        failed_ = true;
        ready_.notify_all();
        done_cv_.notify_all();
        return;
      }
    }
  }

  /// One dispatch of one unit to one daemon; returns true when this
  /// dispatcher must exit (its daemon died, the campaign failed or was
  /// cancelled).  The unit travels through the daemon's durable job
  /// queue: submit (O(enqueue) admission, or reuse the job a previous
  /// attempt created), then attach and stream.  Using the client verbs
  /// directly — rather than wrapping exec::RemoteExecutor — keeps the
  /// cells a dying daemon streamed before the failure (RemoteExecutor's
  /// contract is all-or-nothing) and the busy/dead distinction of the
  /// terminal frame.
  bool dispatch_unit(std::size_t member_id, WorkUnit unit) {
    const FleetMember& member = spec_.members[member_id];
    // Crash point: the dispatching client process dying mid-campaign —
    // daemons keep their jobs, so a rerun replays from their caches.
    if (fault::armed()) fault::poll("fleet.dispatch");
    FleetMetrics::get().dispatched.inc();
    const InflightGuard inflight(member.endpoint());

    serve::SubmitOutcome stream;
    std::string error;
    bool transport_failure = false;
    std::string job_id;
    const auto known = unit.job_ids.find(member_id);
    if (known != unit.job_ids.end()) job_id = known->second;
    try {
      if (job_id.empty()) {
        const serve::SubmitOutcome admitted =
            member.client(serve::bounded(timeouts_of(options_)))
                .submit(document_, unit.remaining);
        if (admitted.is("job")) {
          job_id = admitted.final_event.at("id").as_string();
          unit.job_ids[member_id] = job_id;
        } else {
          // Busy backpressure, a protocol error or a clean EOF at
          // admission: fall through to the shared evaluation below.
          stream = admitted;
        }
      }
      if (!job_id.empty())
        stream = member.client(timeouts_of(options_))
                     .attach(job_id,
                             cells_.stream(member.endpoint(), unit.cells));
    } catch (const CancelledError&) {
      // Best effort: the daemon keeps the job otherwise, and while its
      // cells would only warm the cache, cancelling frees its workers.
      cancel_job(member, job_id);
      const std::lock_guard<std::mutex> lock(mutex_);
      cancelled_ = true;
      ready_.notify_all();
      return true;
    } catch (const std::exception& e) {
      // Connect refusal/timeout, a stalled read, a garbled response
      // line: the daemon is unusable.
      transport_failure = true;
      error = e.what();
    }
    // A stream that ended without any terminal frame is a clean EOF from
    // a dying daemon — every bit as dead as a reset: retire it, or its
    // own worker would redispatch the unit straight back at the corpse
    // and burn the bounded attempts on a single failure.
    if (!transport_failure && stream.eof()) {
      transport_failure = true;
      error = "connection closed mid-unit";
    }

    bool busy = false;
    bool exit_worker = false;
    std::size_t busy_backoff = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      std::vector<std::size_t> missing = cells_.missing(unit.remaining);

      if (missing.empty()) {
        // Everything owed arrived — even a daemon that died between its
        // last cell and the done frame completed this unit.
        --outstanding_;
      } else {
        if (!transport_failure) {
          busy = stream.busy();
          error = stream.error_message("daemon did not deliver the unit");
        }
        unit.remaining = std::move(missing);
        // Backpressure is not a failure: a saturated-but-healthy daemon
        // must not consume the unit's bounded retry budget, or a briefly
        // busy pool would hard-fail a campaign no daemon ever dropped.
        // But a pool that *stays* saturated must not spin forever either,
        // so a long busy streak slowly bleeds into the attempt count.
        if (busy) {
          FleetMetrics::get().busy.inc();
          ++unit.busy_streak;
          if (unit.busy_streak % kBusyPerAttempt == 0) ++unit.attempts;
        } else {
          unit.busy_streak = 0;
          ++unit.attempts;
        }
        busy_backoff = unit.busy_streak;
        unit.last_error = member.endpoint() + ": " + error;
        if (unit.attempts > options_.max_retries) {
          failed_ = true;
          failure_ = "fleet: work unit " + std::to_string(unit.id) +
                     " (cell " + std::to_string(unit.remaining.front()) +
                     (unit.remaining.size() > 1 ? "…" : "") +
                     ") failed after " + std::to_string(unit.attempts) +
                     " dispatches; last: " + unit.last_error;
          exit_worker = true;
        } else {
          FleetMetrics::get().requeues.inc();
          pending_.push_back(std::move(unit));
        }
      }
    }
    ready_.notify_all();

    if (transport_failure) {
      retire_member(member_id);
      return true;
    }
    if (busy) {
      // The daemon is alive but saturated; a jittered exponential pause
      // (capped) keeps the retry from hot-looping against its admission
      // queue, and the jitter de-synchronises dispatchers that all got
      // the busy frame in the same instant.
      thread_local util::Backoff backoff(20, 1500);
      backoff.pause(busy_backoff);
    }
    return exit_worker;
  }

  void cancel_job(const FleetMember& member, const std::string& job_id) {
    if (job_id.empty()) return;
    try {
      member.client(serve::bounded(timeouts_of(options_))).cancel(job_id);
    } catch (const std::exception&) {
      // An unreachable daemon cannot be cancelled anyway.
    }
  }

  /// Appends up to three pending units' last errors to failure_.
  /// mutex_ held.
  void append_unit_errors_locked() {
    std::size_t shown = 0;
    for (const WorkUnit& unit : pending_) {
      if (unit.last_error.empty()) continue;
      failure_ +=
          (shown == 0 ? "; last errors: " : " | ") + unit.last_error;
      if (++shown == 3) break;
    }
  }

  /// Marks a daemon dead (once).  Without re-probing, the death of the
  /// last daemon with work unfinished fails the campaign; with it, the
  /// monitor keeps probing and the all-dead bound lives there instead.
  void retire_member(std::size_t member_id) {
    if (member_dead_[member_id].exchange(true)) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    --alive_members_;
    if (alive_members_ == 0 && outstanding_ > 0 && !failed_ && !cancelled_ &&
        options_.reprobe_interval_ms <= 0) {
      failure_ = "fleet: all " + std::to_string(initial_alive_) +
                 " daemons lost with " + std::to_string(outstanding_) +
                 " work units unfinished";
      append_unit_errors_locked();
      failed_ = true;
    }
    ready_.notify_all();
  }

  const FleetSpec& spec_;
  const FleetOptions& options_;
  const exec::Request& request_;
  exec::Observer* observer_;
  const Json document_;
  const std::size_t total_cells_;

  std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable done_cv_;      ///< run() completion + worker exits
  std::condition_variable monitor_cv_;   ///< wakes the monitor early
  std::deque<WorkUnit> pending_;
  std::size_t outstanding_ = 0;  ///< units not yet fully delivered
  std::size_t alive_members_ = 0;
  std::size_t initial_alive_ = 0;
  std::size_t workers_running_ = 0;
  bool monitor_stop_ = false;
  std::deque<std::thread> dispatchers_;  ///< deque: grows while running
  serve::ResultAssembler cells_;
  std::vector<std::atomic<bool>> member_dead_;
  bool failed_ = false;
  bool cancelled_ = false;
  std::string failure_;
};

}  // namespace

FleetExecutor::FleetExecutor(FleetSpec spec, FleetOptions options)
    : spec_(std::move(spec)), options_(options) {
  if (spec_.members.empty())
    throw ExecError("fleet: needs at least one daemon");
}

exec::Outcome FleetExecutor::execute(const exec::Request& request,
                                     exec::Observer* observer) {
  request.validate();
  if (request.shard_count != 1 || !request.indices.empty())
    throw ExecError("fleet: request already carries a selection");
  const util::Stopwatch timer;

  // Health probe: a status round trip per daemon, in parallel (dead hosts
  // each cost one connect timeout).  Dispatch would discover deaths on its
  // own; probing just retires them before any unit is wasted on one.
  std::vector<std::size_t> healthy;
  std::vector<std::string> down;
  if (options_.probe) {
    std::vector<char> alive(spec_.members.size(), 0);
    std::vector<std::string> probe_errors(spec_.members.size());
    std::vector<std::thread> probes;
    probes.reserve(spec_.members.size());
    for (std::size_t m = 0; m < spec_.members.size(); ++m) {
      probes.emplace_back([this, m, &alive, &probe_errors] {
        if (probe_member(spec_.members[m], options_, probe_errors[m]))
          alive[m] = 1;
      });
    }
    for (std::thread& probe : probes) probe.join();
    for (std::size_t m = 0; m < spec_.members.size(); ++m) {
      if (alive[m])
        healthy.push_back(m);
      else
        down.push_back(spec_.members[m].endpoint() + ": " + probe_errors[m]);
    }
    // A probe timeout is ambiguous: the daemon may just be saturated with
    // long cells (its handlers busy, the probe parked in the admission
    // queue).  When *everything* timed out, fall back to dispatching at
    // the timed-out members and let dispatch decide — only a pool of
    // positively-refused daemons fails fast here.
    if (healthy.empty()) {
      for (std::size_t m = 0; m < spec_.members.size(); ++m)
        if (!alive[m] &&
            probe_errors[m].find("timed out") != std::string::npos)
          healthy.push_back(m);
    }
  } else {
    for (std::size_t m = 0; m < spec_.members.size(); ++m)
      healthy.push_back(m);
  }
  if (healthy.empty()) {
    std::string what = "fleet: no healthy daemon in the pool";
    for (const std::string& reason : down) what += "; " + reason;
    throw ExecError(what);
  }

  if (request.kind == exec::Request::Kind::scenario) {
    if (observer != nullptr) {
      observer->on_begin(1, 1);
      if (observer->cancelled())
        throw CancelledError("fleet: cancelled before the scenario started");
    }
    // One assembler across the attempts: it keeps the first copy of the
    // cell, so the observer sees it once however many daemons sent it.
    serve::ResultAssembler cells(1, {}, observer);
    const Json document = request.document();
    std::string diagnostics;
    for (std::size_t attempt = 0; attempt <= options_.max_retries;
         ++attempt) {
      const FleetMember& member =
          spec_.members[healthy[attempt % healthy.size()]];
      diagnostics += (diagnostics.empty() ? "" : " | ") + member.endpoint();
      try {
        const serve::SubmitOutcome stream =
            member.client(timeouts_of(options_))
                .run(document, cells.stream(member.endpoint()));
        if (stream.ok())
          return cells.outcome(exec::Request::Kind::scenario, "", name(),
                               timer.seconds());
        diagnostics += ": " + stream.error_message("connection closed");
      } catch (const CancelledError&) {
        throw;
      } catch (const std::exception& e) {
        diagnostics += ": " + std::string(e.what());
      }
      // Jittered exponential pause between failover attempts (capped): a
      // briefly busy pool must not burn the whole budget within
      // milliseconds, and concurrent clients should not retry in step.
      if (attempt < options_.max_retries) {
        thread_local util::Backoff backoff(20, 500);
        backoff.pause(attempt);
      }
    }
    throw ExecError("fleet: scenario failed on every attempt: " +
                    diagnostics);
  }

  std::vector<char> alive(spec_.members.size(), 0);
  for (const std::size_t m : healthy) alive[m] = 1;
  CampaignDispatch dispatch(spec_, options_, alive, request, observer);
  return dispatch.run(name(), timer);
}

}  // namespace clktune::fleet
