// Fault-tolerant multi-daemon campaign orchestration: work-stealing
// dispatch over a pool of `clktune serve` daemons.
//
// FleetExecutor supersedes static `i/n` sharding (`clktune submit --shard`
// per daemon, merged afterwards) for cross-host fan-out: instead of fixing
// each daemon's slice up front, it splits a campaign's expansion indices
// into small work units on a single shared queue and lets every daemon
// pull the next unit the moment it finishes one — a fast machine simply
// takes more units, and an uneven campaign never leaves half the pool
// idle.  Each unit travels as an `"indices":[...]` selection
// (docs/serve_protocol.md), so the daemons need no fleet awareness at all.
//
// Units travel through each daemon's durable job queue: the dispatcher
// submits the unit as an async job ({"cmd":"submit","indices":[...]}) and
// then attaches to stream its cells.  Admission is O(enqueue) on the
// daemon, and because the job outlives the connection, a dispatcher that
// loses its stream mid-unit re-attaches to the *same* job on retry —
// cells the daemon kept computing replay instantly from its cache.
//
// Fault tolerance: when a daemon dies, times out or rejects with
// backpressure mid-unit, the cells it already streamed are kept (they are
// deterministic), the remainder of the unit is requeued for a surviving
// daemon, and the dead daemon is retired from the pool.  With re-probing
// enabled (reprobe_interval_ms) retired daemons are health-checked
// periodically and rejoin the pool when they answer again — a restarted
// daemon picks work back up mid-campaign.  Retries per unit are bounded;
// exhaustion — or the death of every daemon — fails the campaign with a
// per-unit diagnostic naming the last error.  Results are merged in
// expansion order, so a fleet summary is byte-identical to an unsharded
// LocalExecutor sweep of the same document, even when daemons were lost
// mid-campaign.
#pragma once

#include <cstddef>
#include <string>

#include "exec/executor.h"
#include "fleet/fleet_spec.h"

namespace clktune::fleet {

struct FleetOptions {
  /// Expansion indices per work unit.  Small units steal well and requeue
  /// cheaply; large units amortise connection overhead.
  std::size_t unit_cells = 1;
  /// Re-dispatches allowed per unit beyond the first attempt; once a
  /// unit's attempts exceed this, the campaign fails with its diagnostic.
  /// Busy backpressure frames do not count individually — a saturated
  /// daemon is not a failed one — but an unbroken busy streak slowly
  /// bleeds into the budget, so a permanently saturated pool fails
  /// instead of spinning forever.
  std::size_t max_retries = 3;
  /// Deadline for connecting to a daemon (0 = block indefinitely).
  int connect_timeout_ms = 5000;
  /// Deadline between response bytes of one unit (0 = none); must exceed
  /// the slowest single cell, since a computing daemon is silent.
  int io_timeout_ms = 0;
  /// Health-check every daemon with a status probe before dispatching and
  /// retire the unreachable ones up front (dispatch discovers deaths
  /// either way; the probe just fails faster and cheaper).
  bool probe = true;
  /// Period, in milliseconds, for re-probing retired daemons during a
  /// campaign so transiently dead members rejoin the pool (0 = never).
  /// With re-probing on, losing *every* daemon pauses dispatch instead of
  /// failing it; the campaign fails only after max_retries + 1
  /// consecutive all-dead probe rounds.
  int reprobe_interval_ms = 0;
};

/// exec::Executor backend that fans a request out over a daemon pool.
/// Campaigns are dispatched work-stealing style as described above; a
/// scenario request is a single unit, failed over across the pool.  The
/// request's cache pointer is ignored — each daemon owns its own cache.
class FleetExecutor : public exec::Executor {
 public:
  /// Throws exec::ExecError on an empty pool.
  explicit FleetExecutor(FleetSpec spec, FleetOptions options = {});

  /// Throws exec::ExecError when the request already carries a selection
  /// (shard slice or index list), when no daemon is healthy, or when a
  /// unit exhausts its retries; exec::CancelledError when the observer
  /// cancels.  Observer cells arrive with global expansion indices, each
  /// exactly once, from dispatcher threads.
  exec::Outcome execute(const exec::Request& request,
                        exec::Observer* observer = nullptr) override;

  std::string name() const override {
    return "fleet(" + std::to_string(spec_.members.size()) + ")";
  }

 private:
  FleetSpec spec_;
  FleetOptions options_;
};

}  // namespace clktune::fleet
