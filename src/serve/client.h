// The one client of the serve protocol (docs/serve_protocol.md).
//
// Three layers, each with exactly one implementation:
//   submit_raw       connect, send one request line, read the response
//                    stream until its terminal frame (or EOF)
//   Client           typed verbs — every request frame is built here and
//                    nowhere else, so the wire bytes have a single source
//   ResultAssembler  streamed "result" frames back into cells, observer
//                    events and the artifact, in expansion order
// The CLI, exec::RemoteExecutor, fleet::FleetExecutor, fleet status and
// the load harness all speak to daemons through this module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exec/observer.h"
#include "exec/request.h"
#include "util/json.h"

namespace clktune::serve {

struct SubmitOutcome {
  /// "result" events' artifacts, reordered by expansion index (so a sweep
  /// submission yields the same ordering as the local summary).
  std::vector<util::Json> results;
  /// How many of the results were served from the daemon's cache.
  std::uint64_t cached = 0;
  /// The terminal event ("done" / "status" / "error"); object() on EOF.
  util::Json final_event = util::Json::object();

  bool ok() const;  ///< terminal event is a successful "done"

  /// The terminal frame is `{"event": event, ...}`.
  bool is(const std::string& event) const;
  /// The stream ended without any terminal frame (a clean EOF).
  bool eof() const { return final_event.find("event") == nullptr; }
  /// Busy backpressure: `{"event":"error","code":"busy",...}`.
  bool busy() const;
  /// The terminal frame's "message", or `fallback` when it has none.
  std::string error_message(const std::string& fallback) const;
  /// The one definition of a healthy daemon, applied to its answer to a
  /// status probe: a status frame, or busy backpressure (alive but
  /// saturated, never dead).
  bool healthy() const { return is("status") || busy(); }
};

/// Progress observer: every response event, in arrival order; may be empty.
using EventCallback = std::function<void(const util::Json&)>;

/// Client-side deadlines for one exchange.  0 = no deadline (block
/// indefinitely, the historical behaviour).  A connect that exceeds its
/// deadline, and a response stream that stalls longer than `io_timeout_ms`
/// between bytes, both throw std::runtime_error whose message contains
/// "timed out" — the diagnostic callers show instead of hanging on an
/// unreachable or wedged daemon.
struct SubmitOptions {
  int connect_timeout_ms = 0;
  int io_timeout_ms = 0;
};

/// Deadlines for exchanges that answer instantly by design (probes, job
/// admission, cancel): unlike result streams — where a computing daemon is
/// legitimately silent — these always get a bounded read deadline (the
/// connect deadline, else 5 s), or one wedged-but-accepting daemon would
/// hang its caller forever.
SubmitOptions bounded(SubmitOptions options);

/// Sends one request line verbatim and collects the response stream — the
/// transport under every Client verb.  Throws std::runtime_error on
/// connection failure or an expired deadline and util::JsonError on a
/// malformed response line; exceptions from `on_event` propagate (closing
/// the connection), which is how an observer aborts a stream.  `on_event`
/// sees every frame before it is stored, so a hook that validates
/// "result" indices bounds what a hostile daemon can make it allocate.
SubmitOutcome submit_raw(const std::string& host, std::uint16_t port,
                         const util::Json& request,
                         const EventCallback& on_event = {},
                         const SubmitOptions& options = {});

/// The slice of a campaign expansion a sweep runs: everything (default), a
/// round-robin shard (`clktune sweep --shard i/n` semantics) or an
/// explicit, strictly increasing index list.
struct Selection {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::vector<std::size_t> indices;

  /// The selection an exec::Request carries.
  static Selection of(const exec::Request& request);
  /// Whether expansion index `index` (of `total` cells) is selected.
  bool contains(std::size_t index, std::size_t total) const;
};

/// Typed verbs against one daemon.  Every verb returns the raw exchange;
/// result streams reach the caller through `on_event`.
class Client {
 public:
  Client(std::string host, std::uint16_t port, SubmitOptions options = {})
      : host_(std::move(host)), port_(port), options_(options) {}

  /// "host:port", the name diagnostics use for this daemon.
  std::string endpoint() const;

  // Synchronous execution.
  SubmitOutcome run(const util::Json& doc,
                    const EventCallback& on_event = {}) const;
  SubmitOutcome sweep(const util::Json& doc, const Selection& selection = {},
                      const EventCallback& on_event = {}) const;

  // Async jobs.  `status` without an id asks for the daemon's status.
  SubmitOutcome submit(const util::Json& doc,
                       const std::vector<std::size_t>& indices = {}) const;
  SubmitOutcome status() const;
  SubmitOutcome status(const std::string& job_id) const;
  SubmitOutcome attach(const std::string& job_id,
                       const EventCallback& on_event = {}) const;
  SubmitOutcome cancel(const std::string& job_id) const;
  SubmitOutcome jobs() const;
  SubmitOutcome prune(std::size_t keep) const;

  // Operations.
  SubmitOutcome metrics(bool prometheus = false) const;
  SubmitOutcome drain() const;

 private:
  SubmitOutcome exchange(const util::Json& frame,
                         const EventCallback& on_event = {}) const;

  std::string host_;
  std::uint16_t port_;
  SubmitOptions options_;
};

/// Rebuilds artifacts from "result" frames: the one place a result stream
/// becomes cells.  Each frame is checked against the selection and the
/// observer's cancellation, parsed into a ScenarioResult and forwarded as
/// an exec::CellEvent; the recorded cells rebuild the artifact in
/// expansion order.  Several exchanges may feed one assembler
/// concurrently (the fleet's dispatchers): a cell that already arrived on
/// another exchange is dropped, so the observer sees every index once.
class ResultAssembler {
 public:
  /// Cells of `selection` within an expansion of `total` cells (1 for a
  /// scenario).  `observer` may be null.
  ResultAssembler(std::size_t total, Selection selection,
                  exec::Observer* observer = nullptr);

  /// The on_event hook for one exchange with `peer`.  Throws
  /// exec::ExecError naming `peer` on an index outside the selection (or
  /// outside `unit` when given — a fleet work unit's cells) or repeated
  /// within this exchange, and exec::CancelledError once the observer
  /// cancels; both abort the exchange before submit_raw stores the frame.
  EventCallback stream(const std::string& peer,
                       std::vector<std::size_t> unit = {});

  /// The cells of `wanted` that have not arrived yet.
  std::vector<std::size_t> missing(const std::vector<std::size_t>& wanted);

  /// The artifact, in expansion order: a scenario outcome from the single
  /// cell, or a campaign summary named `name` over the selection.  Throws
  /// exec::ExecError naming `backend` when a selected cell never arrived.
  exec::Outcome outcome(exec::Request::Kind kind, const std::string& name,
                        const std::string& backend, double seconds);

 private:
  struct Cell {
    scenario::ScenarioResult result;
    bool cached = false;
  };

  const std::size_t total_;
  const Selection selection_;
  exec::Observer* observer_;
  std::mutex mutex_;
  /// Keyed by expansion index; node-based, so a recorded cell never moves
  /// and memory grows only with cells that passed the selection check.
  std::map<std::size_t, Cell> cells_;
};

}  // namespace clktune::serve
