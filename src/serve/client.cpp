#include "serve/client.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/socket.h"

namespace clktune::serve {

using util::Json;

namespace {

Json index_list(const std::vector<std::size_t>& indices) {
  Json list = Json::array();
  for (const std::size_t index : indices)
    list.push_back(static_cast<std::uint64_t>(index));
  return list;
}

Json command(const char* cmd) {
  Json frame = Json::object();
  frame.set("cmd", cmd);
  return frame;
}

}  // namespace

bool SubmitOutcome::ok() const {
  const Json* ok_flag = final_event.find("ok");
  return is("done") && ok_flag != nullptr && ok_flag->as_bool();
}

bool SubmitOutcome::is(const std::string& event) const {
  const Json* kind = final_event.find("event");
  return kind != nullptr && kind->is_string() && kind->as_string() == event;
}

bool SubmitOutcome::busy() const {
  const Json* code = final_event.find("code");
  return code != nullptr && code->is_string() && code->as_string() == "busy";
}

std::string SubmitOutcome::error_message(const std::string& fallback) const {
  const Json* message = final_event.find("message");
  return message != nullptr && message->is_string() ? message->as_string()
                                                     : fallback;
}

SubmitOptions bounded(SubmitOptions options) {
  if (options.io_timeout_ms <= 0)
    options.io_timeout_ms =
        options.connect_timeout_ms > 0 ? options.connect_timeout_ms : 5000;
  return options;
}

SubmitOutcome submit_raw(const std::string& host, std::uint16_t port,
                         const Json& request, const EventCallback& on_event,
                         const SubmitOptions& options) {
  const util::TcpSocket connection =
      util::tcp_connect(host, port, options.connect_timeout_ms);
  if (options.io_timeout_ms > 0)
    util::tcp_set_recv_timeout(connection, options.io_timeout_ms);
  util::tcp_write_all(connection, request.dump(-1) + "\n");

  SubmitOutcome outcome;
  util::LineReader reader(connection);
  std::string line;
  while (reader.read_line(line)) {
    if (line.empty()) continue;
    Json event = Json::parse(line);
    if (on_event) on_event(event);
    const std::string kind = event.at("event").as_string();
    if (kind == "result") {
      const std::size_t index = event.at("index").as_uint();
      // Results are stored by index, so an index is a size: no expansion
      // reaches kMaxExpansion, and a peer that claims one does not get to
      // allocate for it.
      if (index >= scenario::kMaxExpansion) {
        std::string what = "daemon sent result index ";
        what += std::to_string(index);
        what += ", past the ";
        what += std::to_string(scenario::kMaxExpansion);
        what += "-scenario expansion limit";
        throw exec::ExecError(what);
      }
      if (outcome.results.size() <= index) outcome.results.resize(index + 1);
      outcome.cached += event.at("cached").as_bool() ? 1 : 0;
      outcome.results[index] = event.at("result");
      continue;
    }
    outcome.final_event = std::move(event);
    break;  // done / status / error terminates the exchange
  }
  return outcome;
}

// ---------------------------------------------------------------- Selection

Selection Selection::of(const exec::Request& request) {
  return Selection{request.shard_index, request.shard_count,
                   request.indices};
}

bool Selection::contains(std::size_t index, std::size_t total) const {
  if (index >= total) return false;
  if (!indices.empty())
    return std::binary_search(indices.begin(), indices.end(), index);
  return index % shard_count == shard_index;
}

// ------------------------------------------------------------------- Client

std::string Client::endpoint() const {
  return host_ + ":" + std::to_string(port_);
}

SubmitOutcome Client::exchange(const Json& frame,
                               const EventCallback& on_event) const {
  return submit_raw(host_, port_, frame, on_event, options_);
}

SubmitOutcome Client::run(const Json& doc,
                          const EventCallback& on_event) const {
  Json frame = command("run");
  frame.set("doc", doc);
  return exchange(frame, on_event);
}

SubmitOutcome Client::sweep(const Json& doc, const Selection& selection,
                            const EventCallback& on_event) const {
  Json frame = command("sweep");
  frame.set("doc", doc);
  if (selection.shard_count > 1) {
    Json shard = Json::object();
    shard.set("index", static_cast<std::uint64_t>(selection.shard_index));
    shard.set("count", static_cast<std::uint64_t>(selection.shard_count));
    frame.set("shard", std::move(shard));
  }
  if (!selection.indices.empty())
    frame.set("indices", index_list(selection.indices));
  return exchange(frame, on_event);
}

SubmitOutcome Client::submit(const Json& doc,
                             const std::vector<std::size_t>& indices) const {
  Json frame = command("submit");
  frame.set("doc", doc);
  if (!indices.empty()) frame.set("indices", index_list(indices));
  return exchange(frame);
}

SubmitOutcome Client::status() const { return exchange(command("status")); }

SubmitOutcome Client::status(const std::string& job_id) const {
  Json frame = command("status");
  frame.set("id", job_id);
  return exchange(frame);
}

SubmitOutcome Client::attach(const std::string& job_id,
                             const EventCallback& on_event) const {
  Json frame = command("attach");
  frame.set("id", job_id);
  return exchange(frame, on_event);
}

SubmitOutcome Client::cancel(const std::string& job_id) const {
  Json frame = command("cancel");
  frame.set("id", job_id);
  return exchange(frame);
}

SubmitOutcome Client::jobs() const { return exchange(command("jobs")); }

SubmitOutcome Client::prune(std::size_t keep) const {
  Json frame = command("prune");
  frame.set("keep", static_cast<std::uint64_t>(keep));
  return exchange(frame);
}

SubmitOutcome Client::metrics(bool prometheus) const {
  Json frame = command("metrics");
  if (prometheus) frame.set("format", "prometheus");
  return exchange(frame);
}

SubmitOutcome Client::drain() const { return exchange(command("drain")); }

// ---------------------------------------------------------- ResultAssembler

ResultAssembler::ResultAssembler(std::size_t total, Selection selection,
                                 exec::Observer* observer)
    : total_(total), selection_(std::move(selection)), observer_(observer) {}

EventCallback ResultAssembler::stream(const std::string& peer,
                                      std::vector<std::size_t> unit) {
  return [this, peer, unit = std::move(unit),
          seen = std::set<std::size_t>()](const Json& frame) mutable {
    if (frame.at("event").as_string() != "result") return;
    if (observer_ != nullptr && observer_->cancelled())
      throw exec::CancelledError(peer + ": stream cancelled");
    const std::size_t index = frame.at("index").as_uint();
    const bool selected =
        selection_.contains(index, total_) &&
        (unit.empty() ||
         std::binary_search(unit.begin(), unit.end(), index));
    if (!selected)
      throw exec::ExecError("daemon " + peer + " sent cell index " +
                            std::to_string(index) +
                            " outside the requested selection");
    if (!seen.insert(index).second)
      throw exec::ExecError("daemon " + peer + " sent cell index " +
                            std::to_string(index) + " twice");

    Cell cell{scenario::ScenarioResult::from_json(frame.at("result")),
              frame.at("cached").as_bool()};
    const Cell* recorded = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto [slot, fresh] = cells_.try_emplace(index, std::move(cell));
      if (fresh) recorded = &slot->second;
    }
    // Forward outside the lock: map nodes never move and a recorded cell
    // is never rewritten.  A cell another exchange already delivered (a
    // requeued fleet unit, a re-attach replay) is dropped.
    if (recorded != nullptr && observer_ != nullptr)
      observer_->on_cell(exec::CellEvent{
          index, recorded->result, recorded->cached,
          recorded->cached ? 0.0 : recorded->result.seconds});
  };
}

std::vector<std::size_t> ResultAssembler::missing(
    const std::vector<std::size_t>& wanted) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::size_t> absent;
  for (const std::size_t index : wanted)
    if (cells_.count(index) == 0) absent.push_back(index);
  return absent;
}

exec::Outcome ResultAssembler::outcome(exec::Request::Kind kind,
                                       const std::string& name,
                                       const std::string& backend,
                                       double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Every recorded cell passed the selection check, so a full count means
  // exactly the selected cells arrived.
  const std::size_t expected =
      !selection_.indices.empty()
          ? selection_.indices.size()
          : exec::shard_cell_count(total_, selection_.shard_index,
                                   selection_.shard_count);
  if (cells_.size() != expected)
    throw exec::ExecError(backend + ": server sent " +
                          std::to_string(cells_.size()) + " cells, expected " +
                          std::to_string(expected));

  if (kind == exec::Request::Kind::scenario) {
    exec::Outcome outcome;
    outcome.result = std::move(cells_.begin()->second.result);
    outcome.scenarios_run = 1;
    outcome.scenarios_cached = cells_.begin()->second.cached ? 1 : 0;
    outcome.targets_missed = outcome.result.met_target ? 0 : 1;
    outcome.seconds = seconds;
    outcome.backend = backend;
    return outcome;
  }
  scenario::CampaignSummary summary;
  summary.name = name;
  summary.shard_index = selection_.shard_index;
  summary.shard_count = selection_.shard_count;
  summary.results.reserve(cells_.size());
  for (auto& [index, cell] : cells_) {
    summary.scenarios_cached += cell.cached ? 1 : 0;
    summary.results.push_back(std::move(cell.result));
  }
  cells_.clear();
  summary.recount();
  summary.total_seconds = seconds;
  return exec::Outcome::from_summary(std::move(summary), backend);
}

}  // namespace clktune::serve
