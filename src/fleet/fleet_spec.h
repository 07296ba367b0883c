// Fleet pool specifications: which daemons a campaign fans out across.
//
// A fleet is a list of `clktune serve` endpoints with per-daemon weights.
// It comes from either a compact CLI list ("hostA:7001,hostB:7002") or a
// JSON fleet file:
//
//   {
//     "daemons": [
//       {"host": "127.0.0.1", "port": 7001, "weight": 2},
//       {"host": "10.0.0.7", "port": 7001},
//       "10.0.0.8:7001"
//     ]
//   }
//
// The weight is the number of work units a daemon holds in flight
// concurrently (its dispatcher-thread count in FleetExecutor) — a
// twice-as-wide machine gets weight 2 and is simply handed units twice as
// fast by the work-stealing queue; no static split is ever computed from
// the weights.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/client.h"
#include "util/json.h"

namespace clktune::fleet {

struct FleetMember {
  std::string host;
  std::uint16_t port = 0;
  /// Concurrent in-flight work units this daemon serves (>= 1).
  std::size_t weight = 1;

  std::string endpoint() const {
    return host + ":" + std::to_string(port);
  }
  serve::Client client(serve::SubmitOptions options) const {
    return serve::Client(host, port, options);
  }
};

struct FleetSpec {
  std::vector<FleetMember> members;

  /// Parses a comma-separated "host:port[,host:port...]" list (the
  /// `--daemons` CLI form, every weight 1).  Throws exec::ExecError on an
  /// empty list, a missing port or one outside 1..65535.
  static FleetSpec parse_daemon_list(const std::string& list);

  /// Parses a fleet document: {"daemons":[...]} where each entry is either
  /// a "host:port" string or {"host","port"[,"weight"]} (unknown members
  /// rejected, weight >= 1).  Throws util::JsonError on shape errors and
  /// exec::ExecError on value errors.
  static FleetSpec from_json(const util::Json& doc);

  /// Reads and parses a fleet file.
  static FleetSpec from_file(const std::string& path);

  /// Appends another spec's members (CLI `--daemons` + `--fleet` combine).
  void merge(const FleetSpec& other);
};

}  // namespace clktune::fleet
