#include "fleet/fleet_status.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <thread>
#include <utility>

namespace clktune::fleet {

using util::Json;

namespace {

std::uint64_t uint_of(const Json& object, const char* key) {
  const Json* member = object.find(key);
  return member != nullptr ? member->as_uint() : 0;
}

/// "42s", "3m12s", "2h03m" — compact enough for a table cell.
std::string format_uptime(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  const auto total = static_cast<std::uint64_t>(seconds);
  char buf[32];
  if (total < 60) {
    std::snprintf(buf, sizeof(buf), "%llus",
                  static_cast<unsigned long long>(total));
  } else if (total < 3600) {
    std::snprintf(buf, sizeof(buf), "%llum%02llus",
                  static_cast<unsigned long long>(total / 60),
                  static_cast<unsigned long long>(total % 60));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluh%02llum",
                  static_cast<unsigned long long>(total / 3600),
                  static_cast<unsigned long long>(total % 3600 / 60));
  }
  return buf;
}

void probe_one(const FleetMember& member,
               const serve::SubmitOptions& timeouts, DaemonProbe& probe) {
  probe.member = member;
  const serve::Client client = member.client(timeouts);
  try {
    const serve::SubmitOutcome outcome = client.status();
    probe.alive = outcome.healthy();
    if (!probe.alive) {
      probe.error = outcome.error_message("no status response");
      return;
    }
    if (outcome.busy()) {
      // Saturated but alive: it answered, it just has no free handler —
      // report it alive with the backpressure note, no stats.
      probe.error = "busy (admission queue full)";
      return;
    }
    probe.status = outcome.final_event;
  } catch (const std::exception& e) {
    probe.error = e.what();
    return;
  }
  // Best-effort metrics snapshot; a daemon predating the verb answers
  // with an error frame and stays alive with an empty metrics object.
  try {
    const serve::SubmitOutcome outcome = client.metrics();
    if (outcome.is("metrics")) probe.metrics = outcome.final_event;
  } catch (const std::exception&) {
    // Health already established by the status round trip.
  }
}

}  // namespace

Json DaemonProbe::to_json() const {
  Json j = Json::object();
  j.set("daemon", member.endpoint());
  j.set("alive", alive);
  if (!error.empty()) j.set("error", error);
  if (alive && status.find("event") != nullptr) j.set("status", status);
  if (alive && metrics.find("event") != nullptr) j.set("metrics", metrics);
  return j;
}

Json PoolStatus::to_json() const {
  Json listing = Json::array();
  for (const DaemonProbe& probe : daemons) listing.push_back(probe.to_json());
  Json totals = Json::object();
  totals.set("requests", requests);
  totals.set("scenarios_run", scenarios_run);
  totals.set("rejected", rejected);
  totals.set("cache_hits", cache_hits);
  totals.set("cache_misses", cache_misses);
  totals.set("jobs_queued", jobs_queued);
  totals.set("jobs_running", jobs_running);
  Json j = Json::object();
  j.set("daemons", std::move(listing));
  j.set("alive", static_cast<std::uint64_t>(alive));
  j.set("dead", static_cast<std::uint64_t>(dead));
  j.set("totals", std::move(totals));
  return j;
}

PoolStatus probe_pool(const FleetSpec& spec,
                      const serve::SubmitOptions& timeouts) {
  PoolStatus pool;
  pool.daemons.resize(spec.members.size());
  std::vector<std::thread> probes;
  probes.reserve(spec.members.size());
  for (std::size_t m = 0; m < spec.members.size(); ++m)
    probes.emplace_back([&spec, &timeouts, &pool, m] {
      probe_one(spec.members[m], timeouts, pool.daemons[m]);
    });
  for (std::thread& probe : probes) probe.join();

  for (const DaemonProbe& probe : pool.daemons) {
    if (!probe.alive) {
      ++pool.dead;
      continue;
    }
    ++pool.alive;
    const Json& status = probe.status;
    if (status.find("event") == nullptr) continue;  // busy: no stats
    pool.requests += uint_of(status, "requests");
    pool.scenarios_run += uint_of(status, "scenarios_run");
    pool.rejected += uint_of(status, "rejected");
    if (const Json* cache = status.find("cache")) {
      pool.cache_hits += uint_of(*cache, "hits");
      pool.cache_misses += uint_of(*cache, "misses");
    }
    if (const Json* jobs = status.find("jobs")) {
      pool.jobs_queued += uint_of(*jobs, "queued");
      pool.jobs_running += uint_of(*jobs, "running");
    }
  }
  return pool;
}

void render_pool_table(std::ostream& out, const PoolStatus& pool) {
  std::size_t width = 6;  // len("DAEMON")
  for (const DaemonProbe& probe : pool.daemons)
    width = std::max(width, probe.member.endpoint().size());

  char line[256];
  std::snprintf(line, sizeof(line),
                "%-*s  %-5s  %8s  %8s  %8s  %6s  %6s\n",
                static_cast<int>(width), "DAEMON", "STATE", "UPTIME",
                "REQS", "SCEN", "HIT%", "JOBS");
  out << line;
  for (const DaemonProbe& probe : pool.daemons) {
    const std::string endpoint = probe.member.endpoint();
    if (!probe.alive) {
      std::snprintf(line, sizeof(line),
                    "%-*s  %-5s  %8s  %8s  %8s  %6s  %6s  %s\n",
                    static_cast<int>(width), endpoint.c_str(), "dead",
                    "-", "-", "-", "-", "-", probe.error.c_str());
      out << line;
      continue;
    }
    const Json& status = probe.status;
    if (status.find("event") == nullptr) {
      std::snprintf(line, sizeof(line),
                    "%-*s  %-5s  %8s  %8s  %8s  %6s  %6s  %s\n",
                    static_cast<int>(width), endpoint.c_str(), "busy",
                    "-", "-", "-", "-", "-", probe.error.c_str());
      out << line;
      continue;
    }
    const std::uint64_t hits =
        status.find("cache") ? uint_of(*status.find("cache"), "hits") : 0;
    const std::uint64_t misses =
        status.find("cache") ? uint_of(*status.find("cache"), "misses") : 0;
    const std::uint64_t lookups = hits + misses;
    char hit_pct[16];
    if (lookups == 0)
      std::snprintf(hit_pct, sizeof(hit_pct), "-");
    else
      std::snprintf(hit_pct, sizeof(hit_pct), "%.0f%%",
                    100.0 * static_cast<double>(hits) /
                        static_cast<double>(lookups));
    std::uint64_t jobs_active = 0;
    if (const Json* jobs = status.find("jobs"))
      jobs_active = uint_of(*jobs, "queued") + uint_of(*jobs, "running");
    const Json* uptime = status.find("uptime_seconds");
    std::snprintf(
        line, sizeof(line),
        "%-*s  %-5s  %8s  %8llu  %8llu  %6s  %6llu\n",
        static_cast<int>(width), endpoint.c_str(), "up",
        format_uptime(uptime != nullptr ? uptime->as_double() : 0.0).c_str(),
        static_cast<unsigned long long>(uint_of(status, "requests")),
        static_cast<unsigned long long>(uint_of(status, "scenarios_run")),
        hit_pct, static_cast<unsigned long long>(jobs_active));
    out << line;
  }

  const std::uint64_t lookups = pool.cache_hits + pool.cache_misses;
  char hit_pct[16];
  if (lookups == 0)
    std::snprintf(hit_pct, sizeof(hit_pct), "-");
  else
    std::snprintf(hit_pct, sizeof(hit_pct), "%.0f%%",
                  100.0 * static_cast<double>(pool.cache_hits) /
                      static_cast<double>(lookups));
  std::snprintf(
      line, sizeof(line), "%-*s  %zu/%zu  %8s  %8llu  %8llu  %6s  %6llu\n",
      static_cast<int>(width), "TOTAL", pool.alive,
      pool.alive + pool.dead, "-",
      static_cast<unsigned long long>(pool.requests),
      static_cast<unsigned long long>(pool.scenarios_run), hit_pct,
      static_cast<unsigned long long>(pool.jobs_queued + pool.jobs_running));
  out << line;
}

}  // namespace clktune::fleet
