#include "load/xcheck.h"

#include <cmath>
#include <stdexcept>

namespace clktune::load {

namespace {

using util::Json;

/// Extracts the verb from a registry identity like
/// `clktune_serve_request_seconds{verb="run"}`; empty when `id` is not a
/// per-verb latency histogram.
std::string verb_of(const std::string& id) {
  static const std::string prefix = "clktune_serve_request_seconds{verb=\"";
  if (id.rfind(prefix, 0) != 0) return "";
  const std::size_t end = id.find('"', prefix.size());
  if (end == std::string::npos) return "";
  return id.substr(prefix.size(), end - prefix.size());
}

}  // namespace

std::uint64_t WireHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& [le, n] : buckets) total += n;
  return total;
}

double WireHistogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (const auto& [le, n] : buckets) {  // std::map: ascending le
    seen += n;
    if (seen >= rank) return le;
  }
  return buckets.rbegin()->first;
}

void WireHistogram::merge(const WireHistogram& other) {
  for (const auto& [le, n] : other.buckets) buckets[le] += n;
  sum_seconds += other.sum_seconds;
}

ServerSnapshot ServerSnapshot::delta(const ServerSnapshot& before,
                                     const ServerSnapshot& after) {
  ServerSnapshot d;
  d.busy_rejections = after.busy_rejections - before.busy_rejections;
  d.faults_injected = after.faults_injected - before.faults_injected;
  for (const auto& [verb, hist] : after.verb_latency) {
    WireHistogram dh = hist;
    const auto it = before.verb_latency.find(verb);
    if (it != before.verb_latency.end()) {
      for (const auto& [le, n] : it->second.buckets) {
        auto bucket = dh.buckets.find(le);
        if (bucket != dh.buckets.end())
          bucket->second -= n <= bucket->second ? n : bucket->second;
      }
      dh.sum_seconds -= it->second.sum_seconds;
    }
    // Drop emptied buckets so count() and quantile() see only the run.
    for (auto it2 = dh.buckets.begin(); it2 != dh.buckets.end();)
      it2 = it2->second == 0 ? dh.buckets.erase(it2) : std::next(it2);
    if (!dh.buckets.empty()) d.verb_latency[verb] = std::move(dh);
  }
  return d;
}

ServerSnapshot fetch_server_snapshot(const fleet::FleetSpec& targets,
                                     const serve::SubmitOptions& timeouts) {
  ServerSnapshot snapshot;
  for (const fleet::FleetMember& member : targets.members) {
    serve::SubmitOutcome outcome;
    try {
      outcome = member.client(timeouts).metrics();
    } catch (const std::exception& e) {
      throw std::runtime_error("metrics fetch from " + member.endpoint() +
                               " failed: " + e.what());
    }
    if (!outcome.is("metrics"))
      throw std::runtime_error("daemon " + member.endpoint() +
                               " answered the metrics verb with an error");
    const Json& metrics = outcome.final_event.at("metrics");
    for (const auto& [id, value] : metrics.at("counters").as_object()) {
      if (id == "clktune_serve_busy_rejections_total")
        snapshot.busy_rejections += value.as_uint();
      else if (id.rfind("clktune_fault_injected_total", 0) == 0)
        snapshot.faults_injected += value.as_uint();
    }
    for (const auto& [id, value] : metrics.at("histograms").as_object()) {
      const std::string verb = verb_of(id);
      if (verb.empty()) continue;
      WireHistogram hist;
      for (const Json& bucket : value.at("buckets").as_array()) {
        const util::JsonArray& pair = bucket.as_array();
        hist.buckets[pair.at(0).as_double()] += pair.at(1).as_uint();
      }
      hist.sum_seconds = value.at("sum").as_double();
      snapshot.verb_latency[verb].merge(hist);
    }
  }
  return snapshot;
}

Json VerbAgreement::to_json() const {
  Json j = Json::object();
  j.set("verb", verb);
  j.set("client_count", client_count);
  j.set("server_count", server_count);
  j.set("client_p50_seconds", client_p50);
  j.set("server_p50_seconds", server_p50);
  j.set("client_p99_seconds", client_p99);
  j.set("server_p99_seconds", server_p99);
  j.set("ok", ok);
  if (!note.empty()) j.set("note", note);
  return j;
}

Json Agreement::to_json() const {
  Json j = Json::object();
  j.set("ok", ok);
  Json array = Json::array();
  for (const VerbAgreement& verb : verbs) array.push_back(verb.to_json());
  j.set("verbs", std::move(array));
  return j;
}

Agreement cross_check(const std::vector<ClientVerb>& client,
                      const ServerSnapshot& server_delta,
                      std::uint64_t transport_errors,
                      const XcheckTolerance& tolerance) {
  Agreement agreement;
  for (const ClientVerb& observed : client) {
    if (observed.count == 0) continue;
    VerbAgreement verdict;
    verdict.verb = observed.verb;
    verdict.client_count = observed.count;
    verdict.client_p50 = observed.p50;
    verdict.client_p99 = observed.p99;

    const auto it = server_delta.verb_latency.find(observed.verb);
    if (it == server_delta.verb_latency.end()) {
      verdict.ok = false;
      verdict.note = "verb missing from the server's latency histograms";
      agreement.verbs.push_back(verdict);
      agreement.ok = false;
      continue;
    }
    const WireHistogram& server = it->second;
    verdict.server_count = server.count();
    verdict.server_p50 = server.quantile(0.5);
    verdict.server_p99 = server.quantile(0.99);

    // Counts: the server must have seen every exchange the client
    // completed; a request that died on the wire may be counted on
    // either side, so transport errors widen the window.
    const std::uint64_t lo =
        observed.count > transport_errors ? observed.count - transport_errors
                                          : 0;
    const std::uint64_t hi = observed.count + transport_errors;
    if (verdict.server_count < lo || verdict.server_count > hi) {
      verdict.ok = false;
      verdict.note = "request counts disagree beyond the transport-error"
                     " window";
    }
    // Physics: server handling cannot exceed the client's end-to-end
    // observation by more than one log2 bucket (both quantiles are
    // bucket upper bounds) plus the absolute slack.
    const double slack = tolerance.slack_seconds;
    if (verdict.ok && (verdict.server_p50 >
                           verdict.client_p50 * 2.0 + slack ||
                       verdict.server_p99 >
                           verdict.client_p99 * 2.0 + slack)) {
      verdict.ok = false;
      verdict.note = "server-side latency exceeds the client observation";
    }
    // Overhead: the client may add wire, connect and queue-wait cost,
    // but only within the configured factor.
    if (verdict.ok &&
        (verdict.client_p50 >
             verdict.server_p50 * tolerance.overhead_factor + slack ||
         verdict.client_p99 >
             verdict.server_p99 * tolerance.overhead_factor + slack)) {
      verdict.ok = false;
      verdict.note = "client-observed latency exceeds the overhead"
                     " tolerance";
    }
    agreement.ok = agreement.ok && verdict.ok;
    agreement.verbs.push_back(verdict);
  }
  return agreement;
}

}  // namespace clktune::load
