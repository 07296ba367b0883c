#include "bench/bench_report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "fault/fault.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace clktune::bench {

std::string bench_git_sha() {
  const std::string env = util::env_string("GITHUB_SHA", "");
  if (!env.empty()) return env;
  std::string sha;
  if (std::FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      sha = buf;
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    }
    ::pclose(pipe);
  }
  return sha.empty() ? "unknown" : sha;
}

std::string bench_hostname() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

util::Json BenchReport::to_json() const {
  const double secs = wall_.seconds();
  util::Json j = util::Json::object();
  j.set("bench", name_);
  j.set("wall_seconds", secs);
  j.set("samples", samples_);
  const double sps = samples_per_sec_ >= 0.0
                         ? samples_per_sec_
                         : (secs > 0.0 && samples_ > 0
                                ? static_cast<double>(samples_) / secs
                                : 0.0);
  j.set("samples_per_sec", sps);
  j.set("milp_nodes", milp_nodes_);
  j.set("allocations", allocs_.delta());
  // Peak resident set of this process so far, in MB (ru_maxrss is KiB on
  // Linux).
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  j.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  // Faults fired during the run — in this process, plus any a harness
  // observed on the system under test.  Nonzero means the numbers
  // describe a chaos experiment, not performance; scripts/perf_gate.sh
  // refuses such a report outright.
  j.set("faults_injected", fault::injected_total() + external_faults_);
  // Provenance stamp — which commit, where, how parallel — so a stored
  // BENCH_*.json is attributable long after the run.
  j.set("git_sha", bench_git_sha());
  j.set("hostname", bench_hostname());
  j.set("threads",
        static_cast<std::uint64_t>(util::resolve_thread_count(
            static_cast<std::size_t>(
                std::max(0L, util::env_long("CLKTUNE_THREADS", 0))))));
  for (const auto& [key, value] : extra_.as_object()) j.set(key, value);
  return j;
}

int BenchReport::write() const {
  const util::Json j = to_json();
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
    return 1;
  }
  out << j.dump(2) << "\n";
  std::fprintf(stderr, "wrote %s (%.2f s, %.0f samples/s)\n", path.c_str(),
               j.at("wall_seconds").as_double(),
               j.at("samples_per_sec").as_double());
  return 0;
}

}  // namespace clktune::bench
