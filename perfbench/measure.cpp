#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "util/sha256.h"

namespace clktune::perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_rps", "1/s"},
    {"run_p50_ms", "ms"},
    {"run_p99_ms", "ms"},
    {"job_p95_ms", "ms"},
    {"yield_gain_pct", "%"},
    {"buffers", "count"},
};

const std::vector<MetricDef> kPerLayer = {
    {"netlist.build_s", "s"},
    {"ssta.extract_s", "s"},
    {"ssta.arcs", "count"},
    {"mc.period_mc_s", "s"},
    {"core.insert_s", "s"},
    {"core.step1_s", "s"},
    {"core.step2a_s", "s"},
    {"core.step2b_s", "s"},
    {"core.violating_samples", "count"},
    {"core.unfixable_samples", "count"},
    {"milp.solved", "count"},
    {"milp.nodes", "count"},
    {"milp.truncated", "count"},
    {"milp.lazy_rounds", "count"},
    {"feas.yield_eval_s", "s"},
    {"analysis.criticality_s", "s"},
    {"analysis.binning_s", "s"},
    {"exec.cell_s_p50", "s"},
    {"exec.cell_s_max", "s"},
    {"exec.worker_idle_s", "s"},
    {"serve.server_run_ms_p50", "ms"},
    {"serve.busy", "count"},
    {"serve.error_rate", "ratio"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"jobs.completed", "count"},
    {"trace.span_coverage_pct", "%"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_pct", "%"},
};

RunReport::RunReport(bool trace)
    : trace_(trace),
      catalog_(trace ? kPerLayer : kEndToEnd),
      values_(catalog_.size(), 0.0),
      set_(catalog_.size(), 0) {}

void RunReport::tally(std::uint64_t attempted, std::uint64_t failed,
                      const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0)
    std::fprintf(stderr, "perfbench: %llu of %llu failed: %s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted), what.c_str());
}

void RunReport::set(const std::string& name, double value) {
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    if (name != catalog_[i].name) continue;
    values_[i] = value;
    set_[i] = 1;
    return;
  }
  throw std::logic_error("perfbench: metric '" + name +
                         "' is not in the catalog of this run kind");
}

util::Json RunReport::result_json() const {
  util::Json metrics = util::Json::object();
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    // Per-layer metrics of layers a workload does not exercise read 0;
    // every end-to-end metric is defined for every workload.
    if (!trace_ && !set_[i])
      throw std::logic_error(std::string("perfbench: end-to-end metric '") +
                             catalog_[i].name + "' was not measured");
    util::Json entry = util::Json::object();
    entry.set("value", values_[i]);
    entry.set("unit", catalog_[i].unit);
    metrics.set(catalog_[i].name, std::move(entry));
  }
  util::Json result = util::Json::object();
  result.set("correct", attempted_ > 0 && failed_ == 0);
  result.set("attempted", attempted_);
  result.set("failed", failed_);
  result.set("metrics", std::move(metrics));
  return result;
}

void SpanLog::import_chrome_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perfbench: cannot read trace " + path);
  std::vector<Span> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::Json event = util::Json::parse(line);
    if (event.at("ph").as_string() != "X") continue;
    Span span;
    // Per-cell spans ("cell:<name>") group under their prefix.
    const std::string& name = event.at("name").as_string();
    span.name = name.substr(0, name.find(':'));
    span.tid = event.at("tid").as_uint();
    const double ts_us = event.at("ts").as_double();
    const double dur_us = event.at("dur").as_double();
    span.start_ns = static_cast<std::uint64_t>(std::llround(ts_us * 1e3));
    span.end_ns =
        static_cast<std::uint64_t>(std::llround((ts_us + dur_us) * 1e3));
    events.push_back(std::move(span));
  }
  // Parents open before their children and close after them; sorting by
  // (thread, start, longest first) lets one stack per thread nest them.
  std::stable_sort(events.begin(), events.end(),
                   [](const Span& a, const Span& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_ns != b.start_ns)
                       return a.start_ns < b.start_ns;
                     return a.end_ns > b.end_ns;
                   });
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    Span& span = events[i];
    if (i > 0 && events[i - 1].tid != span.tid) stack.clear();
    while (!stack.empty() && spans_[stack.back()].end_ns <= span.start_ns)
      stack.pop_back();
    span.parent = stack.empty() ? -1 : static_cast<int>(stack.back());
    stack.push_back(spans_.size());
    spans_.push_back(std::move(span));
  }
}

double SpanLog::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_)
    if (span.name == name)
      total += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
  return total;
}

double SpanLog::self_seconds(const std::string& name) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] += 1e-9 * static_cast<double>(spans_[i].end_ns -
                                          spans_[i].start_ns);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -=
          1e-9 * static_cast<double>(span.end_ns - span.start_ns);
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) total += self[i];
  return total;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

std::vector<double> timed_passes(double budget_seconds,
                                 const std::function<double()>& pass) {
  std::vector<double> passes;
  const std::uint64_t start = now_ns();
  while (true) {
    passes.push_back(pass());
    const double elapsed = 1e-9 * static_cast<double>(now_ns() - start);
    const double mean = elapsed / static_cast<double>(passes.size());
    if (elapsed + mean > budget_seconds) return passes;
  }
}

void time_setups(int reps, const std::function<void()>& setup,
                 std::vector<double>& times) {
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = now_ns();
    setup();
    times.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }
}

void set_setup(RunReport& report, const std::vector<double>& times) {
  const double fastest = quantile(times, 0.0);
  std::fprintf(stderr,
               "perfbench: %zu set-ups: min %.6f median %.6f max %.6f s\n",
               times.size(), fastest, median(times), quantile(times, 1.0));
  report.set("setup_s", fastest);
}

namespace {

double peak_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

double peak_rss_self_mb() { return peak_rss_mb(RUSAGE_SELF); }
double peak_rss_children_mb() { return peak_rss_mb(RUSAGE_CHILDREN); }

std::string sha256_of_artifact(const util::Json& artifact) {
  // The bytes `clktune run/sweep -o` writes, so a reference can be checked
  // with sha256sum against the CLI's own output.
  return util::sha256_hex(artifact.dump(2) + "\n");
}

}  // namespace clktune::perfbench
