// Measurement plumbing shared by the benchmark's workloads: run options,
// the metric catalog, the result record, spans recorded around calls into
// the program's layers, order statistics and resource probes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/json.h"

namespace clktune::perfbench {

/// Inputs come in this many seeded variants; `--seed n` selects variant
/// n % kVariants, so every seed maps to outputs with a recorded reference.
constexpr std::uint64_t kVariants = 8;

/// Pinned worker threads (campaign workers too): below nproc on a 4-core
/// machine.  Results of the yield and analysis kinds depend on the thread
/// count, so the recorded references hold for this value only.
constexpr int kThreads = 2;
/// serve_mix closed-loop clients; two more than doubled the spread of its
/// throughput from run to run.
constexpr std::size_t kClients = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measuring budget of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  std::string clktune;      ///< the clktune binary (serve_mix daemon)
  std::string work_dir;     ///< scratch space; the run may empty it
  util::Json references = util::Json::object();  ///< this workload's refs
  bool record = false;  ///< emit references instead of checking them

  std::uint64_t variant() const { return seed % kVariants; }
};

/// One line of the metric catalog (BENCHMARK.json lists the same names).
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them untraced.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics: every traced run reports all of them; a layer the
/// workload does no work in reads 0.
extern const std::vector<MetricDef> kPerLayer;

/// The outcome of one workload run: the output checks, counted per unit of
/// work attempted, and the metrics of the run's kind.
class RunReport {
 public:
  explicit RunReport(bool trace);

  /// Counts one unit of work; a failed check is logged to stderr.
  void check(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
  /// Counts `attempted` units of which `failed` failed.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  /// Sets a catalog metric; an unknown name is a program bug (throws).
  void set(const std::string& name, double value);
  /// Record mode: the references this run produced.
  util::Json& recorded() { return recorded_; }

  std::uint64_t failed() const { return failed_; }

  /// The result object; throws when an end-to-end metric was never set.
  util::Json result_json() const;
  const util::Json& recorded_json() const { return recorded_; }

 private:
  bool trace_;
  std::vector<MetricDef> catalog_;
  std::vector<double> values_;
  std::vector<char> set_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  util::Json recorded_ = util::Json::object();
};

/// Spans the program recorded with its obs::TraceSpans, read back from its
/// trace file.  A span nests under the enclosing span of the same thread;
/// self time is a span's duration minus its children's.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t tid = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
  };

  /// Loads Chrome-trace "X" events (obs::start_trace's NDJSON) and nests
  /// them by time within each thread.
  void import_chrome_trace(const std::string& path);

  /// Sum of the durations of spans with this name.
  double total_seconds(const std::string& name) const;
  /// Sum of their self times.
  double self_seconds(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

std::uint64_t now_ns();

/// Median with interpolation between the middle pair; 0 when empty.
double median(std::vector<double> values);
/// Nearest-rank q-quantile (0 < q <= 1); 0 when empty.
double quantile(std::vector<double> values, double q);
double sum(const std::vector<double>& values);

/// Runs `pass` (returning its measured seconds) at least once and again
/// while another pass of the mean length still fits in `budget_seconds`.
std::vector<double> timed_passes(double budget_seconds,
                                 const std::function<double()>& pass);

/// Runs a workload's whole set-up `reps` times and appends the seconds of
/// each to `times`.  Workloads call it before their first measured pass and
/// again after every pass.
void time_setups(int reps, const std::function<void()>& setup,
                 std::vector<double>& times);
/// Sets setup_s to the fastest of `times` and logs their range to stderr.
/// A set-up takes milliseconds, and a shared machine has slow spells of
/// several seconds in which it takes 40 % longer, while noise never makes
/// work faster.  So the set-up is sampled across the whole run and the
/// fastest repetition is reported: over runs of one build the median of a
/// run's repetitions spread by about 30 %, the fastest by 9 to 16 %.
void set_setup(RunReport& report, const std::vector<double>& times);

/// Peak resident set of this process / of its waited-for children, in MB.
double peak_rss_self_mb();
double peak_rss_children_mb();

std::string sha256_of_artifact(const util::Json& artifact);

}  // namespace clktune::perfbench
