// Campaigns: parameter sweeps over a base scenario, executed as one batch.
//
// A campaign document holds a base scenario plus sweep axes; the cross
// product of all axis values is expanded into a concrete scenario list
// (EffiTest-style circuits x variation settings evaluation grids).  Example:
//
//   {
//     "name": "paper_table1",
//     "base": { ... ScenarioSpec ... },
//     "sweep": {
//       "design.paper_circuit": ["s9234", "s13207"],
//       "clock.sigma_offset": [0, 1, 2],
//       "insertion.num_samples": [1000, 10000]
//     },
//     "threads": 0,
//     "seed_stride": 1
//   }
//
// Sweep keys are dotted paths into the scenario document; each expanded
// scenario gets a deterministic name suffix and (via seed_stride) a
// deterministic, distinct sample seed, so campaign results are reproducible
// bit for bit regardless of how many worker threads execute them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "util/json.h"

namespace clktune::scenario {

/// One sweep axis: dotted scenario path + the values it takes.
struct SweepAxis {
  std::string path;
  std::vector<util::Json> values;
};

/// Most scenarios one campaign may expand to; every expansion index, and
/// so every "result" index on the wire, is below it.
inline constexpr std::size_t kMaxExpansion = 100000;

struct CampaignSpec {
  std::string name = "campaign";
  util::Json base = util::Json::object();  ///< base scenario document
  std::vector<SweepAxis> axes;             ///< in declaration order
  /// Worker threads across scenarios; 0 = hardware concurrency.
  int threads = 0;
  /// Each expanded scenario i gets sample_seed += i * seed_stride (0 keeps
  /// every scenario on the base seed).
  std::uint64_t seed_stride = 1;

  static CampaignSpec from_json(const util::Json& j);
  util::Json to_json() const;

  /// Number of scenarios the sweep expands to (product of axis sizes);
  /// throws util::JsonError above kMaxExpansion.  O(#axes).
  std::size_t expansion_size() const;

  /// Cross-product expansion into validated scenario specs.  Throws
  /// util::JsonError when an axis path is unknown or a combination fails
  /// ScenarioSpec validation.  An explicit "insertion.sample_seed" sweep
  /// axis overrides the seed_stride policy.
  std::vector<ScenarioSpec> expand() const;
};

struct CampaignSummary {
  std::string name;
  std::vector<ScenarioResult> results;  ///< shard cells, in expansion order
  std::uint64_t scenarios_run = 0;
  std::uint64_t targets_missed = 0;
  /// Cells served from the result cache (subset of scenarios_run).  Not
  /// serialised: a warm summary must stay byte-identical to a cold one.
  std::uint64_t scenarios_cached = 0;
  /// Which slice of the expansion this summary covers (i of n); recorded in
  /// the JSON when sharded so partial summaries are self-describing.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  double total_seconds = 0.0;  ///< wall clock of the whole batch

  /// Deterministic (timing-free) by default.
  util::Json to_json(bool include_timing = false) const;

  /// Rederives scenarios_run and targets_missed from the cells — the one
  /// place those counters are defined; every producer (local execution,
  /// remote reassembly, shard merge, from_json) calls this instead of
  /// counting by hand.  scenarios_cached is left alone: it is execution
  /// provenance, not derivable from the cells.
  void recount();

  /// Rebuilds a summary from a serialised artifact (a `clktune sweep`
  /// output file).  Round-trip safe for deterministic artifacts:
  /// from_json(s.to_json()).to_json() reproduces the original bytes —
  /// the aggregate block is recomputed from the cells, and cells round
  /// trip via ScenarioResult.  Backs `clktune report --merge` and the
  /// remote execution backend.  Throws util::JsonError on shape errors.
  static CampaignSummary from_json(const util::Json& j);
};

// Campaign execution lives in the exec layer: exec::LocalExecutor expands
// and runs a CampaignSpec (optionally cached / sharded), and
// exec::merge_shard_summaries reassembles shard summaries.

}  // namespace clktune::scenario
