// Per-sample ILP machinery: given one Monte-Carlo chip, find the minimum
// number of adjusted buffers (problem (8)-(13) / (III-B1)) and then
// concentrate tuning values (problems (14)-(17) and (18)-(21)).
//
// Two implementation devices keep 10 000-sample runs tractable without
// changing the optima:
//
//  * Lazy constraint generation.  The ILP starts from the violated arcs
//    only; the solved assignment is verified against every arc incident to
//    its support and newly violated arcs are added until the solution is
//    globally feasible.  Because the working model is always a relaxation
//    of the full model, the final solution is optimal for the full model.
//
//  * Greedy warm starts.  A difference-constraint feasibility oracle
//    (Bellman-Ford) grows a buffer set greedily; the resulting incumbent
//    lets branch & bound prune aggressively from the first node.
//
// The solver reads a chip lazily (ChipConstants): it is seeded with the
// chip's violated arcs, found by the scan that screened it
// (mc::violated_arcs), and reads every other arc's constants on demand
// through the chip's view (which draws each arc at most once per chip), so
// a chip costs the arcs the lazy loop touches rather than all of them.  A
// caller-owned SolveWorkspace holds every per-sample scratch structure —
// working-model flags reset in O(1) via epoch stamping, pooled
// component/greedy vectors, a reusable difference-constraint system — and
// the solve writes into a caller-owned SampleSolution, so solving a chip
// that is rescued without a MILP performs zero heap allocations in steady
// state.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "feas/diff_constraints.h"
#include "mc/sampler.h"
#include "milp/branch_and_bound.h"
#include "ssta/seq_graph.h"

namespace clktune::core {

/// Candidate buffers and their discrete windows, indexed by flip-flop.
struct CandidateWindows {
  /// k_lo/k_hi in step units; entries only meaningful where candidate.
  std::vector<int> k_lo, k_hi;
  std::vector<char> candidate;

  static CandidateWindows floating(int num_ffs, int steps);
  static CandidateWindows none(int num_ffs);

  int count() const {
    int n = 0;
    for (char c : candidate) n += c != 0;
    return n;
  }
};

enum class ConcentrateMode {
  none,          ///< stop after minimising the buffer count
  toward_zero,   ///< III-A3: minimise sum |x_i|
  toward_target  ///< III-B2: minimise sum |x_i - x_avg,i|
};

struct SampleSolution {
  /// False when the chip cannot meet timing even with every candidate
  /// buffer at full freedom (or a non-candidate arc fails outright).
  bool fixable = true;
  /// Minimum number of adjusted buffers n_k (0 when the chip passes as-is).
  int nk = 0;
  /// Non-zero tunings (ff, k in steps) of the final assignment.
  std::vector<std::pair<int, int>> tunings;
  /// Non-zero tunings right after the count-minimisation phase, before any
  /// concentration (the scattered values of Fig. 5a).
  std::vector<std::pair<int, int>> mincount_tunings;
  // Diagnostics.
  long milp_nodes = 0;
  int lazy_rounds = 0;
  int milps_solved = 0;
  bool truncated = false;  ///< a branch & bound hit its node limit

  /// Back to a chip that passes untouched, keeping the vectors' capacity.
  void reset() {
    fixable = true;
    nk = 0;
    tunings.clear();
    mincount_tunings.clear();
    milp_nodes = 0;
    lazy_rounds = 0;
    milps_solved = 0;
    truncated = false;
  }
};

/// One chip as the solver reads it: the arcs with a negative setup or hold
/// constant at x = 0, in ascending order (mc::violated_arcs; the working
/// model's seed), and the chip's view, through which every other constant
/// is read on demand (mc::arc_constants).
struct ChipConstants {
  const mc::ChipView& chip;
  std::span<const int> violated;
};

/// Reusable per-thread scratch for SampleSolver::solve.  All members are
/// internal state: default-construct one per worker thread and pass it to
/// every solve call.  Contents carry no information between calls (epoch
/// stamping invalidates them wholesale), only capacity.
struct SolveWorkspace {
  struct Component {
    std::vector<int> arcs;  ///< active arc ids
    std::vector<int> vars;  ///< working-model var ids
  };

  std::uint64_t epoch = 0;
  // Working model: per-arc membership/violation flags and per-FF variable
  // slots, all valid only where the stamp equals `epoch`.
  std::vector<std::uint64_t> in_model_epoch;  // per arc
  std::vector<std::uint64_t> violated_epoch;  // per arc
  std::vector<std::uint64_t> var_epoch;       // per FF
  std::vector<int> var_of_ff;                 // per FF, guarded by var_epoch
  std::vector<int> active;                    // arc ids in the working model
  std::vector<int> ff_of_var;
  std::vector<std::int64_t> k_of_var;  // current assignment (steps)

  // Connected-component scratch (pooled: inner vectors keep capacity).
  std::vector<Component> comps;
  std::size_t comps_used = 0;
  std::vector<int> parent;
  std::vector<int> comp_of_root;
  std::vector<int> sorted_active;

  // Per-component scratch.
  std::vector<char> covered;
  std::vector<int> local_of_var;
  std::vector<std::int64_t> count_solution;
  std::vector<std::int64_t> final_solution;

  // Greedy-oracle scratch.
  feas::DiffConstraints oracle;
  std::vector<char> greedy_chosen;
  std::vector<int> greedy_dense;
  std::vector<int> greedy_local_of_var;
  std::vector<int> greedy_score;
  std::vector<std::int64_t> greedy_x;

  // Verification / accumulation scratch.
  std::vector<int> fresh;
  std::vector<std::pair<int, int>> mincount_acc;
};

class SampleSolver {
 public:
  SampleSolver(const ssta::SeqGraph& graph, double step_ps,
               double clock_period_ps, CandidateWindows windows,
               long milp_max_nodes = 50000);

  /// Solves one chip into `out` (overwritten; its vectors keep their
  /// capacity).  `targets` (step units, indexed by ff) is required for
  /// ConcentrateMode::toward_target.
  void solve(const ChipConstants& chip, ConcentrateMode mode,
             const std::vector<double>* targets, SolveWorkspace& ws,
             SampleSolution& out) const;

  /// Convenience overload for a chip drawn in full: finds its violated
  /// arcs from every arc's constants and solves it on thread-local
  /// scratch.
  SampleSolution solve(const mc::ArcSample& arc_sample, ConcentrateMode mode,
                       const std::vector<double>* targets = nullptr) const;

  /// Integer constraint constants for sample arcs (exposed for tests):
  /// setup:  x_i - x_j <= setup_steps[e];  hold:  x_j - x_i <= hold_steps[e].
  /// Delegates to the shared mc::floor_steps quantizer.
  void arc_constants(const mc::ArcSample& arc_sample,
                     std::vector<std::int64_t>& setup_steps,
                     std::vector<std::int64_t>& hold_steps) const;

  const CandidateWindows& windows() const { return windows_; }
  double step_ps() const { return step_ps_; }
  double clock_period_ps() const { return clock_period_; }

 private:
  struct WorkingModel;

  const ssta::SeqGraph* graph_;
  double step_ps_;
  double clock_period_;
  CandidateWindows windows_;
  long milp_max_nodes_;
};

}  // namespace clktune::core
