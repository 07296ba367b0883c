// Shared SPFA (queue-based Bellman-Ford) kernel over a caller-shaped
// adjacency, with reusable scratch.  Both difference-constraint solvers —
// the general pooled-edge DiffConstraints and the yield evaluator's
// static-topology graph — run on this one implementation, so the subtle
// parts (ring-buffer queue invariants, negative-cycle detection) are
// maintained in exactly one place.
//
// Negative cycles are found early by the amortized parent-graph search of
// Cherkassky & Goldberg ("Negative-cycle detection algorithms", Math.
// Programming, 1999): once every n relaxations the parent pointers are
// walked, O(n), and the first cycle among them ends the run.  Relaxations
// are strict, so every cycle of the parent graph has negative weight — a
// zero-weight cycle never trips the check, and a feasible system still
// ends with its unique shortest distances.  Without the search an
// infeasible system would cost O(n * m) before some node's relaxation
// count exceeded n; that count stays as the backstop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace clktune::feas {

/// Reusable SPFA scratch.  resize() keeps capacity when shrinking and
/// reuses it when growing back, so steady state is allocation-free; every
/// run reinitialises it wholesale, which also makes a run after a
/// negative-cycle bailout start from a clean slate.
struct SpfaScratch {
  std::vector<std::int64_t> dist;
  std::vector<int> relax_count;
  std::vector<char> queued;
  std::vector<int> queue;   ///< ring buffer of capacity n
  std::vector<int> parent;  ///< node whose edge last relaxed v, or -1
  std::vector<int> walk;    ///< parent-graph search: first walk to reach v
};

/// Does the parent graph in `ws` hold a cycle?  Walks each node's parent
/// chain, stamping nodes with the walk that first reached them; a walk that
/// meets its own stamp has closed a cycle, one that meets an older stamp
/// joins a chain already known to be acyclic.  O(n) in all; ws.parent and
/// ws.walk must hold n entries.
inline bool parent_graph_has_cycle(int n, SpfaScratch& ws) {
  std::fill(ws.walk.begin(), ws.walk.end(), -1);
  for (int start = 0; start < n; ++start) {
    int v = start;
    while (v != -1 && ws.walk[static_cast<std::size_t>(v)] == -1) {
      ws.walk[static_cast<std::size_t>(v)] = start;
      v = ws.parent[static_cast<std::size_t>(v)];
    }
    if (v != -1 && ws.walk[static_cast<std::size_t>(v)] == start) return true;
  }
  return false;
}

/// Shortest-path potentials from an implicit super-source: all distances
/// start at 0, all nodes queued.  `head(v)` yields node v's first edge id
/// or -1; `next(e)`, `to(e)`, `weight(e)` walk the adjacency.  Returns
/// false on a negative cycle (ws.dist is then meaningless); true with exact
/// shortest paths in ws.dist otherwise — unique, hence independent of edge
/// order and scratch history.  The ring buffer never overflows: a node is
/// enqueued only while not already queued, so occupancy is at most n.
template <class HeadFn, class NextFn, class ToFn, class WeightFn>
bool spfa_potentials(int n, SpfaScratch& ws, const HeadFn& head,
                     const NextFn& next, const ToFn& to,
                     const WeightFn& weight) {
  const auto ns = static_cast<std::size_t>(n);
  ws.dist.resize(ns);
  ws.relax_count.resize(ns);
  ws.queued.resize(ns);
  ws.queue.resize(ns);
  ws.parent.resize(ns);
  ws.walk.resize(ns);
  for (int v = 0; v < n; ++v) {
    const auto vs = static_cast<std::size_t>(v);
    ws.dist[vs] = 0;
    ws.relax_count[vs] = 0;
    ws.queued[vs] = 1;
    ws.queue[vs] = v;
    ws.parent[vs] = -1;
  }
  std::size_t qhead = 0;
  std::size_t qcount = ns;
  int until_search = n;  // relaxations left before the next cycle search
  while (qcount > 0) {
    const int v = ws.queue[qhead];
    qhead = qhead + 1 == ns ? 0 : qhead + 1;
    --qcount;
    ws.queued[static_cast<std::size_t>(v)] = 0;
    for (int e = head(v); e != -1; e = next(e)) {
      const std::int64_t cand =
          ws.dist[static_cast<std::size_t>(v)] + weight(e);
      const int u = to(e);
      const auto us = static_cast<std::size_t>(u);
      if (cand < ws.dist[us]) {
        ws.dist[us] = cand;
        ws.parent[us] = v;
        if (++ws.relax_count[us] > n) return false;  // negative cycle
        if (--until_search == 0) {
          if (parent_graph_has_cycle(n, ws)) return false;
          until_search = n;
        }
        if (!ws.queued[us]) {
          ws.queued[us] = 1;
          std::size_t tail = qhead + qcount;
          if (tail >= ns) tail -= ns;
          ws.queue[tail] = u;
          ++qcount;
        }
      }
    }
  }
  return true;
}

}  // namespace clktune::feas
