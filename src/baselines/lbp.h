// Loopy belief propagation baseline (Manadhata et al., ESORICS'14 — the
// paper's reference [6]; also the inference engine of Polonium [17]).
//
// Sum-product message passing on the machine-domain bipartite graph with a
// homophily edge potential: neighbors of malware-labeled nodes drift toward
// malware, neighbors of benign nodes toward benign. Unlike Segugio, the
// method uses *only* the graph structure — no domain-activity or IP-abuse
// evidence — which is exactly the gap the paper's pilot comparison
// quantifies (Section I: ~45% better accuracy for Segugio, minutes instead
// of hours).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace seg::baselines {

struct LbpConfig {
  /// Homophily strength: P(neighbor same class) = edge_potential. Must be
  /// in (0.5, 1) for the usual attraction semantics.
  double edge_potential = 0.51;
  /// Prior P(malware) for labeled malware nodes (benign symmetric).
  double labeled_confidence = 0.99;
  /// Prior P(malware) for unknown nodes.
  double unknown_prior = 0.5;
  std::size_t max_iterations = 15;
  /// Stop when the largest belief change falls below this.
  double convergence_epsilon = 1e-4;
};

struct LbpResult {
  /// P(malware) per domain node.
  std::vector<double> domain_belief;
  /// P(malware) per machine node.
  std::vector<double> machine_belief;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Runs synchronous-schedule LBP over a labeled graph. The message sweeps
/// run on the shared pool (the paper ran this baseline on GraphLab's
/// parallel engine), so SEG_THREADS / util::set_parallelism set their
/// width; every node writes only its own message slots, so beliefs are
/// identical for every width. Top-level calls only: never from inside a
/// parallel_for body (see util/parallel.h).
LbpResult run_loopy_belief_propagation(const graph::MachineDomainGraph& graph,
                                       const LbpConfig& config = {});

}  // namespace seg::baselines
