#include "baselines/lbp.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"
#include "util/require.h"

namespace seg::baselines {

namespace {

constexpr double kMessageFloor = 1e-9;

double clamp_prob(double p) {
  return std::clamp(p, kMessageFloor, 1.0 - kMessageFloor);
}

// log node potential for (benign, malware) given a label.
std::pair<double, double> log_potential(graph::Label label, const LbpConfig& config) {
  switch (label) {
    case graph::Label::kMalware:
      return {std::log(1.0 - config.labeled_confidence), std::log(config.labeled_confidence)};
    case graph::Label::kBenign:
      return {std::log(config.labeled_confidence), std::log(1.0 - config.labeled_confidence)};
    case graph::Label::kUnknown:
      return {std::log(1.0 - config.unknown_prior), std::log(config.unknown_prior)};
  }
  return {0.0, 0.0};
}

}  // namespace

LbpResult run_loopy_belief_propagation(const graph::MachineDomainGraph& graph,
                                       const LbpConfig& config) {
  util::require(config.edge_potential > 0.5 && config.edge_potential < 1.0,
                "LBP: edge_potential must be in (0.5, 1)");
  util::require(config.labeled_confidence > 0.5 && config.labeled_confidence < 1.0,
                "LBP: labeled_confidence must be in (0.5, 1)");

  const std::size_t num_machines = graph.machine_count();
  const std::size_t num_domains = graph.domain_count();
  const std::size_t num_edges = graph.edge_count();

  // Edge-slot base offset per node in each CSR direction.
  std::vector<std::size_t> machine_base(num_machines + 1, 0);
  for (graph::MachineId m = 0; m < num_machines; ++m) {
    machine_base[m + 1] = machine_base[m] + graph.domains_of(m).size();
  }
  std::vector<std::size_t> domain_base(num_domains + 1, 0);
  for (graph::DomainId d = 0; d < num_domains; ++d) {
    domain_base[d + 1] = domain_base[d] + graph.machines_of(d).size();
  }

  // Cross-index between the two CSR directions: for the k-th edge slot of
  // machine m (pointing at domain d), dm_slot[k] is the slot of the same
  // edge in d's machine list, and vice versa. Machine adjacency lists are
  // sorted by domain id and domain lists by machine id, so a binary search
  // per edge suffices.
  std::vector<std::size_t> dm_slot_of_md(num_edges);
  std::vector<std::size_t> md_slot_of_dm(num_edges);
  {
    std::size_t dm = 0;
    for (graph::DomainId d = 0; d < num_domains; ++d) {
      for (const auto m : graph.machines_of(d)) {
        const auto domains = graph.domains_of(m);
        const auto it = std::lower_bound(domains.begin(), domains.end(), d);
        const auto md = machine_base[m] + static_cast<std::size_t>(it - domains.begin());
        dm_slot_of_md[md] = dm;
        md_slot_of_dm[dm] = md;
        ++dm;
      }
    }
  }

  // Messages hold P(malware); P(benign) = 1 - value. msg_md: machine ->
  // domain (indexed by machine CSR slot); msg_dm: domain -> machine.
  std::vector<double> msg_md(num_edges, 0.5);
  std::vector<double> msg_dm(num_edges, 0.5);
  std::vector<double> next_md(num_edges);
  std::vector<double> next_dm(num_edges);

  const double e = config.edge_potential;

  LbpResult result;
  result.domain_belief.assign(num_domains, config.unknown_prior);
  result.machine_belief.assign(num_machines, config.unknown_prior);

  // The synchronous schedule makes every node's update independent within
  // a half-iteration, so both sweeps parallelize with identical results
  // for any thread count.
  std::vector<double> machine_delta(num_machines, 0.0);
  std::vector<double> domain_delta(num_domains, 0.0);

  // Sends messages from one node to all its neighbors given its potential
  // and incoming messages; returns the largest message change.
  const auto update_node = [&](const std::pair<double, double>& potential,
                               std::size_t degree, std::size_t out_base,
                               const auto& incoming_slot, std::vector<double>& out,
                               const std::vector<double>& current_out,
                               const std::vector<double>& in) {
    double sum_b = potential.first;
    double sum_m = potential.second;
    for (std::size_t k = 0; k < degree; ++k) {
      const double incoming = clamp_prob(in[incoming_slot(k)]);
      sum_b += std::log(1.0 - incoming);
      sum_m += std::log(incoming);
    }
    double max_delta = 0.0;
    for (std::size_t k = 0; k < degree; ++k) {
      const double incoming = clamp_prob(in[incoming_slot(k)]);
      const double a_b = sum_b - std::log(1.0 - incoming);
      const double a_m = sum_m - std::log(incoming);
      const double shift = std::max(a_b, a_m);
      const double pb = std::exp(a_b - shift);
      const double pm = std::exp(a_m - shift);
      // message(y) = sum_x p(x) * psi(x, y)
      const double out_b = pb * e + pm * (1.0 - e);
      const double out_m = pb * (1.0 - e) + pm * e;
      const double normalized = clamp_prob(out_m / (out_b + out_m));
      max_delta = std::max(max_delta, std::abs(normalized - current_out[out_base + k]));
      out[out_base + k] = normalized;
    }
    return max_delta;
  };

  for (std::size_t iteration = 0; iteration < config.max_iterations; ++iteration) {
    // Machine -> domain messages.
    util::parallel_for(num_machines, [&](std::size_t m_index) {
      const auto m = static_cast<graph::MachineId>(m_index);
      const auto base = machine_base[m];
      machine_delta[m] = update_node(
          log_potential(graph.machine_label(m), config), graph.domains_of(m).size(), base,
          [&](std::size_t k) { return dm_slot_of_md[base + k]; }, next_md, msg_md, msg_dm);
    });
    // Domain -> machine messages.
    util::parallel_for(num_domains, [&](std::size_t d_index) {
      const auto d = static_cast<graph::DomainId>(d_index);
      const auto base = domain_base[d];
      domain_delta[d] = update_node(
          log_potential(graph.domain_label(d), config), graph.machines_of(d).size(), base,
          [&](std::size_t k) { return md_slot_of_dm[base + k]; }, next_dm, msg_dm, msg_md);
    });

    double max_delta = 0.0;
    for (const auto delta : machine_delta) {
      max_delta = std::max(max_delta, delta);
    }
    for (const auto delta : domain_delta) {
      max_delta = std::max(max_delta, delta);
    }
    msg_md.swap(next_md);
    msg_dm.swap(next_dm);
    result.iterations = iteration + 1;
    if (max_delta < config.convergence_epsilon) {
      result.converged = true;
      break;
    }
  }

  // Beliefs.
  util::parallel_for(num_machines, [&](std::size_t m_index) {
    const auto m = static_cast<graph::MachineId>(m_index);
    const auto [log_b, log_m] = log_potential(graph.machine_label(m), config);
    double sum_b = log_b;
    double sum_m = log_m;
    const auto base = machine_base[m];
    for (std::size_t k = 0; k < graph.domains_of(m).size(); ++k) {
      const double incoming = clamp_prob(msg_dm[dm_slot_of_md[base + k]]);
      sum_b += std::log(1.0 - incoming);
      sum_m += std::log(incoming);
    }
    const double shift = std::max(sum_b, sum_m);
    const double pb = std::exp(sum_b - shift);
    const double pm = std::exp(sum_m - shift);
    result.machine_belief[m] = pm / (pb + pm);
  });
  util::parallel_for(num_domains, [&](std::size_t d_index) {
    const auto d = static_cast<graph::DomainId>(d_index);
    const auto [log_b, log_m] = log_potential(graph.domain_label(d), config);
    double sum_b = log_b;
    double sum_m = log_m;
    const auto base = domain_base[d];
    for (std::size_t k = 0; k < graph.machines_of(d).size(); ++k) {
      const double incoming = clamp_prob(msg_md[md_slot_of_dm[base + k]]);
      sum_b += std::log(1.0 - incoming);
      sum_m += std::log(incoming);
    }
    const double shift = std::max(sum_b, sum_m);
    const double pb = std::exp(sum_b - shift);
    const double pm = std::exp(sum_m - shift);
    result.domain_belief[d] = pm / (pb + pm);
  });
  return result;
}

}  // namespace seg::baselines
