#include "graph/graph.h"

#include <algorithm>
#include <unordered_map>

#include "dns/domain_name.h"
#include "util/require.h"

namespace seg::graph {

std::span<const DomainId> MachineDomainGraph::domains_of(MachineId m) const {
  util::require(m < machine_count(), "domains_of: machine id out of range");
  const auto begin = machine_offsets_[m];
  const auto end = machine_offsets_[m + 1];
  return {machine_targets_.data() + begin, machine_targets_.data() + end};
}

std::span<const MachineId> MachineDomainGraph::machines_of(DomainId d) const {
  util::require(d < domain_count(), "machines_of: domain id out of range");
  const auto begin = domain_offsets_[d];
  const auto end = domain_offsets_[d + 1];
  return {domain_targets_.data() + begin, domain_targets_.data() + end};
}

std::span<const dns::IpV4> MachineDomainGraph::resolved_ips(DomainId d) const {
  util::require(d < domain_count(), "resolved_ips: domain id out of range");
  const auto begin = ip_offsets_[d];
  const auto end = ip_offsets_[d + 1];
  return {resolved_ips_.data() + begin, resolved_ips_.data() + end};
}

DomainId MachineDomainGraph::find_domain(std::string_view name) const {
  const auto it = domain_index_.find(name);
  return it != domain_index_.end() ? it->second : static_cast<DomainId>(domain_count());
}

MachineId MachineDomainGraph::find_machine(std::string_view name) const {
  const auto it = machine_index_.find(name);
  return it != machine_index_.end() ? it->second : static_cast<MachineId>(machine_count());
}

void MachineDomainGraph::rebuild_name_index() {
  machine_index_.clear();
  machine_index_.reserve(machine_names_.size());
  for (MachineId m = 0; m < machine_names_.size(); ++m) {
    machine_index_.emplace(machine_names_[m], m);
  }
  domain_index_.clear();
  domain_index_.reserve(domain_names_.size());
  for (DomainId d = 0; d < domain_names_.size(); ++d) {
    domain_index_.emplace(domain_names_[d], d);
  }
}

std::size_t MachineDomainGraph::count_domains_with(Label label) const {
  return static_cast<std::size_t>(
      std::count(domain_labels_.begin(), domain_labels_.end(), label));
}

std::size_t MachineDomainGraph::count_machines_with(Label label) const {
  return static_cast<std::size_t>(
      std::count(machine_labels_.begin(), machine_labels_.end(), label));
}

void GraphBuilder::add_query(std::string_view machine, std::string_view qname,
                             std::span<const dns::IpV4> ips) {
  if (!dns::DomainName::is_valid(qname) || machine.empty()) {
    ++skipped_;
    return;
  }
  // Already-normalized names (the common case for simulator-generated
  // traces) skip the parse-and-copy; only messy real-log names pay for it.
  std::string normalized_storage;
  std::string_view normalized = qname;
  if (!dns::DomainName::is_normalized(qname)) {
    normalized_storage = dns::DomainName::parse(qname).str();
    normalized = normalized_storage;
  }

  MachineId m;
  if (const auto it = machine_ids_.find(machine); it != machine_ids_.end()) {
    m = it->second;
  } else {
    m = static_cast<MachineId>(machine_names_.size());
    machine_names_.emplace_back(machine);
    machine_ids_.emplace(machine_names_.back(), m);
  }

  DomainId d;
  if (const auto it = domain_ids_.find(normalized); it != domain_ids_.end()) {
    d = it->second;
  } else {
    d = static_cast<DomainId>(domain_names_.size());
    domain_names_.emplace_back(normalized);
    domain_ids_.emplace(domain_names_.back(), d);
    domain_ips_.emplace_back();
  }

  edges_.emplace_back(m, d);
  auto& ip_set = domain_ips_[d];
  for (const auto ip : ips) {
    if (std::find(ip_set.begin(), ip_set.end(), ip) == ip_set.end()) {
      ip_set.push_back(ip);
    }
  }
}

void GraphBuilder::add_trace(const dns::DayTrace& trace) {
  day_ = std::max(day_, trace.day);
  for (const auto& record : trace.records) {
    add_query(record.machine, record.qname, record.resolved_ips);
  }
}

MachineDomainGraph GraphBuilder::build() {
  MachineDomainGraph graph;
  graph.day_ = day_;
  graph.machine_names_ = std::move(machine_names_);
  graph.domain_names_ = std::move(domain_names_);

  const std::size_t num_machines = graph.machine_names_.size();
  const std::size_t num_domains = graph.domain_names_.size();

  // Deduplicate edges.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  // machine -> domain CSR (edges_ is already sorted by machine, then domain).
  graph.machine_offsets_.assign(num_machines + 1, 0);
  for (const auto& [m, d] : edges_) {
    ++graph.machine_offsets_[m + 1];
  }
  for (std::size_t i = 1; i <= num_machines; ++i) {
    graph.machine_offsets_[i] += graph.machine_offsets_[i - 1];
  }
  graph.machine_targets_.reserve(edges_.size());
  for (const auto& [m, d] : edges_) {
    graph.machine_targets_.push_back(d);
  }

  // domain -> machine CSR via counting sort on domain.
  graph.domain_offsets_.assign(num_domains + 1, 0);
  for (const auto& [m, d] : edges_) {
    ++graph.domain_offsets_[d + 1];
  }
  for (std::size_t i = 1; i <= num_domains; ++i) {
    graph.domain_offsets_[i] += graph.domain_offsets_[i - 1];
  }
  graph.domain_targets_.resize(edges_.size());
  {
    std::vector<std::uint64_t> cursor(graph.domain_offsets_.begin(),
                                      graph.domain_offsets_.end() - 1);
    for (const auto& [m, d] : edges_) {
      graph.domain_targets_[cursor[d]++] = m;
    }
  }
  edges_.clear();
  edges_.shrink_to_fit();

  // Resolved-IP CSR.
  graph.ip_offsets_.assign(num_domains + 1, 0);
  for (std::size_t d = 0; d < num_domains; ++d) {
    graph.ip_offsets_[d + 1] = graph.ip_offsets_[d] + domain_ips_[d].size();
  }
  graph.resolved_ips_.reserve(graph.ip_offsets_.back());
  for (auto& ips : domain_ips_) {
    std::sort(ips.begin(), ips.end());
    graph.resolved_ips_.insert(graph.resolved_ips_.end(), ips.begin(), ips.end());
  }
  domain_ips_.clear();

  // e2LD annotation, interned. Keys are owned copies: e2ld_names_ grows
  // while we iterate, so views into it would dangle on reallocation.
  std::unordered_map<std::string, E2ldId> e2ld_ids;
  graph.domain_e2ld_.reserve(num_domains);
  for (const auto& name : graph.domain_names_) {
    const std::string e2ld(psl_->e2ld_or_self(name));
    if (const auto it = e2ld_ids.find(e2ld); it != e2ld_ids.end()) {
      graph.domain_e2ld_.push_back(it->second);
    } else {
      const auto id = static_cast<E2ldId>(graph.e2ld_names_.size());
      graph.e2ld_names_.push_back(e2ld);
      e2ld_ids.emplace(e2ld, id);
      graph.domain_e2ld_.push_back(id);
    }
  }

  graph.machine_labels_.assign(num_machines, Label::kUnknown);
  graph.domain_labels_.assign(num_domains, Label::kUnknown);

  // The interning maps become the built graph's name→id directory — they
  // are already paid for, and find_machine/find_domain stay O(1).
  graph.machine_index_ = std::move(machine_ids_);
  graph.domain_index_ = std::move(domain_ids_);

  machine_ids_.clear();
  domain_ids_.clear();
  skipped_ = 0;
  day_ = 0;
  return graph;
}

GraphStats compute_stats(const MachineDomainGraph& graph) {
  GraphStats stats;
  stats.machines = graph.machine_count();
  stats.domains = graph.domain_count();
  stats.edges = graph.edge_count();
  stats.benign_domains = graph.count_domains_with(Label::kBenign);
  stats.malware_domains = graph.count_domains_with(Label::kMalware);
  stats.unknown_domains = graph.count_domains_with(Label::kUnknown);
  stats.benign_machines = graph.count_machines_with(Label::kBenign);
  stats.malware_machines = graph.count_machines_with(Label::kMalware);
  stats.unknown_machines = graph.count_machines_with(Label::kUnknown);
  return stats;
}

}  // namespace seg::graph
