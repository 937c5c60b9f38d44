#include "features/extractor.h"

#include <algorithm>

#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/parallel.h"
#include "util/require.h"

namespace seg::features {

FeatureExtractor::FeatureExtractor(graph::GraphView graph,
                                   const dns::DomainActivityIndex& activity,
                                   const dns::PassiveDnsDb& pdns, FeatureConfig config)
    : graph_(graph), config_(config) {
  util::require(config_.activity_window_days > 0,
                "FeatureExtractor: activity window must be positive");
  util::require(config_.pdns_window_days > 0, "FeatureExtractor: pDNS window must be positive");
  precompute_machine_degrees();
  precompute_history(activity, pdns);
}

void FeatureExtractor::precompute_machine_degrees() {
  machine_malware_degree_.assign(graph_.machine_count(), 0);
  for (graph::MachineId m = 0; m < graph_.machine_count(); ++m) {
    std::uint32_t count = 0;
    for (const auto d : graph_.domains_of(m)) {
      count += graph_.domain_label(d) == graph::Label::kMalware ? 1 : 0;
    }
    machine_malware_degree_[m] = count;
  }
}

void FeatureExtractor::precompute_history(const dns::DomainActivityIndex& activity,
                                          const dns::PassiveDnsDb& pdns) {
  SEG_SPAN("features/precompute_history");
  const std::size_t num_domains = graph_.domain_count();
  const std::size_t num_e2lds = graph_.e2ld_count();
  const dns::Day t_now = graph_.day();
  const dns::Day from = t_now - config_.activity_window_days + 1;

  // --- F2: one lookup per FQDN and per distinct e2LD, over
  // [t_now - n + 1, t_now].
  f2_.resize(num_domains + num_e2lds);
  {
    SEG_SPAN("dns/activity_query_batch");
    obs::Registry::instance().counter("seg_activity_queries_total").add(f2_.size());
    util::parallel_for(f2_.size(), [&](std::size_t i) {
      const auto name =
          i < num_domains ? graph_.domain_name(static_cast<graph::DomainId>(i))
                          : graph_.e2ld_name(static_cast<graph::E2ldId>(i - num_domains));
      f2_[i] = {static_cast<double>(activity.active_days(name, from, t_now)),
                static_cast<double>(activity.consecutive_days_ending(name, t_now))};
    });
  }

  // --- F3: one lookup per distinct resolved IP and per distinct /24 over
  // the W days strictly before t_now, then a parallel per-domain
  // aggregation over the shared answers.
  const dns::Day w_from = t_now - config_.pdns_window_days;
  const dns::Day w_to = t_now - 1;
  std::vector<dns::IpV4> distinct_ips;
  for (graph::DomainId d = 0; d < num_domains; ++d) {
    const auto ips = graph_.resolved_ips(d);
    distinct_ips.insert(distinct_ips.end(), ips.begin(), ips.end());
  }
  std::sort(distinct_ips.begin(), distinct_ips.end());
  distinct_ips.erase(std::unique(distinct_ips.begin(), distinct_ips.end()),
                     distinct_ips.end());
  std::vector<dns::IpV4> distinct_prefixes;
  distinct_prefixes.reserve(distinct_ips.size());
  for (const auto ip : distinct_ips) {  // sorted ips => non-decreasing prefixes
    const dns::IpV4 representative(ip.prefix24());
    if (distinct_prefixes.empty() || distinct_prefixes.back() != representative) {
      distinct_prefixes.push_back(representative);
    }
  }
  // {malware, unknown} flags: per IP for the first distinct_ips.size()
  // entries, per /24 for the rest.
  std::vector<std::array<std::uint8_t, 2>> abuse(distinct_ips.size() + distinct_prefixes.size());
  {
    SEG_SPAN("dns/pdns_query_batch");
    obs::Registry::instance().counter("seg_pdns_queries_total").add(abuse.size());
    util::parallel_for(abuse.size(), [&](std::size_t i) {
      if (i < distinct_ips.size()) {
        const auto ip = distinct_ips[i];
        abuse[i] = {static_cast<std::uint8_t>(pdns.ip_malware_associated(ip, w_from, w_to)),
                    static_cast<std::uint8_t>(pdns.ip_unknown_associated(ip, w_from, w_to))};
      } else {
        const auto prefix = distinct_prefixes[i - distinct_ips.size()];
        abuse[i] = {
            static_cast<std::uint8_t>(pdns.prefix_malware_associated(prefix, w_from, w_to)),
            static_cast<std::uint8_t>(pdns.prefix_unknown_associated(prefix, w_from, w_to))};
      }
    });
  }
  const auto ip_flags = [&](dns::IpV4 ip) -> const std::array<std::uint8_t, 2>& {
    const auto it = std::lower_bound(distinct_ips.begin(), distinct_ips.end(), ip);
    return abuse[static_cast<std::size_t>(it - distinct_ips.begin())];
  };
  const auto prefix_flags = [&](dns::IpV4 representative) -> const std::array<std::uint8_t, 2>& {
    const auto it =
        std::lower_bound(distinct_prefixes.begin(), distinct_prefixes.end(), representative);
    return abuse[distinct_ips.size() + static_cast<std::size_t>(it - distinct_prefixes.begin())];
  };
  f3_.assign(num_domains, {});
  util::parallel_for(num_domains, [&](std::size_t d) {
    const auto ips = graph_.resolved_ips(static_cast<graph::DomainId>(d));
    if (ips.empty()) {
      return;
    }
    std::size_t ip_malware = 0;
    std::size_t ip_unknown = 0;
    std::size_t prefix_malware = 0;
    std::size_t prefix_unknown = 0;
    std::size_t prefix_count = 0;
    std::uint32_t last_prefix = 0;
    bool have_prefix = false;
    for (const auto ip : ips) {  // sorted => prefixes dedupe in one pass
      const auto& flags = ip_flags(ip);
      ip_malware += flags[0];
      ip_unknown += flags[1];
      if (!have_prefix || ip.prefix24() != last_prefix) {
        have_prefix = true;
        last_prefix = ip.prefix24();
        ++prefix_count;
        const auto& prefix = prefix_flags(dns::IpV4(last_prefix));
        prefix_malware += prefix[0];
        prefix_unknown += prefix[1];
      }
    }
    f3_[d] = {static_cast<double>(ip_malware) / static_cast<double>(ips.size()),
              static_cast<double>(prefix_malware) / static_cast<double>(prefix_count),
              static_cast<double>(ip_unknown), static_cast<double>(prefix_unknown)};
  });
}

FeatureVector FeatureExtractor::extract(graph::DomainId d) const {
  return extract_impl(d, /*hide_label=*/false);
}

FeatureVector FeatureExtractor::extract_hiding_label(graph::DomainId d) const {
  return extract_impl(d, /*hide_label=*/true);
}

FeatureVector FeatureExtractor::extract_impl(graph::DomainId d, bool hide_label) const {
  util::require(d < graph_.domain_count(), "FeatureExtractor: domain id out of range");
  FeatureVector features{};

  const bool domain_is_malware = graph_.domain_label(d) == graph::Label::kMalware;

  // --- F1: machine behavior. Every machine in S queries d; when d is (or
  // is treated as) unknown, none of them can be benign-labeled, so each is
  // either known-infected or unknown.
  const auto machines = graph_.machines_of(d);
  std::size_t infected = 0;
  for (const auto m : machines) {
    std::uint32_t malware_degree = machine_malware_degree_[m];
    if (hide_label && domain_is_malware) {
      // Hiding d's label removes it from every querying machine's malware
      // evidence (Figure 5: M1 flips to unknown when d was its only one).
      --malware_degree;
    }
    infected += malware_degree > 0 ? 1 : 0;
  }
  const auto total = machines.size();
  if (total > 0) {
    features[kInfectedFraction] = static_cast<double>(infected) / static_cast<double>(total);
    features[kUnknownFraction] =
        static_cast<double>(total - infected) / static_cast<double>(total);
  }
  features[kTotalMachines] = static_cast<double>(total);

  // --- F2/F3: precomputed at construction.
  const auto& fqdn = f2_[d];
  const auto& e2ld = f2_[graph_.domain_count() + graph_.domain_e2ld(d)];
  features[kFqdnActiveDays] = fqdn[0];
  features[kFqdnConsecutiveDays] = fqdn[1];
  features[kE2ldActiveDays] = e2ld[0];
  features[kE2ldConsecutiveDays] = e2ld[1];
  features[kIpMalwareFraction] = f3_[d][0];
  features[kPrefixMalwareFraction] = f3_[d][1];
  features[kIpUnknownCount] = f3_[d][2];
  features[kPrefixUnknownCount] = f3_[d][3];
  return features;
}

}  // namespace seg::features
