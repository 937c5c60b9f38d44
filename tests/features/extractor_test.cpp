#include "features/extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/labeling.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/rng.h"

namespace seg::features {
namespace {

using graph::GraphBuilder;
using graph::Label;
using graph::NameSet;

// A view borrows its graph's storage, so binding one to a temporary graph
// must not compile (it would dangle at the end of the full expression).
static_assert(std::is_constructible_v<graph::GraphView, const graph::MachineDomainGraph&>);
static_assert(!std::is_constructible_v<graph::GraphView, graph::MachineDomainGraph&&>);
static_assert(!std::is_constructible_v<graph::GraphView, graph::MachineDomainGraph>);

class ExtractorTest : public ::testing::Test {
 protected:
  dns::PublicSuffixList psl_ = dns::PublicSuffixList::with_default_rules();
  dns::DomainActivityIndex activity_;
  dns::PassiveDnsDb pdns_;

  // The running example of Figures 4/5: domain "target.net" queried by a
  // mixture of infected and unknown machines. Graph day is 100.
  graph::MachineDomainGraph make_graph() {
    dns::DayTrace trace;
    trace.day = 100;
    const auto add = [&trace](const char* machine, const char* qname,
                              std::initializer_list<const char*> ips = {}) {
      dns::QueryRecord record;
      record.day = 100;
      record.machine = machine;
      record.qname = qname;
      for (const auto* ip : ips) {
        record.resolved_ips.push_back(dns::IpV4::parse(ip));
      }
      trace.records.push_back(std::move(record));
    };
    // Known C&C domains cc1/cc2; infected machines i1, i2, i3.
    add("i1", "cc1.evil.biz");
    add("i2", "cc1.evil.biz");
    add("i2", "cc2.evil.biz");
    add("i3", "cc2.evil.biz");
    // The to-be-classified domain, queried by i1, i2 and unknown u1.
    add("i1", "target.net", {"6.6.6.1", "6.6.6.2"});
    add("i2", "target.net", {"6.6.6.1"});
    add("u1", "target.net", {"6.6.6.2"});
    // u1 also queries an unknown domain; benign machine b1.
    add("u1", "other.org");
    add("b1", "www.good.com");
    GraphBuilder builder(psl_);
    builder.add_trace(trace);
    auto graph = builder.build();
    NameSet blacklist;
    blacklist.insert("cc1.evil.biz");
    blacklist.insert("cc2.evil.biz");
    NameSet whitelist;
    whitelist.insert("good.com");
    apply_labels(graph, blacklist, whitelist);
    return graph;
  }
};

TEST_F(ExtractorTest, MachineBehaviorFractionsForUnknownDomain) {
  const auto graph = make_graph();
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto target = graph.find_domain("target.net");
  const auto features = extractor.extract(target);
  // S = {i1, i2, u1}; I = {i1, i2}; U = {u1}.
  EXPECT_DOUBLE_EQ(features[kInfectedFraction], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(features[kUnknownFraction], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(features[kTotalMachines], 3.0);
}

TEST_F(ExtractorTest, FractionsSumToOne) {
  const auto graph = make_graph();
  FeatureExtractor extractor(graph, activity_, pdns_);
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    const auto features = extractor.extract(d);
    EXPECT_NEAR(features[kInfectedFraction] + features[kUnknownFraction], 1.0, 1e-12)
        << graph.domain_name(d);
  }
}

TEST_F(ExtractorTest, HidingLabelDemotesSingleEvidenceMachines) {
  const auto graph = make_graph();
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto cc1 = graph.find_domain("cc1.evil.biz");
  // cc1 is queried by i1 (whose only other malware domain is none: i1
  // queries cc1 only) and i2 (also queries cc2). Hiding cc1: i1 -> unknown,
  // i2 stays malware.
  const auto features = extractor.extract_hiding_label(cc1);
  EXPECT_DOUBLE_EQ(features[kInfectedFraction], 0.5);
  EXPECT_DOUBLE_EQ(features[kUnknownFraction], 0.5);
  EXPECT_DOUBLE_EQ(features[kTotalMachines], 2.0);
}

TEST_F(ExtractorTest, WithoutHidingKnownMalwareDomainLooksFullyInfected) {
  // Sanity check of the paper's motivation for hiding: without it, the
  // first F1 feature of a known malware domain is trivially 1.
  const auto graph = make_graph();
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto cc1 = graph.find_domain("cc1.evil.biz");
  const auto features = extractor.extract(cc1);
  EXPECT_DOUBLE_EQ(features[kInfectedFraction], 1.0);
  EXPECT_DOUBLE_EQ(features[kUnknownFraction], 0.0);
}

TEST_F(ExtractorTest, HidingBenignLabelDoesNotChangeInfectionCounts) {
  const auto graph = make_graph();
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto good = graph.find_domain("www.good.com");
  const auto features = extractor.extract_hiding_label(good);
  // b1 is benign; with good.com hidden b1 becomes unknown, not infected.
  EXPECT_DOUBLE_EQ(features[kInfectedFraction], 0.0);
  EXPECT_DOUBLE_EQ(features[kUnknownFraction], 1.0);
  EXPECT_DOUBLE_EQ(features[kTotalMachines], 1.0);
}

TEST_F(ExtractorTest, DomainActivityFeatures) {
  const auto graph = make_graph();
  // target.net active on days 98, 99, 100 (3 consecutive); its e2LD
  // target.net identical here. Another name active long ago.
  for (dns::Day day : {98, 99, 100}) {
    activity_.mark_active("target.net", day);
  }
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto target = graph.find_domain("target.net");
  const auto features = extractor.extract(target);
  EXPECT_DOUBLE_EQ(features[kFqdnActiveDays], 3.0);
  EXPECT_DOUBLE_EQ(features[kFqdnConsecutiveDays], 3.0);
  EXPECT_DOUBLE_EQ(features[kE2ldActiveDays], 3.0);
  EXPECT_DOUBLE_EQ(features[kE2ldConsecutiveDays], 3.0);
}

TEST_F(ExtractorTest, ActivityWindowIsBounded) {
  const auto graph = make_graph();
  // Active every day from day 1 to day 100: window of n=14 caps the count.
  for (dns::Day day = 1; day <= 100; ++day) {
    activity_.mark_active("target.net", day);
  }
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto features = extractor.extract(graph.find_domain("target.net"));
  EXPECT_DOUBLE_EQ(features[kFqdnActiveDays], 14.0);
  // Consecutive-days feature is not windowed by n; it reflects the streak.
  EXPECT_DOUBLE_EQ(features[kFqdnConsecutiveDays], 100.0);
}

TEST_F(ExtractorTest, E2ldActivityAggregatesSubdomains) {
  dns::DayTrace trace;
  trace.day = 50;
  trace.records.push_back({50, "m1", "a.zone.org", {}});
  trace.records.push_back({50, "m2", "a.zone.org", {}});
  GraphBuilder builder(psl_);
  builder.add_trace(trace);
  auto graph = builder.build();
  apply_labels(graph, NameSet{}, NameSet{});
  // The FQDN was active only on day 50, but sibling subdomains kept the
  // e2LD active on 48 and 49 too.
  activity_.mark_active("a.zone.org", 50);
  activity_.mark_active("zone.org", 48);
  activity_.mark_active("zone.org", 49);
  activity_.mark_active("zone.org", 50);
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto features = extractor.extract(graph.find_domain("a.zone.org"));
  EXPECT_DOUBLE_EQ(features[kFqdnActiveDays], 1.0);
  EXPECT_DOUBLE_EQ(features[kE2ldActiveDays], 3.0);
  EXPECT_DOUBLE_EQ(features[kE2ldConsecutiveDays], 3.0);
}

TEST_F(ExtractorTest, IpAbuseFeatures) {
  const auto graph = make_graph();
  // 6.6.6.1 was pointed to by a malware domain 10 days before the graph
  // day; 6.6.6.2 only by unknown domains. Both share the /24 6.6.6.0.
  pdns_.add_observation(90, dns::IpV4::parse("6.6.6.1"), dns::PdnsAssociation::kMalware);
  pdns_.add_observation(95, dns::IpV4::parse("6.6.6.2"), dns::PdnsAssociation::kUnknown);
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto features = extractor.extract(graph.find_domain("target.net"));
  // A = {6.6.6.1, 6.6.6.2}: one of two IPs malware-associated.
  EXPECT_DOUBLE_EQ(features[kIpMalwareFraction], 0.5);
  // Single /24, and it is malware-associated.
  EXPECT_DOUBLE_EQ(features[kPrefixMalwareFraction], 1.0);
  EXPECT_DOUBLE_EQ(features[kIpUnknownCount], 1.0);
  EXPECT_DOUBLE_EQ(features[kPrefixUnknownCount], 1.0);
}

TEST_F(ExtractorTest, PdnsWindowExcludesObservationsOnGraphDayAndOlderThanW) {
  const auto graph = make_graph();  // day 100, W = 150 -> window [-50, 99]
  pdns_.add_observation(100, dns::IpV4::parse("6.6.6.1"),
                        dns::PdnsAssociation::kMalware);  // same-day: excluded
  pdns_.add_observation(-60, dns::IpV4::parse("6.6.6.2"),
                        dns::PdnsAssociation::kMalware);  // too old: excluded
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto features = extractor.extract(graph.find_domain("target.net"));
  EXPECT_DOUBLE_EQ(features[kIpMalwareFraction], 0.0);
  EXPECT_DOUBLE_EQ(features[kPrefixMalwareFraction], 0.0);
}

TEST_F(ExtractorTest, DomainWithoutResolvedIpsHasZeroIpFeatures) {
  const auto graph = make_graph();
  FeatureExtractor extractor(graph, activity_, pdns_);
  const auto other = graph.find_domain("other.org");
  const auto features = extractor.extract(other);
  EXPECT_DOUBLE_EQ(features[kIpMalwareFraction], 0.0);
  EXPECT_DOUBLE_EQ(features[kPrefixMalwareFraction], 0.0);
  EXPECT_DOUBLE_EQ(features[kIpUnknownCount], 0.0);
  EXPECT_DOUBLE_EQ(features[kPrefixUnknownCount], 0.0);
}

TEST_F(ExtractorTest, InvalidConfigurationThrows) {
  const auto graph = make_graph();
  FeatureConfig config;
  config.activity_window_days = 0;
  EXPECT_THROW(FeatureExtractor(graph, activity_, pdns_, config), util::PreconditionError);
  config = FeatureConfig{};
  config.pdns_window_days = -1;
  EXPECT_THROW(FeatureExtractor(graph, activity_, pdns_, config), util::PreconditionError);
}

TEST_F(ExtractorTest, DomainIdOutOfRangeThrows) {
  const auto graph = make_graph();
  FeatureExtractor extractor(graph, activity_, pdns_);
  EXPECT_THROW(extractor.extract(static_cast<graph::DomainId>(graph.domain_count())),
               util::PreconditionError);
}

// F2/F3 straight from the stores, one name or IP at a time: the
// definition the extractor's parallel precompute must reproduce exactly.
FeatureVector history_by_lookup(const graph::MachineDomainGraph& graph, graph::DomainId d,
                                const dns::DomainActivityIndex& activity,
                                const dns::PassiveDnsDb& pdns, const FeatureConfig& config) {
  FeatureVector features{};
  const dns::Day t_now = graph.day();
  const dns::Day from = t_now - config.activity_window_days + 1;
  const auto fqdn = graph.domain_name(d);
  const auto e2ld = graph.e2ld_name(graph.domain_e2ld(d));
  features[kFqdnActiveDays] = activity.active_days(fqdn, from, t_now);
  features[kFqdnConsecutiveDays] = activity.consecutive_days_ending(fqdn, t_now);
  features[kE2ldActiveDays] = activity.active_days(e2ld, from, t_now);
  features[kE2ldConsecutiveDays] = activity.consecutive_days_ending(e2ld, t_now);

  const dns::Day w_from = t_now - config.pdns_window_days;
  const dns::Day w_to = t_now - 1;
  const auto ips = graph.resolved_ips(d);
  if (ips.empty()) {
    return features;
  }
  std::size_t ip_malware = 0;
  std::size_t ip_unknown = 0;
  std::vector<std::uint32_t> prefixes;
  for (const auto ip : ips) {
    ip_malware += pdns.ip_malware_associated(ip, w_from, w_to) ? 1 : 0;
    ip_unknown += pdns.ip_unknown_associated(ip, w_from, w_to) ? 1 : 0;
    prefixes.push_back(ip.prefix24());
  }
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  std::size_t prefix_malware = 0;
  std::size_t prefix_unknown = 0;
  for (const auto prefix : prefixes) {
    const dns::IpV4 representative(prefix);
    prefix_malware += pdns.prefix_malware_associated(representative, w_from, w_to) ? 1 : 0;
    prefix_unknown += pdns.prefix_unknown_associated(representative, w_from, w_to) ? 1 : 0;
  }
  features[kIpMalwareFraction] =
      static_cast<double>(ip_malware) / static_cast<double>(ips.size());
  features[kPrefixMalwareFraction] =
      static_cast<double>(prefix_malware) / static_cast<double>(prefixes.size());
  features[kIpUnknownCount] = static_cast<double>(ip_unknown);
  features[kPrefixUnknownCount] = static_cast<double>(prefix_unknown);
  return features;
}

TEST(ExtractorHistoryParityTest, MatchesPerNameStoreLookupsAtOneAndFourThreads) {
  const auto psl = dns::PublicSuffixList::with_default_rules();
  util::Rng rng(23);
  constexpr dns::Day kDay = 60;
  // IPs drawn from a handful of /24s so prefix flags aggregate siblings.
  const auto random_ip = [&rng] {
    const auto prefix = static_cast<std::uint32_t>(rng.next_below(6)) << 8;
    return dns::IpV4((0x0A000000u | prefix) | static_cast<std::uint32_t>(rng.next_below(8)));
  };
  std::vector<std::string> domains;
  for (int i = 0; i < 120; ++i) {
    domains.push_back("h" + std::to_string(i) + ".zone" + std::to_string(i % 15) + ".com");
  }

  dns::DayTrace trace;
  trace.day = kDay;
  for (int i = 0; i < 1500; ++i) {
    dns::QueryRecord record;
    record.day = kDay;
    record.machine = "m" + std::to_string(rng.next_below(80));
    record.qname = domains[rng.next_below(domains.size())];
    for (std::uint64_t k = rng.next_below(4); k > 0; --k) {
      record.resolved_ips.push_back(random_ip());
    }
    trace.records.push_back(std::move(record));
  }
  GraphBuilder builder(psl);
  builder.add_trace(trace);
  auto graph = builder.build();
  NameSet blacklist;
  NameSet whitelist;
  for (int i = 0; i < 120; i += 9) {
    blacklist.insert(domains[static_cast<std::size_t>(i)]);
  }
  whitelist.insert("zone3.com");
  apply_labels(graph, blacklist, whitelist);

  dns::DomainActivityIndex activity;
  dns::PassiveDnsDb pdns;
  constexpr dns::PdnsAssociation kKinds[] = {dns::PdnsAssociation::kMalware,
                                             dns::PdnsAssociation::kUnknown,
                                             dns::PdnsAssociation::kBenign};
  for (int i = 0; i < 3000; ++i) {
    const auto& name = domains[rng.next_below(domains.size())];
    const auto day = static_cast<dns::Day>(rng.next_int(kDay - 25, kDay + 2));
    activity.mark_active(name, day);
    activity.mark_active(name.substr(name.find('.') + 1), day);
    pdns.add_observation(static_cast<dns::Day>(rng.next_int(kDay - 200, kDay + 2)),
                         random_ip(), kKinds[rng.next_below(3)]);
  }

  const FeatureConfig config;
  std::vector<FeatureVector> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::set_parallelism(threads);
    const FeatureExtractor extractor(graph, activity, pdns, config);
    for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
      const auto expected = history_by_lookup(graph, d, activity, pdns, config);
      const auto features = extractor.extract(d);
      const auto hidden = extractor.extract_hiding_label(d);
      for (std::size_t f = kFqdnActiveDays; f < kNumFeatures; ++f) {
        EXPECT_EQ(features[f], expected[f]) << graph.domain_name(d) << " feature " << f;
        EXPECT_EQ(hidden[f], expected[f]) << graph.domain_name(d) << " feature " << f;
      }
      if (threads == 1) {
        reference.push_back(features);
      } else {
        EXPECT_EQ(features, reference[d]) << graph.domain_name(d);
      }
    }
  }
  util::set_parallelism(0);
  // The workload must exercise every history feature, not just zeros.
  ASSERT_EQ(reference.size(), graph.domain_count());
  for (std::size_t f = kFqdnActiveDays; f < kNumFeatures; ++f) {
    EXPECT_TRUE(std::any_of(reference.begin(), reference.end(),
                            [f](const FeatureVector& v) { return v[f] != 0.0; }))
        << "feature " << f << " is zero for every domain";
  }
}

}  // namespace
}  // namespace seg::features
