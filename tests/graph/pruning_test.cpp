#include "graph/pruning.h"

#include <gtest/gtest.h>

#include <string>

#include "graph/labeling.h"
#include "util/require.h"

namespace seg::graph {
namespace {

class PruningTest : public ::testing::Test {
 protected:
  dns::PublicSuffixList psl_ = dns::PublicSuffixList::with_default_rules();

  // Gives machine `name` exactly `n` distinct domain queries in a private
  // namespace so degrees are controlled precisely. Domains are shared with
  // one partner machine ("peer-<name>") so R3 does not remove them.
  void add_active_machine(GraphBuilder& builder, const std::string& name, int n) {
    for (int i = 0; i < n; ++i) {
      const auto domain = name + "-d" + std::to_string(i) + ".com";
      builder.add_query(name, domain, {});
      builder.add_query("peer-" + name, domain, {});
    }
  }
};

TEST_F(PruningTest, R1RemovesInactiveMachines) {
  GraphBuilder builder(psl_);
  add_active_machine(builder, "active", 10);   // degree 10, survives
  add_active_machine(builder, "lazy", 3);      // degree 3 <= 5, pruned
  auto graph = builder.build();
  PruneStats stats;
  const auto pruned = prune(graph, PruningConfig{}, &stats);

  EXPECT_EQ(pruned.find_machine("lazy"), pruned.machine_count());  // gone
  EXPECT_LT(pruned.find_machine("active"), pruned.machine_count());
  EXPECT_GE(stats.machines_removed_r1, 1u);
}

TEST_F(PruningTest, R1ExceptionKeepsMalwareLabeledMachines) {
  GraphBuilder builder(psl_);
  add_active_machine(builder, "active", 10);
  // Infected machine querying only 2 domains, one of them a C&C name.
  builder.add_query("infected", "cc.evil.biz", {});
  builder.add_query("infected", "cc2.evil.biz", {});
  builder.add_query("otherinfected", "cc.evil.biz", {});  // keeps cc.evil.biz degree >= 2
  builder.add_query("otherinfected", "cc2.evil.biz", {});
  auto graph = builder.build();
  NameSet blacklist;
  blacklist.insert("cc.evil.biz");
  apply_labels(graph, blacklist, NameSet{});

  PruneStats stats;
  const auto pruned = prune(graph, PruningConfig{}, &stats);
  EXPECT_LT(pruned.find_machine("infected"), pruned.machine_count());
  EXPECT_GE(stats.malware_machines_kept_by_exception, 1u);
}

TEST_F(PruningTest, R2RemovesProxyLikeMachines) {
  GraphBuilder builder(psl_);
  // 200 ordinary machines with degree 10, one proxy with degree 500.
  for (int m = 0; m < 200; ++m) {
    const auto name = "m" + std::to_string(m);
    for (int d = 0; d < 10; ++d) {
      builder.add_query(name, "shared" + std::to_string((m * 7 + d) % 100) + ".com", {});
    }
  }
  for (int d = 0; d < 500; ++d) {
    builder.add_query("proxy", "proxied" + std::to_string(d) + ".com", {});
  }
  auto graph = builder.build();
  PruningConfig config;
  config.proxy_degree_percentile = 0.99;  // with 201 machines, theta_d = 10
  PruneStats stats;
  const auto pruned = prune(graph, config, &stats);
  EXPECT_EQ(pruned.find_machine("proxy"), pruned.machine_count());
  EXPECT_EQ(stats.machines_removed_r2, 1u);
  EXPECT_EQ(stats.theta_d, 10u);
  // Ordinary machines survive.
  EXPECT_LT(pruned.find_machine("m1"), pruned.machine_count());
}

TEST_F(PruningTest, R2IsANoOpOnFlatDegreeDistributions) {
  GraphBuilder builder(psl_);
  add_active_machine(builder, "a", 10);
  add_active_machine(builder, "b", 10);
  PruneStats stats;
  const auto built = builder.build();
  const auto pruned = prune(built, PruningConfig{}, &stats);
  EXPECT_EQ(stats.machines_removed_r2, 0u);
  EXPECT_LT(pruned.find_machine("a"), pruned.machine_count());
}

TEST_F(PruningTest, R3RemovesSingleMachineDomains) {
  GraphBuilder builder(psl_);
  add_active_machine(builder, "a", 10);
  add_active_machine(builder, "b", 10);
  builder.add_query("a", "lonely.com", {});  // queried by a single machine
  auto graph = builder.build();
  PruneStats stats;
  const auto pruned = prune(graph, PruningConfig{}, &stats);
  EXPECT_EQ(pruned.find_domain("lonely.com"), pruned.domain_count());
  EXPECT_GE(stats.domains_removed_r3, 1u);
}

TEST_F(PruningTest, R3ExceptionKeepsMalwareDomains) {
  GraphBuilder builder(psl_);
  // Enough machines that theta_m (1/3 of machines) stays above the degree
  // of ordinary two-machine domains.
  for (int i = 0; i < 5; ++i) {
    add_active_machine(builder, "a" + std::to_string(i), 10);
  }
  builder.add_query("a0", "cc.evil.biz", {});  // single-machine malware domain
  auto graph = builder.build();
  NameSet blacklist;
  blacklist.insert("cc.evil.biz");
  apply_labels(graph, blacklist, NameSet{});
  PruneStats stats;
  const auto pruned = prune(graph, PruningConfig{}, &stats);
  EXPECT_LT(pruned.find_domain("cc.evil.biz"), pruned.domain_count());
  EXPECT_EQ(stats.malware_domains_kept_by_exception, 1u);
}

TEST_F(PruningTest, R4RemovesVeryPopularE2lds) {
  GraphBuilder builder(psl_);
  // 30 machines; everybody queries popular.com (and its www), so its e2LD
  // reaches 100% > 1/3 of machines. Fillers are spread so each is queried
  // by exactly 4 machines, below theta_m = ceil(30/3) = 10.
  for (int m = 0; m < 30; ++m) {
    const auto name = "m" + std::to_string(m);
    builder.add_query(name, "www.popular.com", {});
    builder.add_query(name, "popular.com", {});
    for (int d = 0; d < 8; ++d) {
      builder.add_query(name, "filler" + std::to_string((m * 8 + d) % 60) + ".net", {});
    }
  }
  auto graph = builder.build();
  PruneStats stats;
  const auto pruned = prune(graph, PruningConfig{}, &stats);
  EXPECT_EQ(pruned.find_domain("www.popular.com"), pruned.domain_count());
  EXPECT_EQ(pruned.find_domain("popular.com"), pruned.domain_count());
  EXPECT_EQ(stats.domains_removed_r4, 2u);
  EXPECT_EQ(stats.theta_m, 10u);
  EXPECT_GT(pruned.domain_count(), 0u);  // fillers survive
}

TEST_F(PruningTest, R4CountsDistinctMachinesAcrossE2ldSubdomains) {
  GraphBuilder builder(psl_);
  // Each machine queries a *different* subdomain of big.com; individually
  // each FQDN has 1-2 machines but the e2LD aggregates all of them.
  constexpr int kMachines = 12;
  for (int m = 0; m < kMachines; ++m) {
    const auto name = "m" + std::to_string(m);
    builder.add_query(name, "sub" + std::to_string(m) + ".big.com", {});
    builder.add_query(name, "sub" + std::to_string((m + 1) % kMachines) + ".big.com", {});
    // Each filler is queried by exactly 2 machines: above the R3 minimum,
    // far below theta_m = ceil(12/3) = 4.
    for (int d = 0; d < 8; ++d) {
      builder.add_query(name, "filler" + std::to_string((m * 8 + d) % 48) + ".net", {});
    }
  }
  auto graph = builder.build();
  PruneStats stats;
  const auto pruned = prune(graph, PruningConfig{}, &stats);
  // big.com e2LD is queried by all 12 machines >= ceil(12/3)=4 -> removed.
  EXPECT_EQ(stats.domains_removed_r4, static_cast<std::size_t>(kMachines));
  for (int m = 0; m < kMachines; ++m) {
    EXPECT_EQ(pruned.find_domain("sub" + std::to_string(m) + ".big.com"),
              pruned.domain_count());
  }
}

TEST_F(PruningTest, StatsReductionsAreConsistent) {
  GraphBuilder builder(psl_);
  add_active_machine(builder, "a", 10);
  add_active_machine(builder, "b", 10);
  builder.add_query("lazy", "a-d0.com", {});
  auto graph = builder.build();
  PruneStats stats;
  const auto pruned = prune(graph, PruningConfig{}, &stats);
  EXPECT_EQ(stats.machines_before, graph.machine_count());
  EXPECT_EQ(stats.machines_after, pruned.machine_count());
  EXPECT_EQ(stats.domains_before, graph.domain_count());
  EXPECT_EQ(stats.domains_after, pruned.domain_count());
  EXPECT_EQ(stats.edges_before, graph.edge_count());
  EXPECT_EQ(stats.edges_after, pruned.edge_count());
  EXPECT_GE(stats.machine_reduction(), 0.0);
  EXPECT_LE(stats.machine_reduction(), 1.0);
}

TEST_F(PruningTest, LabelsAndAnnotationsSurvivePruning) {
  GraphBuilder builder(psl_);
  add_active_machine(builder, "a", 10);
  for (int i = 0; i < 5; ++i) {
    add_active_machine(builder, "x" + std::to_string(i), 10);  // keep theta_m high
  }
  builder.add_query("a", "keep.evil.biz", std::vector<dns::IpV4>{dns::IpV4::parse("6.6.6.6")});
  builder.add_query("peer-a", "keep.evil.biz", {});
  auto graph = builder.build();
  NameSet blacklist;
  blacklist.insert("keep.evil.biz");
  apply_labels(graph, blacklist, NameSet{});

  const auto pruned = prune(graph, PruningConfig{});
  const auto d = pruned.find_domain("keep.evil.biz");
  ASSERT_LT(d, pruned.domain_count());
  EXPECT_EQ(pruned.domain_label(d), Label::kMalware);
  ASSERT_EQ(pruned.resolved_ips(d).size(), 1u);
  EXPECT_EQ(pruned.resolved_ips(d)[0], dns::IpV4::parse("6.6.6.6"));
  EXPECT_EQ(pruned.e2ld_name(pruned.domain_e2ld(d)), "evil.biz");
  // machine labels carried over
  const auto a = pruned.find_machine("a");
  ASSERT_LT(a, pruned.machine_count());
  EXPECT_EQ(pruned.machine_label(a), Label::kMalware);
}

TEST_F(PruningTest, PrunedGraphAdjacencyIsConsistent) {
  GraphBuilder builder(psl_);
  for (int m = 0; m < 30; ++m) {
    const auto name = "m" + std::to_string(m);
    for (int d = 0; d < 10; ++d) {
      builder.add_query(name, "dom" + std::to_string((m * 3 + d) % 40) + ".com", {});
    }
  }
  auto graph = builder.build();
  const auto pruned = prune(graph, PruningConfig{});
  std::size_t from_machines = 0;
  for (MachineId m = 0; m < pruned.machine_count(); ++m) {
    for (const auto d : pruned.domains_of(m)) {
      ASSERT_LT(d, pruned.domain_count());
      const auto machines = pruned.machines_of(d);
      EXPECT_NE(std::find(machines.begin(), machines.end(), m), machines.end());
    }
    from_machines += pruned.domains_of(m).size();
  }
  EXPECT_EQ(from_machines, pruned.edge_count());
}

TEST_F(PruningTest, InvalidConfigThrows) {
  GraphBuilder builder(psl_);
  builder.add_query("m1", "a.com", {});
  const auto graph = builder.build();
  PruningConfig bad;
  bad.proxy_degree_percentile = 0.0;
  EXPECT_THROW(prune(graph, bad), util::PreconditionError);
  bad = PruningConfig{};
  bad.popular_e2ld_fraction = 1.5;
  EXPECT_THROW(prune(graph, bad), util::PreconditionError);
}

TEST_F(PruningTest, EmptyGraphPrunesToEmpty) {
  GraphBuilder builder(psl_);
  const auto graph = builder.build();
  PruneStats stats;
  const auto pruned = prune(graph, PruningConfig{}, &stats);
  EXPECT_EQ(pruned.machine_count(), 0u);
  EXPECT_EQ(pruned.domain_count(), 0u);
  EXPECT_EQ(stats.machines_removed_r1, 0u);
}

}  // namespace
}  // namespace seg::graph
