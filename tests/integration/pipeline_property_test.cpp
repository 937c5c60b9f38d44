// Cross-module property tests: invariants that must hold for any scenario
// and any configuration, checked on simulator-generated graphs.
#include <gtest/gtest.h>

#include <set>

#include "core/experiment.h"
#include "features/extractor.h"
#include "graph/labeling.h"
#include "graph/pruning.h"
#include "sim/world.h"

namespace seg {
namespace {

sim::World& shared_world() {
  static sim::World world{sim::ScenarioConfig::small()};
  return world;
}

graph::MachineDomainGraph labeled_graph(dns::Day day) {
  auto& world = shared_world();
  const auto trace = world.generate_day(0, day);
  graph::GraphBuilder builder(world.psl());
  builder.add_trace(trace);
  auto graph = builder.build();
  graph::apply_labels(graph, world.blacklist().as_of(sim::BlacklistKind::kCommercial, day),
                      world.whitelist().all());
  return graph;
}

// ---------------------------------------------------------------------------
// Pruning invariants, swept over configurations.
struct PruningCase {
  std::uint32_t inactive_max;
  std::uint32_t min_domain_machines;
  double popular_fraction;
};

class PruningInvariantTest : public ::testing::TestWithParam<PruningCase> {};

TEST_P(PruningInvariantTest, SurvivorsSatisfyTheRules) {
  const auto param = GetParam();
  const auto graph = labeled_graph(0);
  graph::PruningConfig config;
  config.inactive_machine_max_degree = param.inactive_max;
  config.min_domain_machines = param.min_domain_machines;
  config.popular_e2ld_fraction = param.popular_fraction;
  config.proxy_degree_percentile = 0.999;
  graph::PruneStats stats;
  const auto pruned = graph::prune(graph, config, &stats);

  // R1: every surviving machine is either active enough or malware-labeled.
  for (graph::MachineId m = 0; m < pruned.machine_count(); ++m) {
    const bool active = pruned.domains_of(m).size() > param.inactive_max;
    const bool excepted = pruned.machine_label(m) == graph::Label::kMalware;
    // Degrees can only shrink after domain removal, so check against the
    // *original* graph's degree for the same machine.
    const auto original = graph.find_machine(pruned.machine_name(m));
    ASSERT_LT(original, graph.machine_count());
    EXPECT_TRUE(graph.domains_of(original).size() > param.inactive_max || excepted || active)
        << pruned.machine_name(m);
  }

  // R3: surviving non-malware domains had >= min querying machines
  // (measured on surviving machines, i.e. in the pruned graph edges can
  // only have shrunk, so check the original degree).
  for (graph::DomainId d = 0; d < pruned.domain_count(); ++d) {
    if (pruned.domain_label(d) == graph::Label::kMalware) {
      continue;
    }
    const auto original = graph.find_domain(pruned.domain_name(d));
    ASSERT_LT(original, graph.domain_count());
    EXPECT_GE(graph.machines_of(original).size(), param.min_domain_machines)
        << pruned.domain_name(d);
  }

  // Structural: node/edge counts shrink monotonically, stats consistent.
  EXPECT_LE(pruned.machine_count(), graph.machine_count());
  EXPECT_LE(pruned.domain_count(), graph.domain_count());
  EXPECT_LE(pruned.edge_count(), graph.edge_count());
  EXPECT_EQ(stats.machines_after, pruned.machine_count());
  EXPECT_EQ(stats.domains_after, pruned.domain_count());
  EXPECT_EQ(stats.edges_after, pruned.edge_count());

  // Adjacency symmetry in the pruned graph.
  for (graph::MachineId m = 0; m < pruned.machine_count(); ++m) {
    for (const auto d : pruned.domains_of(m)) {
      const auto machines = pruned.machines_of(d);
      EXPECT_NE(std::find(machines.begin(), machines.end(), m), machines.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, PruningInvariantTest,
                         ::testing::Values(PruningCase{5, 2, 1.0 / 3.0},
                                           PruningCase{0, 1, 1.0},
                                           PruningCase{10, 3, 0.25},
                                           PruningCase{3, 2, 0.5}));

// ---------------------------------------------------------------------------
// Feature extraction invariants over every domain of a real graph.
TEST(FeatureInvariantTest, AllDomainsProduceSaneFeatures) {
  auto& world = shared_world();
  const auto labeled = labeled_graph(1);
  const auto graph = graph::prune(labeled, graph::PruningConfig{});
  const features::FeatureExtractor extractor(graph, world.activity(), world.pdns());
  const auto n = static_cast<dns::Day>(extractor.config().activity_window_days);
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    const auto f = extractor.extract(d);
    EXPECT_GE(f[features::kInfectedFraction], 0.0);
    EXPECT_LE(f[features::kInfectedFraction], 1.0);
    EXPECT_GE(f[features::kUnknownFraction], 0.0);
    EXPECT_LE(f[features::kUnknownFraction], 1.0);
    EXPECT_NEAR(f[features::kInfectedFraction] + f[features::kUnknownFraction],
                f[features::kTotalMachines] > 0 ? 1.0 : 0.0, 1e-9);
    EXPECT_EQ(f[features::kTotalMachines],
              static_cast<double>(graph.machines_of(d).size()));
    EXPECT_GE(f[features::kFqdnActiveDays], 0.0);
    EXPECT_LE(f[features::kFqdnActiveDays], static_cast<double>(n));
    EXPECT_LE(f[features::kE2ldActiveDays], static_cast<double>(n));
    EXPECT_GE(f[features::kIpMalwareFraction], 0.0);
    EXPECT_LE(f[features::kIpMalwareFraction], 1.0);
    EXPECT_LE(f[features::kPrefixMalwareFraction], 1.0);
    // FQDN activity cannot exceed its e2LD's (every FQDN query marks both).
    EXPECT_LE(f[features::kFqdnActiveDays], f[features::kE2ldActiveDays] + 1e-9);
  }
}

TEST(FeatureInvariantTest, HidingALabelNeverRaisesTheInfectedFraction) {
  auto& world = shared_world();
  const auto labeled = labeled_graph(2);
  const auto graph = graph::prune(labeled, graph::PruningConfig{});
  const features::FeatureExtractor extractor(graph, world.activity(), world.pdns());
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    if (graph.domain_label(d) == graph::Label::kUnknown) {
      continue;
    }
    const auto with = extractor.extract(d);
    const auto hidden = extractor.extract_hiding_label(d);
    EXPECT_LE(hidden[features::kInfectedFraction],
              with[features::kInfectedFraction] + 1e-12)
        << graph.domain_name(d);
    // Hiding only changes F1; the other groups are label-independent.
    for (std::size_t i = features::kFqdnActiveDays; i < features::kNumFeatures; ++i) {
      EXPECT_DOUBLE_EQ(hidden[i], with[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-day observation windows.
TEST(MultiDayWindowTest, GraphUnionsEdgesAndUsesLatestDay) {
  auto& world = shared_world();
  const auto day3 = world.generate_day(0, 3);
  const auto day4 = world.generate_day(0, 4);

  graph::GraphBuilder single(world.psl());
  single.add_trace(day4);
  const auto single_graph = single.build();

  graph::GraphBuilder window(world.psl());
  window.add_trace(day3);
  window.add_trace(day4);
  const auto window_graph = window.build();

  EXPECT_EQ(window_graph.day(), 4);
  EXPECT_GE(window_graph.edge_count(), single_graph.edge_count());
  EXPECT_GE(window_graph.domain_count(), single_graph.domain_count());

  // Order of addition must not matter for the day stamp.
  graph::GraphBuilder reversed(world.psl());
  reversed.add_trace(day4);
  reversed.add_trace(day3);
  EXPECT_EQ(reversed.build().day(), 4);
}

// ---------------------------------------------------------------------------
// Evaluation protocol invariants.
class TestFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(TestFractionSweep, SelectionScalesWithFraction) {
  auto& world = shared_world();
  const auto t1 = world.generate_day(0, 5);
  const auto t2 = world.generate_day(0, 6);
  core::ExperimentInputs inputs;
  inputs.train_trace = &t1;
  inputs.test_trace = &t2;
  inputs.psl = &world.psl();
  inputs.activity = &world.activity();
  inputs.pdns = &world.pdns();
  inputs.train_blacklist = world.blacklist().as_of(sim::BlacklistKind::kCommercial, 5);
  inputs.test_blacklist = world.blacklist().as_of(sim::BlacklistKind::kCommercial, 6);
  inputs.whitelist = world.whitelist().all();

  core::SegugioConfig config;
  config.forest.num_trees = 10;
  core::CrossDayOptions options;
  options.test_fraction = GetParam();
  const auto result = core::run_cross_day(inputs, config, options);
  EXPECT_GT(result.outcomes.size(), 0u);

  // All outcome names are unique.
  std::set<std::string> names;
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(names.insert(outcome.name).second) << outcome.name;
    EXPECT_TRUE(outcome.label == 0 || outcome.label == 1);
    EXPECT_GE(outcome.score, 0.0);
    EXPECT_LE(outcome.score, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, TestFractionSweep, ::testing::Values(0.2, 0.5, 0.8));

}  // namespace
}  // namespace seg
