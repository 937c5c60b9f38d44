#include "core/diagnostics.h"

#include <gtest/gtest.h>

#include "features/feature_config.h"
#include "sim/world.h"
#include "util/require.h"

namespace seg::core {
namespace {

sim::World& test_world() {
  static sim::World world{sim::ScenarioConfig::small()};
  return world;
}

Segugio trained_detector(SegugioConfig config) {
  auto& w = test_world();
  const auto trace = w.generate_day(0, 0);
  const auto graph = Segugio::prepare_graph(
                         trace, w.psl(),
                         w.blacklist().as_of(sim::BlacklistKind::kCommercial, 0),
                         w.whitelist().all())
                         .graph;
  Segugio segugio(std::move(config));
  segugio.train(graph, w.activity(), w.pdns());
  return segugio;
}

TEST(DiagnosticsTest, ForestModelCardListsAllFeaturesWithImportances) {
  SegugioConfig config;
  config.forest.num_trees = 10;
  const auto segugio = trained_detector(std::move(config));
  const auto card = describe_model(segugio);
  EXPECT_NE(card.find("random forest"), std::string::npos);
  EXPECT_NE(card.find("importance"), std::string::npos);
  for (const auto& name : features::feature_names()) {
    EXPECT_NE(card.find(name), std::string::npos) << name;
  }
  EXPECT_NE(card.find("activity window: 14 days"), std::string::npos);
}

TEST(DiagnosticsTest, SubsetModelCardListsOnlyActiveFeatures) {
  SegugioConfig config;
  config.forest.num_trees = 10;
  config.feature_subset =
      features::feature_indices_for({features::FeatureGroup::kMachineBehavior});
  const auto segugio = trained_detector(std::move(config));
  const auto card = describe_model(segugio);
  EXPECT_NE(card.find("f1_infected_fraction"), std::string::npos);
  EXPECT_EQ(card.find("f3_ip_malware_fraction"), std::string::npos);
}

TEST(DiagnosticsTest, LogisticModelCardHasNoImportances) {
  SegugioConfig config;
  config.classifier = ClassifierKind::kLogisticRegression;
  const auto segugio = trained_detector(std::move(config));
  const auto card = describe_model(segugio);
  EXPECT_NE(card.find("logistic regression"), std::string::npos);
  EXPECT_EQ(card.find("importance"), std::string::npos);
}

TEST(DiagnosticsTest, RequiresTrainedModel) {
  Segugio untrained;
  EXPECT_THROW(describe_model(untrained), util::PreconditionError);
}

}  // namespace
}  // namespace seg::core
