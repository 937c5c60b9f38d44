#include <gtest/gtest.h>

#include <sstream>

#include "core/segugio.h"
#include "features/feature_config.h"
#include "sim/world.h"
#include "util/require.h"

namespace seg::core {
namespace {

class SegugioIoTest : public ::testing::Test {
 protected:
  static sim::World& world() {
    static sim::World instance{sim::ScenarioConfig::small()};
    return instance;
  }

  static graph::MachineDomainGraph prepared_graph(dns::Day day) {
    auto& w = world();
    const auto trace = w.generate_day(0, day);
    return Segugio::prepare_graph(trace, w.psl(),
                                  w.blacklist().as_of(sim::BlacklistKind::kCommercial, day),
                                  w.whitelist().all())
        .graph;
  }
};

TEST_F(SegugioIoTest, ForestModelRoundTrips) {
  SegugioConfig config;
  config.forest.num_trees = 15;
  config.features.activity_window_days = 10;
  config.feature_subset =
      features::feature_indices_excluding(features::FeatureGroup::kIpAbuse);
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());

  std::stringstream blob;
  segugio.save(blob);
  auto restored = Segugio::load(blob);
  EXPECT_TRUE(restored.is_trained());
  EXPECT_EQ(restored.config().features.activity_window_days, 10);
  EXPECT_EQ(restored.config().feature_subset, config.feature_subset);

  // Scores must be identical on a fresh classification day.
  const auto graph2 = prepared_graph(1);
  const auto a = segugio.classify(graph2, world().activity(), world().pdns());
  const auto b = restored.classify(graph2, world().activity(), world().pdns());
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i].name, b.scores[i].name);
    EXPECT_DOUBLE_EQ(a.scores[i].score, b.scores[i].score);
  }
}

TEST_F(SegugioIoTest, HeaderlessModelStreamThrows) {
  // A model stream without its `segf1 segugio-model` header (the
  // pre-header format) is rejected as malformed, whatever its body says.
  SegugioConfig config;
  config.forest.num_trees = 10;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());

  std::stringstream blob;
  segugio.save(blob);
  auto bytes = blob.str();
  bytes = bytes.substr(bytes.find('\n') + 1);  // drop the segf1 header
  const std::string modern_tag = "segugio " + std::to_string(Segugio::kModelFormatVersion);
  ASSERT_EQ(bytes.rfind(modern_tag, 0), 0u);
  std::istringstream headerless(bytes);
  EXPECT_THROW(Segugio::load(headerless), util::ParseError);
  std::istringstream old_body("segugio 1" + bytes.substr(modern_tag.size()));
  EXPECT_THROW(Segugio::load(old_body), util::ParseError);
}

TEST_F(SegugioIoTest, LogisticModelRoundTrips) {
  SegugioConfig config;
  config.classifier = ClassifierKind::kLogisticRegression;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());
  std::stringstream blob;
  segugio.save(blob);
  auto restored = Segugio::load(blob);
  EXPECT_TRUE(restored.is_trained());
  features::FeatureVector probe{};
  probe[features::kTotalMachines] = 3.0;
  EXPECT_NEAR(restored.score(probe), segugio.score(probe), 1e-12);
}

TEST_F(SegugioIoTest, ProberFilterTravelsWithTheModel) {
  SegugioConfig config;
  config.forest.num_trees = 5;
  graph::ProberFilterConfig filter;
  filter.min_blacklisted_domains = 42;
  filter.min_blacklisted_ratio = 0.6;
  config.prober_filter = filter;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());
  std::stringstream blob;
  segugio.save(blob);
  const auto restored = Segugio::load(blob);
  ASSERT_TRUE(restored.config().prober_filter.has_value());
  EXPECT_EQ(restored.config().prober_filter->min_blacklisted_domains, 42u);
  EXPECT_DOUBLE_EQ(restored.config().prober_filter->min_blacklisted_ratio, 0.6);
}

TEST_F(SegugioIoTest, PruningConfigTravelsWithTheModel) {
  SegugioConfig config;
  config.forest.num_trees = 5;
  config.pruning.inactive_machine_max_degree = 7;
  config.pruning.popular_e2ld_fraction = 0.25;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());
  std::stringstream blob;
  segugio.save(blob);
  const auto restored = Segugio::load(blob);
  EXPECT_EQ(restored.config().pruning.inactive_machine_max_degree, 7u);
  EXPECT_DOUBLE_EQ(restored.config().pruning.popular_e2ld_fraction, 0.25);
}

TEST_F(SegugioIoTest, SaveUntrainedThrows) {
  Segugio segugio;
  std::stringstream blob;
  EXPECT_THROW(segugio.save(blob), util::PreconditionError);
}

TEST_F(SegugioIoTest, LoadRejectsGarbage) {
  std::stringstream blob("not a model");
  EXPECT_THROW(Segugio::load(blob), util::ParseError);
  std::stringstream wrong_version("segugio 99\n");
  EXPECT_THROW(Segugio::load(wrong_version), util::ParseError);
}

}  // namespace
}  // namespace seg::core
