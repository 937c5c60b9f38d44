#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

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

  // The saved bytes of a small trained forest model, one string per line.
  static std::vector<std::string> model_lines() {
    static const std::string bytes = [] {
      SegugioConfig config;
      config.forest.num_trees = 4;
      Segugio segugio(config);
      const auto graph = prepared_graph(0);
      segugio.train(graph, world().activity(), world().pdns());
      std::stringstream blob;
      segugio.save(blob);
      return blob.str();
    }();
    std::vector<std::string> lines;
    std::istringstream in(bytes);
    for (std::string line; std::getline(in, line);) {
      lines.push_back(line);
    }
    return lines;
  }

  // Index of the first `tree F N` header line.
  static std::size_t first_tree(const std::vector<std::string>& lines) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind("tree ", 0) == 0) {
        return i;
      }
    }
    ADD_FAILURE() << "model has no tree";
    return 0;
  }

  // Rewrites the first internal node of the first tree with `edit`, which
  // gets the node's six fields and its index within the tree.
  static std::string with_first_split(
      const std::function<void(std::vector<std::string>&, std::size_t)>& edit) {
    auto lines = model_lines();
    const auto header = first_tree(lines);
    for (std::size_t i = header + 1; i < lines.size(); ++i) {
      std::istringstream node_line(lines[i]);
      std::vector<std::string> fields;
      for (std::string field; node_line >> field;) {
        fields.push_back(field);
      }
      if (fields.size() == 6 && fields[0] != "-1") {
        edit(fields, i - header - 1);
        lines[i] = fields[0];
        for (std::size_t f = 1; f < fields.size(); ++f) {
          lines[i] += " " + fields[f];
        }
        break;
      }
    }
    return join(lines);
  }

  static std::string join(const std::vector<std::string>& lines) {
    std::string out;
    for (const auto& line : lines) {
      out += line + "\n";
    }
    return out;
  }

  static void expect_parse_error(const std::string& bytes) {
    std::istringstream in(bytes);
    EXPECT_THROW(Segugio::load(in), util::ParseError);
  }
};

TEST_F(SegugioIoTest, LoadRejectsOutOfRangeChildIndex) {
  expect_parse_error(with_first_split(
      [](std::vector<std::string>& fields, std::size_t) { fields[2] = "99999999"; }));
}

TEST_F(SegugioIoTest, LoadRejectsOutOfRangeSplitFeature) {
  expect_parse_error(with_first_split(
      [](std::vector<std::string>& fields, std::size_t) { fields[0] = "500000"; }));
}

TEST_F(SegugioIoTest, LoadRejectsSelfLoopNode) {
  expect_parse_error(with_first_split([](std::vector<std::string>& fields, std::size_t node) {
    fields[2] = std::to_string(node);
    fields[3] = std::to_string(node);
  }));
}

TEST_F(SegugioIoTest, LoadRejectsNodeCountBeyondInput) {
  auto lines = model_lines();
  auto& header = lines[first_tree(lines)];
  header = header.substr(0, header.rfind(' ')) + " 999999999999";
  expect_parse_error(join(lines));
}

TEST_F(SegugioIoTest, LoadRejectsLogisticFeatureCountMismatch) {
  SegugioConfig config;
  config.classifier = ClassifierKind::kLogisticRegression;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());
  std::stringstream blob;
  segugio.save(blob);
  std::vector<std::string> lines;
  for (std::string line; std::getline(blob, line);) {
    lines.push_back(line);
  }
  // A well-formed logistic block one feature short of the feature vector.
  const std::string header = "logreg " + std::to_string(features::kNumFeatures);
  const auto at = std::find(lines.begin(), lines.end(), header);
  ASSERT_NE(at, lines.end());
  *at = "logreg " + std::to_string(features::kNumFeatures - 1);
  lines.pop_back();
  expect_parse_error(join(lines));
}

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
