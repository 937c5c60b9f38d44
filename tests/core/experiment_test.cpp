#include "core/experiment.h"

#include <gtest/gtest.h>

#include <set>

#include "core/fp_analysis.h"
#include "sim/world.h"
#include "util/require.h"

namespace seg::core {
namespace {

// Heavier integration fixture: one small world, traces generated once and
// reused by all protocol tests.
class ExperimentTest : public ::testing::Test {
 protected:
  static sim::World& world() {
    static sim::World instance{sim::ScenarioConfig::small()};
    return instance;
  }

  struct Fixture {
    dns::DayTrace train_trace;
    dns::DayTrace test_trace;
    ExperimentInputs inputs;
  };

  // Train day 2, test day 8 (a 6-day gap), both from ISP 0.
  static Fixture& fixture() {
    static Fixture f = [] {
      Fixture fx;
      auto& w = world();
      fx.train_trace = w.generate_day(0, 2);
      fx.test_trace = w.generate_day(0, 8);
      fx.inputs.train_trace = &fx.train_trace;
      fx.inputs.test_trace = &fx.test_trace;
      fx.inputs.psl = &w.psl();
      fx.inputs.activity = &w.activity();
      fx.inputs.pdns = &w.pdns();
      fx.inputs.train_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 2);
      fx.inputs.test_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 8);
      fx.inputs.whitelist = w.whitelist().all();
      return fx;
    }();
    return f;
  }

  static SegugioConfig fast_config() {
    SegugioConfig config;
    config.forest.num_trees = 30;
    return config;
  }
};

TEST_F(ExperimentTest, CrossDayProducesBothClassesOfOutcomes) {
  const auto result = run_cross_day(fixture().inputs, fast_config());
  EXPECT_GT(result.test_malicious(), 0u);
  EXPECT_GT(result.test_benign(), 10u);
  EXPECT_EQ(result.outcomes.size(), result.test_malicious() + result.test_benign());
  EXPECT_GT(result.train_seconds, 0.0);
  EXPECT_GT(result.test_seconds, 0.0);
}

TEST_F(ExperimentTest, CrossDayRocIsStrong) {
  // The headline shape: high TPR at tiny FPR. The small scenario has less
  // data than the bench scale, so we assert a conservative bound.
  const auto result = run_cross_day(fixture().inputs, fast_config());
  const auto roc = result.roc();
  EXPECT_GT(roc.auc(), 0.9);
  EXPECT_GT(roc.tpr_at_fpr(0.02), 0.6);
}

TEST_F(ExperimentTest, CrossDayIsDeterministicPerSeed) {
  CrossDayOptions options;
  options.seed = 42;
  const auto a = run_cross_day(fixture().inputs, fast_config(), options);
  const auto b = run_cross_day(fixture().inputs, fast_config(), options);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].name, b.outcomes[i].name);
    EXPECT_DOUBLE_EQ(a.outcomes[i].score, b.outcomes[i].score);
  }
}

TEST_F(ExperimentTest, OutcomesCarryFeaturesAndE2ld) {
  const auto result = run_cross_day(fixture().inputs, fast_config());
  for (const auto& outcome : result.outcomes) {
    EXPECT_FALSE(outcome.name.empty());
    EXPECT_FALSE(outcome.e2ld.empty());
    EXPECT_GE(outcome.features[features::kTotalMachines], 1.0);
  }
}

TEST_F(ExperimentTest, ValidatesInputs) {
  ExperimentInputs empty;
  EXPECT_THROW(run_cross_day(empty, fast_config()), util::PreconditionError);
  CrossDayOptions bad;
  bad.test_fraction = 0.0;
  EXPECT_THROW(run_cross_day(fixture().inputs, fast_config(), bad),
               util::PreconditionError);
}

TEST_F(ExperimentTest, CrossFamilyFoldsSeparateFamilies) {
  auto& w = world();
  std::unordered_map<std::string, std::uint32_t> family_of;
  for (const auto& record : w.blacklist().records()) {
    family_of.emplace(record.name, record.family);
  }
  CrossFamilyOptions options;
  options.folds = 3;
  const auto folds = run_cross_family(fixture().inputs, fast_config(), family_of, options);
  ASSERT_EQ(folds.size(), 3u);

  // Across folds, each malware test domain appears exactly once.
  std::set<std::string> seen;
  for (const auto& fold : folds) {
    for (const auto& outcome : fold.outcomes) {
      if (outcome.label == 1) {
        EXPECT_TRUE(seen.insert(outcome.name).second)
            << outcome.name << " appeared in two folds";
      }
    }
  }
  EXPECT_GT(seen.size(), 0u);

  const auto merged = EvaluationResult::merge(folds);
  EXPECT_GT(merged.test_malicious(), 0u);
  const auto roc = merged.roc();
  EXPECT_GT(roc.auc(), 0.8);  // new families are still detectable
}

TEST_F(ExperimentTest, CrossFamilyRejectsTooManyFolds) {
  std::unordered_map<std::string, std::uint32_t> family_of;
  family_of.emplace("a.com", 0);
  EXPECT_THROW(run_cross_family(fixture().inputs, fast_config(), family_of),
               util::PreconditionError);
}

TEST_F(ExperimentTest, FpAnalysisBreaksDownFalsePositives) {
  const auto result = run_cross_day(fixture().inputs, fast_config());
  // Pick a permissive threshold so some FPs exist.
  const auto breakdown = analyze_false_positives(
      result, 0.3, [](std::string_view name) { return world().sandbox().contacted_by_malware(name); });
  if (breakdown.fqdn_count == 0) {
    GTEST_SKIP() << "no FPs at this threshold in the small scenario";
  }
  EXPECT_GE(breakdown.fqdn_count, breakdown.e2ld_count);
  EXPECT_LE(breakdown.top10_share, 1.0);
  EXPECT_GE(breakdown.top10_share, 0.0);
  EXPECT_LE(breakdown.frac_high_infected, 1.0);
  EXPECT_FALSE(breakdown.examples.empty());
}

TEST_F(ExperimentTest, FpAnalysisEmptyWhenThresholdAboveAllScores) {
  const auto result = run_cross_day(fixture().inputs, fast_config());
  const auto breakdown = analyze_false_positives(result, 2.0);
  EXPECT_EQ(breakdown.fqdn_count, 0u);
  EXPECT_TRUE(breakdown.examples.empty());
}

TEST_F(ExperimentTest, InDayCrossValidationCoversEveryKnownDomainOnce) {
  auto& w = world();
  const auto trace = w.generate_day(0, 9);
  SegugioConfig config = fast_config();
  CrossValidationOptions options;
  options.folds = 3;
  const auto folds = run_in_day_cross_validation(
      trace, w.psl(), w.blacklist().as_of(sim::BlacklistKind::kCommercial, 9),
      w.whitelist().all(), w.activity(), w.pdns(), config, options);
  ASSERT_EQ(folds.size(), 3u);
  std::set<std::string> seen;
  std::size_t malware_total = 0;
  for (const auto& fold : folds) {
    EXPECT_GT(fold.outcomes.size(), 0u);
    for (const auto& outcome : fold.outcomes) {
      EXPECT_TRUE(seen.insert(outcome.name).second) << outcome.name;
      malware_total += outcome.label;
    }
  }
  EXPECT_GT(malware_total, 0u);
  const auto merged = EvaluationResult::merge(folds);
  EXPECT_GT(merged.roc().auc(), 0.85);
}

TEST_F(ExperimentTest, InDayCrossValidationValidatesFoldCount) {
  auto& w = world();
  const auto trace = w.generate_day(0, 9);
  CrossValidationOptions options;
  options.folds = 1;
  EXPECT_THROW(run_in_day_cross_validation(
                   trace, w.psl(), w.blacklist().as_of(sim::BlacklistKind::kCommercial, 9),
                   w.whitelist().all(), w.activity(), w.pdns(), fast_config(), options),
               util::PreconditionError);
}

TEST_F(ExperimentTest, MergePoolsOutcomes) {
  EvaluationResult a;
  a.outcomes.push_back({"x.com", "x.com", 1, 0.9, {}});
  a.train_seconds = 1.0;
  EvaluationResult b;
  b.outcomes.push_back({"y.com", "y.com", 0, 0.1, {}});
  b.train_seconds = 2.0;
  const auto merged = EvaluationResult::merge({a, b});
  EXPECT_EQ(merged.outcomes.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.train_seconds, 3.0);
  EXPECT_EQ(merged.test_malicious(), 1u);
}

}  // namespace
}  // namespace seg::core
