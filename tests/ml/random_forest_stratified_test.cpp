#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace seg::ml {
namespace {

// Extremely imbalanced problem: 5 positives vs 500 negatives. The plain
// bootstrap frequently feeds trees zero positives; stratified sampling
// guarantees representation.
Dataset rare_positives(util::Rng& rng) {
  Dataset d({"x", "y"});
  for (int i = 0; i < 500; ++i) {
    const double row[] = {rng.next_gaussian(), rng.next_gaussian()};
    d.add_row(row, 0);
  }
  for (int i = 0; i < 5; ++i) {
    const double row[] = {4.0 + rng.next_gaussian() * 0.3, 4.0 + rng.next_gaussian() * 0.3};
    d.add_row(row, 1);
  }
  return d;
}

TEST(StratifiedBootstrapTest, LearnsFromAHandfulOfPositives) {
  util::Rng rng(3);
  const auto data = rare_positives(rng);
  RandomForestConfig config;
  config.num_trees = 40;
  config.stratified_bootstrap = true;
  RandomForest forest(config);
  forest.train(data);

  // Every positive must score clearly above the typical negative.
  const double probe_pos[] = {4.0, 4.0};
  const double probe_neg[] = {0.0, 0.0};
  EXPECT_GT(forest.predict_proba(probe_pos), 0.5);
  EXPECT_LT(forest.predict_proba(probe_neg), 0.2);
}

TEST(StratifiedBootstrapTest, RankingBeatsOrMatchesPlainBootstrapWhenRare) {
  util::Rng rng(7);
  const auto train = rare_positives(rng);
  const auto test = rare_positives(rng);

  const auto auc_for = [&](bool stratified) {
    RandomForestConfig config;
    config.num_trees = 40;
    config.stratified_bootstrap = stratified;
    RandomForest forest(config);
    forest.train(train);
    std::vector<int> labels;
    std::vector<double> scores;
    for (std::size_t i = 0; i < test.num_rows(); ++i) {
      labels.push_back(test.label(i));
      scores.push_back(forest.predict_proba(test.row(i)));
    }
    return RocCurve::compute(labels, scores).auc();
  };
  EXPECT_GE(auc_for(true) + 1e-9, auc_for(false) - 0.05);
  EXPECT_GT(auc_for(true), 0.95);
}

TEST(StratifiedBootstrapTest, DeterministicAcrossThreadCounts) {
  util::Rng rng(11);
  const auto data = rare_positives(rng);
  RandomForestConfig config;
  config.num_trees = 16;
  config.stratified_bootstrap = true;
  config.seed = 5;
  util::set_parallelism(1);
  RandomForest a(config);
  a.train(data);
  util::set_parallelism(4);
  RandomForest b(config);
  b.train(data);
  util::set_parallelism(0);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_proba(data.row(i)), b.predict_proba(data.row(i)));
  }
}

TEST(StratifiedBootstrapTest, PreservesClassRatioApproximately) {
  // With 100 pos / 300 neg and sample_fraction 1.0, each tree's bootstrap
  // should hold roughly 25% positives (ratio-preserving, not balanced).
  util::Rng rng(13);
  Dataset d({"x"});
  for (int i = 0; i < 300; ++i) {
    const double row[] = {rng.next_double()};
    d.add_row(row, 0);
  }
  for (int i = 0; i < 100; ++i) {
    const double row[] = {rng.next_double() + 2.0};
    d.add_row(row, 1);
  }
  RandomForestConfig config;
  config.num_trees = 10;
  config.stratified_bootstrap = true;
  config.compute_oob = true;
  RandomForest forest(config);
  forest.train(d);
  // Separable 1-D problem: OOB error should be tiny.
  EXPECT_LT(forest.oob_error(), 0.05);
}

}  // namespace
}  // namespace seg::ml
