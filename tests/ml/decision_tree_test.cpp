#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/require.h"
#include "util/rng.h"

namespace seg::ml {
namespace {

// Linearly separable dataset: label = f0 > 0.5.
Dataset separable(std::size_t n, util::Rng& rng) {
  Dataset d({"f0", "f1"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.next_double();
    const double noise = rng.next_double();
    const double row[] = {x, noise};
    d.add_row(row, x > 0.5 ? 1 : 0);
  }
  return d;
}

// XOR-style dataset: label = (f0 > 0.5) != (f1 > 0.5). Needs depth >= 2.
Dataset xor_data(std::size_t n, util::Rng& rng) {
  Dataset d({"f0", "f1"});
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = rng.next_double();
    const double row[] = {a, b};
    d.add_row(row, (a > 0.5) != (b > 0.5) ? 1 : 0);
  }
  return d;
}

TEST(DecisionTreeTest, FitsSeparableDataPerfectly) {
  util::Rng rng(1);
  const auto data = separable(500, rng);
  DecisionTree tree;
  tree.train(data);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = tree.predict_proba(data.row(i));
    EXPECT_EQ(p >= 0.5 ? 1 : 0, data.label(i));
  }
}

TEST(DecisionTreeTest, LearnsXor) {
  util::Rng rng(2);
  const auto data = xor_data(1000, rng);
  DecisionTree tree;
  tree.train(data);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    correct += (tree.predict_proba(data.row(i)) >= 0.5 ? 1 : 0) == data.label(i) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(data.num_rows()), 0.98);
  EXPECT_GE(tree.depth(), 2u);
}

TEST(DecisionTreeTest, PureNodeBecomesLeafImmediately) {
  Dataset d({"f0"});
  for (int i = 0; i < 10; ++i) {
    const double row[] = {static_cast<double>(i)};
    d.add_row(row, 1);
  }
  // All-positive data is rejected upstream by RandomForest but the tree
  // itself should happily produce a single pure leaf.
  DecisionTree tree;
  tree.train(d);
  EXPECT_EQ(tree.node_count(), 1u);
  const double probe[] = {3.0};
  EXPECT_DOUBLE_EQ(tree.predict_proba(probe), 1.0);
}

TEST(DecisionTreeTest, MaxDepthLimitsTree) {
  util::Rng rng(3);
  const auto data = xor_data(500, rng);
  DecisionTreeConfig config;
  config.max_depth = 1;  // a stump cannot learn XOR
  DecisionTree stump(config);
  stump.train(data);
  EXPECT_LE(stump.depth(), 2u);  // root + leaves
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  util::Rng rng(4);
  const auto data = separable(200, rng);
  DecisionTreeConfig config;
  config.min_samples_leaf = 50;
  DecisionTree tree(config);
  tree.train(data);
  // With 200 samples and min leaf 50, at most 4 leaves => at most 7 nodes.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTreeTest, ConstantFeaturesYieldSingleLeaf) {
  Dataset d({"f0"});
  for (int i = 0; i < 20; ++i) {
    const double row[] = {1.0};
    d.add_row(row, i % 2);
  }
  DecisionTree tree;
  tree.train(d);
  EXPECT_EQ(tree.node_count(), 1u);
  const double probe[] = {1.0};
  EXPECT_NEAR(tree.predict_proba(probe), 0.5, 1e-9);
}

TEST(DecisionTreeTest, TrainOnSubsetUsesOnlyThoseRows) {
  Dataset d({"f0"});
  for (int i = 0; i < 10; ++i) {
    const double row[] = {static_cast<double>(i)};
    d.add_row(row, i < 5 ? 0 : 1);
  }
  // Subset where the labels are flipped relative to the full data:
  // only rows {0, 9}, both with extreme values.
  const std::size_t indices[] = {0, 9};
  DecisionTree tree;
  tree.train_on(RankedColumns(d), indices);
  const double low[] = {0.0};
  const double high[] = {9.0};
  EXPECT_LT(tree.predict_proba(low), 0.5);
  EXPECT_GT(tree.predict_proba(high), 0.5);
}

TEST(DecisionTreeTest, DeterministicForSameSeed) {
  util::Rng rng(5);
  const auto data = xor_data(300, rng);
  DecisionTreeConfig config;
  config.mtry = 1;
  config.seed = 77;
  DecisionTree t1(config);
  DecisionTree t2(config);
  t1.train(data);
  t2.train(data);
  EXPECT_EQ(t1.node_count(), t2.node_count());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(t1.predict_proba(data.row(i)), t2.predict_proba(data.row(i)));
  }
}

TEST(DecisionTreeTest, UntrainedPredictThrows) {
  DecisionTree tree;
  const double probe[] = {0.0};
  EXPECT_THROW(tree.predict_proba(probe), util::PreconditionError);
}

TEST(DecisionTreeTest, ArityMismatchThrows) {
  util::Rng rng(6);
  const auto data = separable(50, rng);
  DecisionTree tree;
  tree.train(data);
  const double probe[] = {0.1, 0.2, 0.3};
  EXPECT_THROW(tree.predict_proba(probe), util::PreconditionError);
}

TEST(DecisionTreeTest, EmptyTrainingSetThrows) {
  Dataset d({"f0"});
  DecisionTree tree;
  EXPECT_THROW(tree.train(d), util::PreconditionError);
}

TEST(DecisionTreeTest, FeatureImportanceConcentratesOnInformativeFeature) {
  util::Rng rng(7);
  const auto data = separable(500, rng);  // f0 informative, f1 noise
  DecisionTree tree;
  tree.train(data);
  std::vector<double> importance(2, 0.0);
  tree.add_feature_importance(importance);
  EXPECT_GT(importance[0], importance[1]);
  EXPECT_GT(importance[0], 0.0);
}

TEST(DecisionTreeTest, SaveLoadRoundTrip) {
  util::Rng rng(8);
  const auto data = xor_data(300, rng);
  DecisionTree tree;
  tree.train(data);
  std::stringstream buffer;
  tree.save(buffer);
  const auto loaded = DecisionTree::load(buffer);
  EXPECT_EQ(loaded.node_count(), tree.node_count());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(loaded.predict_proba(data.row(i)), tree.predict_proba(data.row(i)));
  }
}

TEST(DecisionTreeTest, LoadRejectsGarbage) {
  std::stringstream buffer("not a tree");
  EXPECT_THROW(DecisionTree::load(buffer), util::ParseError);
}

}  // namespace
}  // namespace seg::ml
