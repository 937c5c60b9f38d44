#include "ml/dataset.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/require.h"

namespace seg::ml {
namespace {

Dataset make_dataset(std::size_t negatives, std::size_t positives) {
  Dataset d({"f0", "f1"});
  for (std::size_t i = 0; i < negatives; ++i) {
    const double v[] = {static_cast<double>(i), 0.0};
    d.add_row(v, 0);
  }
  for (std::size_t i = 0; i < positives; ++i) {
    const double v[] = {static_cast<double>(i), 1.0};
    d.add_row(v, 1);
  }
  return d;
}

TEST(DatasetTest, ConstructionAndAccess) {
  Dataset d({"a", "b", "c"});
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_TRUE(d.empty());
  const double row[] = {1.0, 2.0, 3.0};
  d.add_row(row, 1);
  EXPECT_EQ(d.num_rows(), 1u);
  EXPECT_EQ(d.label(0), 1);
  EXPECT_DOUBLE_EQ(d.value(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(d.row(0)[1], 2.0);
}

TEST(DatasetTest, RejectsEmptyFeatureList) {
  EXPECT_THROW(Dataset(std::vector<std::string>{}), util::PreconditionError);
}

TEST(DatasetTest, RejectsBadArityAndLabels) {
  Dataset d({"a", "b"});
  const double short_row[] = {1.0};
  EXPECT_THROW(d.add_row(short_row, 0), util::PreconditionError);
  const double row[] = {1.0, 2.0};
  EXPECT_THROW(d.add_row(row, 2), util::PreconditionError);
  EXPECT_THROW(d.add_row(row, -1), util::PreconditionError);
}

TEST(DatasetTest, RejectsNanButKeepsInfinities) {
  Dataset d({"a", "b"});
  const double nan_row[] = {1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(d.add_row(nan_row, 0), util::PreconditionError);
  EXPECT_TRUE(d.empty());
  const double inf_row[] = {std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  d.add_row(inf_row, 1);
  EXPECT_EQ(d.num_rows(), 1u);
}

TEST(DatasetTest, OutOfRangeAccessThrows) {
  Dataset d({"a"});
  EXPECT_THROW(d.row(0), util::PreconditionError);
  EXPECT_THROW(d.label(0), util::PreconditionError);
}

TEST(DatasetTest, CountLabel) {
  const auto d = make_dataset(7, 3);
  EXPECT_EQ(d.count_label(0), 7u);
  EXPECT_EQ(d.count_label(1), 3u);
}

TEST(DatasetTest, SubsetWithDuplicates) {
  const auto d = make_dataset(2, 2);
  const std::size_t indices[] = {0, 0, 3};
  const auto sub = d.subset(indices);
  EXPECT_EQ(sub.num_rows(), 3u);
  EXPECT_EQ(sub.label(0), 0);
  EXPECT_EQ(sub.label(2), 1);
  EXPECT_DOUBLE_EQ(sub.value(2, 1), 1.0);
}

TEST(DatasetTest, SelectFeatures) {
  Dataset d({"a", "b", "c"});
  const double row[] = {1.0, 2.0, 3.0};
  d.add_row(row, 1);
  const std::size_t keep[] = {2, 0};
  const auto selected = d.select_features(keep);
  EXPECT_EQ(selected.num_features(), 2u);
  EXPECT_EQ(selected.feature_names()[0], "c");
  EXPECT_DOUBLE_EQ(selected.value(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(selected.value(0, 1), 1.0);
  EXPECT_EQ(selected.label(0), 1);
}

TEST(DatasetTest, SelectFeaturesValidation) {
  Dataset d({"a"});
  EXPECT_THROW(d.select_features(std::vector<std::size_t>{}), util::PreconditionError);
  EXPECT_THROW(d.select_features(std::vector<std::size_t>{5}), util::PreconditionError);
}

TEST(StratifiedSplitTest, PreservesClassProportions) {
  const auto d = make_dataset(100, 20);
  util::Rng rng(5);
  const auto split = stratified_split(d, 0.25, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), d.num_rows());
  std::size_t test_pos = 0;
  for (const auto i : split.test) {
    test_pos += static_cast<std::size_t>(d.label(i));
  }
  EXPECT_EQ(split.test.size(), 30u);  // 25 negatives + 5 positives
  EXPECT_EQ(test_pos, 5u);
}

TEST(StratifiedSplitTest, DisjointAndComplete) {
  const auto d = make_dataset(40, 10);
  util::Rng rng(9);
  const auto split = stratified_split(d, 0.3, rng);
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), d.num_rows());
}

TEST(StratifiedSplitTest, ZeroFractionPutsEverythingInTrain) {
  const auto d = make_dataset(10, 5);
  util::Rng rng(3);
  const auto split = stratified_split(d, 0.0, rng);
  EXPECT_TRUE(split.test.empty());
  EXPECT_EQ(split.train.size(), 15u);
}

TEST(StratifiedSplitTest, RejectsBadFraction) {
  const auto d = make_dataset(4, 4);
  util::Rng rng(1);
  EXPECT_THROW(stratified_split(d, -0.1, rng), util::PreconditionError);
  EXPECT_THROW(stratified_split(d, 1.1, rng), util::PreconditionError);
}

TEST(StratifiedFoldsTest, PartitionCoversAllRowsOnce) {
  const auto d = make_dataset(50, 25);
  util::Rng rng(11);
  const auto folds = stratified_folds(d, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::set<std::size_t> all;
  for (const auto& fold : folds) {
    for (const auto i : fold) {
      EXPECT_TRUE(all.insert(i).second) << "duplicate index across folds";
    }
  }
  EXPECT_EQ(all.size(), d.num_rows());
}

TEST(StratifiedFoldsTest, FoldsAreBalancedPerClass) {
  const auto d = make_dataset(50, 25);
  util::Rng rng(13);
  const auto folds = stratified_folds(d, 5, rng);
  for (const auto& fold : folds) {
    std::size_t pos = 0;
    for (const auto i : fold) {
      pos += static_cast<std::size_t>(d.label(i));
    }
    EXPECT_EQ(fold.size(), 15u);
    EXPECT_EQ(pos, 5u);
  }
}

TEST(StratifiedFoldsTest, RejectsKBelowTwo) {
  const auto d = make_dataset(4, 4);
  util::Rng rng(1);
  EXPECT_THROW(stratified_folds(d, 1, rng), util::PreconditionError);
}

}  // namespace
}  // namespace seg::ml
