#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "ml/metrics.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/rng.h"

namespace seg::ml {
namespace {

// Noisy two-gaussian problem: positives centered at (1,1), negatives at
// (0,0), overlapping.
Dataset gaussians(std::size_t n, util::Rng& rng, double separation = 1.0) {
  Dataset d({"x", "y"});
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double cx = label == 1 ? separation : 0.0;
    const double row[] = {cx + rng.next_gaussian() * 0.6, cx + rng.next_gaussian() * 0.6};
    d.add_row(row, label);
  }
  return d;
}

TEST(RandomForestTest, OutperformsChanceOnNoisyData) {
  util::Rng rng(1);
  const auto train = gaussians(2000, rng);
  const auto test = gaussians(500, rng);
  RandomForestConfig config;
  config.num_trees = 50;
  RandomForest forest(config);
  forest.train(train);

  std::vector<int> labels;
  std::vector<double> scores;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    labels.push_back(test.label(i));
    scores.push_back(forest.predict_proba(test.row(i)));
  }
  const auto roc = RocCurve::compute(labels, scores);
  EXPECT_GT(roc.auc(), 0.85);
}

TEST(RandomForestTest, ScoresAreProbabilities) {
  util::Rng rng(2);
  const auto data = gaussians(500, rng);
  RandomForestConfig config;
  config.num_trees = 10;
  RandomForest forest(config);
  forest.train(data);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = forest.predict_proba(data.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForestTest, DeterministicAcrossThreadCounts) {
  util::Rng rng(3);
  const auto data = gaussians(400, rng);
  RandomForestConfig config;
  config.num_trees = 16;
  config.seed = 99;
  util::set_parallelism(1);
  RandomForest forest1(config);
  forest1.train(data);
  util::set_parallelism(4);
  RandomForest forest4(config);
  forest4.train(data);
  util::set_parallelism(0);
  std::ostringstream bytes1;
  std::ostringstream bytes4;
  forest1.save(bytes1);
  forest4.save(bytes4);
  EXPECT_EQ(bytes1.str(), bytes4.str());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(forest1.predict_proba(data.row(i)), forest4.predict_proba(data.row(i)));
  }
}

TEST(RandomForestTest, MoreTreesSmoothScores) {
  // With a single tree, scores are leaf frequencies (mostly 0/1); averaging
  // many trees yields intermediate values for ambiguous points.
  util::Rng rng(4);
  const auto data = gaussians(1000, rng, /*separation=*/0.5);
  RandomForestConfig config1;
  config1.num_trees = 1;
  RandomForest one(config1);
  one.train(data);
  RandomForestConfig config50 = config1;
  config50.num_trees = 50;
  RandomForest fifty(config50);
  fifty.train(data);

  std::size_t one_extreme = 0;
  std::size_t fifty_extreme = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const double p1 = one.predict_proba(data.row(i));
    const double p50 = fifty.predict_proba(data.row(i));
    one_extreme += (p1 == 0.0 || p1 == 1.0) ? 1 : 0;
    fifty_extreme += (p50 == 0.0 || p50 == 1.0) ? 1 : 0;
  }
  EXPECT_GT(one_extreme, fifty_extreme);
}

TEST(RandomForestTest, RequiresBothClasses) {
  Dataset d({"f0"});
  const double row[] = {1.0};
  d.add_row(row, 1);
  RandomForest forest;
  EXPECT_THROW(forest.train(d), util::PreconditionError);
}

TEST(RandomForestTest, UntrainedPredictThrows) {
  RandomForest forest;
  const double probe[] = {0.0};
  EXPECT_THROW(forest.predict_proba(probe), util::PreconditionError);
}

TEST(RandomForestTest, FeatureImportanceIsNormalizedAndInformative) {
  util::Rng rng(5);
  Dataset d({"signal", "noise"});
  for (std::size_t i = 0; i < 1000; ++i) {
    const int label = static_cast<int>(i % 2);
    const double row[] = {static_cast<double>(label) + rng.next_gaussian() * 0.2,
                          rng.next_double()};
    d.add_row(row, label);
  }
  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest forest(config);
  forest.train(d);
  const auto importance = forest.feature_importance();
  ASSERT_EQ(importance.size(), 2u);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
  EXPECT_GT(importance[0], 0.8);
}

TEST(RandomForestTest, OobErrorIsSmallOnSeparableData) {
  util::Rng rng(6);
  const auto data = gaussians(1000, rng, /*separation=*/3.0);
  RandomForestConfig config;
  config.num_trees = 30;
  config.compute_oob = true;
  RandomForest forest(config);
  forest.train(data);
  EXPECT_LT(forest.oob_error(), 0.05);
}

TEST(RandomForestTest, OobErrorThrowsWhenNotComputed) {
  util::Rng rng(7);
  const auto data = gaussians(100, rng);
  RandomForest forest;  // compute_oob defaults to false
  forest.train(data);
  EXPECT_THROW(forest.oob_error(), util::PreconditionError);
}

TEST(RandomForestTest, SaveLoadRoundTrip) {
  util::Rng rng(8);
  const auto data = gaussians(400, rng);
  RandomForestConfig config;
  config.num_trees = 8;
  RandomForest forest(config);
  forest.train(data);
  std::stringstream buffer;
  forest.save(buffer);
  const auto loaded = RandomForest::load(buffer);
  EXPECT_EQ(loaded.tree_count(), forest.tree_count());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(loaded.predict_proba(data.row(i)), forest.predict_proba(data.row(i)));
  }
}

TEST(RandomForestTest, SaveUntrainedThrows) {
  RandomForest forest;
  std::stringstream buffer;
  EXPECT_THROW(forest.save(buffer), util::PreconditionError);
}

TEST(RandomForestTest, SampleFractionValidation) {
  util::Rng rng(9);
  const auto data = gaussians(50, rng);
  RandomForestConfig config;
  config.sample_fraction = 0.0;
  RandomForest forest(config);
  EXPECT_THROW(forest.train(data), util::PreconditionError);
}

TEST(RandomForestTest, ScoreAllMatchesRowWiseCalls) {
  util::Rng rng(10);
  const auto data = gaussians(100, rng);
  RandomForestConfig config;
  config.num_trees = 5;
  RandomForest forest(config);
  forest.train(data);
  const auto scores = forest.score_all(data);
  ASSERT_EQ(scores.size(), data.num_rows());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(scores[i], forest.predict_proba(data.row(i)));
  }
}

// Datasets for the pinned model digest. They draw only next_below and
// next_double and combine them with exact or correctly rounded arithmetic,
// so the rows are the same bytes on every IEEE-754 host.

// Count-like columns with heavy ties (2 to 300 distinct values), shaped
// like the F2/F3 history features, with about 8% positives.
Dataset tie_heavy(util::Rng& rng) {
  Dataset d({"c2", "c5", "c30", "c300", "noise"});
  for (std::size_t i = 0; i < 1500; ++i) {
    const std::uint64_t label = rng.next_bool(0.08) ? 1 : 0;
    const double row[] = {
        static_cast<double>(rng.next_below(2)),
        static_cast<double>(rng.next_below(4) + label),
        static_cast<double>(rng.next_below(20) + 10 * label * rng.next_below(2)),
        static_cast<double>(rng.next_below(250) + 50 * label),
        static_cast<double>(rng.next_below(300)),
    };
    d.add_row(row, static_cast<int>(label));
  }
  return d;
}

// Continuous columns (about one distinct value per row), so deep nodes hold
// far fewer rows than a column has values; one column carries a few +-inf.
Dataset continuous(util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Dataset d({"x", "y", "z"});
  for (std::size_t i = 0; i < 800; ++i) {
    const double label = i % 3 == 0 ? 1.0 : 0.0;
    const double x = rng.next_double() + 0.4 * label;
    const double y = rng.next_double() - 0.3 * label;
    const double z = i % 97 == 0 ? kInf : i % 89 == 0 ? -kInf : rng.next_double();
    const double row[] = {x, y, z};
    d.add_row(row, static_cast<int>(label));
  }
  return d;
}

// Adjacent doubles v and nextafter(v, +inf). For v = 1 + 2^-52 (odd
// mantissa) the midpoint rounds onto the upper value, so `value <=
// threshold` sends every row left and the node must stay a leaf; for
// v = 1.0 the midpoint rounds down and the split is real.
Dataset adjacent(util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double odd = std::nextafter(1.0, 2.0);
  Dataset d({"odd", "even", "noise"});
  for (std::size_t i = 0; i < 600; ++i) {
    const bool label = rng.next_bool(0.3);
    const bool odd_high = rng.next_bool(0.9) ? label : !label;
    const bool even_high = rng.next_bool(0.8) ? label : !label;
    const double row[] = {odd_high ? std::nextafter(odd, kInf) : odd,
                          even_high ? std::nextafter(1.0, kInf) : 1.0,
                          static_cast<double>(rng.next_below(3))};
    d.add_row(row, label ? 1 : 0);
  }
  return d;
}

// fnv1a64 of the saved models over stratified bootstrap off/on and
// min_samples_leaf 1-3, at the default mtry.
std::uint64_t model_digest(const Dataset& data) {
  std::ostringstream bytes;
  for (const bool stratified : {false, true}) {
    for (std::size_t min_samples_leaf = 1; min_samples_leaf <= 3; ++min_samples_leaf) {
      RandomForestConfig config;
      config.num_trees = 12;
      config.seed = 7;
      config.stratified_bootstrap = stratified;
      config.min_samples_leaf = min_samples_leaf;
      RandomForest forest(config);
      forest.train(data);
      forest.save(bytes);
    }
  }
  return util::fnv1a64(bytes.str());
}

// The split search may change how it finds a split, never which one it
// picks: the model bytes are pinned. These constants move only with a
// deliberate change to what the forest learns.
TEST(RandomForestTest, ModelBytesMatchPinnedDigest) {
  const double odd = std::nextafter(1.0, 2.0);
  const double upper = std::nextafter(odd, 2.0);
  ASSERT_EQ(odd + (upper - odd) / 2.0, upper);  // the rounding case is real
  ASSERT_EQ(1.0 + (std::nextafter(1.0, 2.0) - 1.0) / 2.0, 1.0);

  util::Rng rng(2015);
  const auto ties = tie_heavy(rng);
  const auto smooth = continuous(rng);
  const auto adjacent_doubles = adjacent(rng);
  EXPECT_EQ(model_digest(ties), 0x38565193152e1ad7ULL);
  EXPECT_EQ(model_digest(smooth), 0x1cc3cebb14ea21faULL);
  EXPECT_EQ(model_digest(adjacent_doubles), 0x1b8919d3a72bb426ULL);
}

// Property sweep over forest sizes: AUC should be monotone-ish (not
// strictly, but never collapse) and determinism must hold.
class ForestSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeTest, ReasonableAucAtEachSize) {
  util::Rng rng(42);
  const auto train = gaussians(800, rng);
  const auto test = gaussians(300, rng);
  RandomForestConfig config;
  config.num_trees = GetParam();
  RandomForest forest(config);
  forest.train(train);
  std::vector<int> labels;
  std::vector<double> scores;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    labels.push_back(test.label(i));
    scores.push_back(forest.predict_proba(test.row(i)));
  }
  EXPECT_GT(RocCurve::compute(labels, scores).auc(), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeTest, ::testing::Values(1, 5, 20, 60));

}  // namespace
}  // namespace seg::ml
