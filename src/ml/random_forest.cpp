#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <numeric>
#include <ostream>

#include "util/obs/trace.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/serialize.h"

namespace seg::ml {

void RandomForest::train(const Dataset& dataset) {
  SEG_SPAN("ml/forest_train");
  util::require(dataset.num_rows() > 0, "RandomForest::train: empty dataset");
  util::require(dataset.count_label(0) > 0 && dataset.count_label(1) > 0,
                "RandomForest::train: need both classes present");
  util::require(config_.num_trees > 0, "RandomForest::train: num_trees must be positive");
  util::require(config_.sample_fraction > 0.0 && config_.sample_fraction <= 1.0,
                "RandomForest::train: sample_fraction must be in (0, 1]");

  num_features_ = dataset.num_features();
  const std::size_t mtry =
      config_.mtry != 0
          ? config_.mtry
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(std::sqrt(static_cast<double>(num_features_))));

  const std::size_t n = dataset.num_rows();
  const auto sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.sample_fraction * static_cast<double>(n)));

  // One rank view of the training set, shared read-only by every tree.
  const RankedColumns columns(dataset);
  trees_.assign(config_.num_trees, DecisionTree{});
  // Pre-fork one RNG per tree so parallel execution order cannot change the
  // result.
  util::Rng root(config_.seed);
  std::vector<util::Rng> tree_rngs;
  tree_rngs.reserve(config_.num_trees);
  for (std::size_t t = 0; t < config_.num_trees; ++t) {
    tree_rngs.push_back(root.fork(t + 1));
  }

  // Out-of-bag bookkeeping (aggregated after training to stay deterministic).
  std::vector<std::vector<std::size_t>> bootstraps(config_.num_trees);

  // Per-class index lists for the stratified bootstrap.
  std::vector<std::size_t> positives;
  std::vector<std::size_t> negatives;
  if (config_.stratified_bootstrap) {
    for (std::size_t i = 0; i < n; ++i) {
      (dataset.label(i) == 1 ? positives : negatives).push_back(i);
    }
  }

  util::parallel_for(config_.num_trees, [&](std::size_t t) {
    auto& rng = tree_rngs[t];
    auto& sample = bootstraps[t];
    if (config_.stratified_bootstrap) {
      const auto pos_size = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(sample_size) *
                                      static_cast<double>(positives.size()) /
                                      static_cast<double>(n) +
                                      0.5));
      const auto neg_size = std::max<std::size_t>(1, sample_size - pos_size);
      sample.reserve(pos_size + neg_size);
      for (std::size_t i = 0; i < pos_size; ++i) {
        sample.push_back(positives[rng.next_below(positives.size())]);
      }
      for (std::size_t i = 0; i < neg_size; ++i) {
        sample.push_back(negatives[rng.next_below(negatives.size())]);
      }
    } else {
      sample.resize(sample_size);
      for (auto& index : sample) {
        index = static_cast<std::size_t>(rng.next_below(n));
      }
    }
    DecisionTreeConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    tree_config.mtry = mtry;
    tree_config.seed = rng.next();
    trees_[t] = DecisionTree(tree_config);
    trees_[t].train_on(columns, sample);
  });

  if (config_.compute_oob) {
    std::vector<double> score_sum(n, 0.0);
    std::vector<std::uint32_t> votes(n, 0);
    std::vector<std::uint8_t> in_bag(n);
    for (std::size_t t = 0; t < config_.num_trees; ++t) {
      std::fill(in_bag.begin(), in_bag.end(), 0);
      for (const auto i : bootstraps[t]) {
        in_bag[i] = 1;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (in_bag[i] == 0) {
          score_sum[i] += trees_[t].predict_proba(dataset.row(i));
          ++votes[i];
        }
      }
    }
    std::size_t evaluated = 0;
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (votes[i] == 0) {
        continue;
      }
      ++evaluated;
      const int predicted = score_sum[i] / votes[i] >= 0.5 ? 1 : 0;
      wrong += predicted != dataset.label(i) ? 1 : 0;
    }
    oob_error_ = evaluated == 0 ? -1.0
                                : static_cast<double>(wrong) / static_cast<double>(evaluated);
  }
}

double RandomForest::predict_proba(std::span<const double> features) const {
  util::require(is_trained(), "RandomForest::predict_proba: not trained");
  double sum = 0.0;
  for (const auto& tree : trees_) {
    sum += tree.predict_proba(features);
  }
  return sum / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::feature_importance() const {
  util::require(is_trained(), "RandomForest::feature_importance: not trained");
  std::vector<double> importance(num_features_, 0.0);
  for (const auto& tree : trees_) {
    tree.add_feature_importance(importance);
  }
  const double total = std::accumulate(importance.begin(), importance.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : importance) {
      v /= total;
    }
  }
  return importance;
}

double RandomForest::oob_error() const {
  util::require(oob_error_ >= 0.0,
                "RandomForest::oob_error: not computed (enable config.compute_oob)");
  return oob_error_;
}

void RandomForest::save(std::ostream& out) const {
  util::require(is_trained(), "RandomForest::save: not trained");
  out << "forest " << num_features_ << " " << trees_.size() << "\n";
  for (const auto& tree : trees_) {
    tree.save(out);
  }
}

RandomForest RandomForest::load(std::istream& in) {
  std::string tag;
  std::size_t num_features = 0;
  std::size_t num_trees = 0;
  in >> tag >> num_features >> num_trees;
  util::require_data(static_cast<bool>(in) && tag == "forest" && num_trees > 0,
                     "RandomForest::load: malformed header");
  // A tree is at least a `tree` header and one node.
  util::require_count_fits(in, num_trees, 20, "RandomForest::load: tree count exceeds the input");
  RandomForest forest;
  forest.num_features_ = num_features;
  for (std::size_t t = 0; t < num_trees; ++t) {
    forest.trees_.push_back(DecisionTree::load(in));
    util::require_data(forest.trees_.back().num_features() == num_features,
                       "RandomForest::load: tree feature count differs from the forest's");
  }
  return forest;
}

}  // namespace seg::ml
