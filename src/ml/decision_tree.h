// CART-style binary classification tree.
//
// Splits minimize weighted Gini impurity; leaves store the positive-class
// fraction of their training samples. Supports per-split feature
// subsampling (mtry) so it can serve as the base learner of the random
// forest (Breiman 2001, the paper's reference [9]).
//
// The split search is exact and works on ranks. RankedColumns, built once
// per forest and shared read-only by every tree, maps each row's value to
// its rank among the column's sorted distinct values. A node accumulates
// (count, positives) per rank over its rows and walks the non-empty ranks
// in order: each boundary between two non-empty ranks is exactly a
// boundary between two distinct values of a sorted scan, so the counts,
// the gain arithmetic, the strict `gain > best` tie rule and the midpoint
// threshold are those of a sort-based search, bit for bit. A node costs
// one step per row plus one per rank between its smallest and largest,
// which stays cheap while columns hold at most a few thousand distinct
// values, as the Segugio features do.
// Rows are partitioned on the value (`value <= threshold`), not on the
// rank: a midpoint of two adjacent doubles can round onto the upper value,
// and then the node stays a leaf.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/classifier.h"
#include "ml/dataset.h"
#include "util/rng.h"

namespace seg::ml {

/// Column-major rank view of a Dataset for the split search. Per feature it
/// holds the sorted distinct values and each row's rank into them; it also
/// holds the labels. Read-only after construction, so the trees of a forest
/// share one instance across pool workers.
class RankedColumns {
 public:
  explicit RankedColumns(const Dataset& dataset);

  std::size_t num_rows() const { return labels_.size(); }
  std::size_t num_features() const { return value_offsets_.size() - 1; }

  /// Sorted distinct values of `feature`.
  std::span<const double> values(std::size_t feature) const {
    return {values_.data() + value_offsets_[feature],
            value_offsets_[feature + 1] - value_offsets_[feature]};
  }
  /// Rank of each row's value of `feature` into values(feature).
  std::span<const std::uint32_t> ranks(std::size_t feature) const {
    return {ranks_.data() + feature * num_rows(), num_rows()};
  }
  std::span<const std::uint8_t> labels() const { return labels_; }

 private:
  std::vector<double> values_;
  std::vector<std::size_t> value_offsets_;  // num_features + 1 entries
  std::vector<std::uint32_t> ranks_;        // feature-major
  std::vector<std::uint8_t> labels_;
};

struct DecisionTreeConfig {
  std::size_t max_depth = 30;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of candidate features per split; 0 means all features.
  std::size_t mtry = 0;
  std::uint64_t seed = 1;
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {}) : config_(config) {}

  void train(const Dataset& dataset) override;

  /// Trains on a subset of rows (duplicates allowed — bootstrap samples).
  void train_on(const RankedColumns& columns, std::span<const std::size_t> indices);

  double predict_proba(std::span<const double> features) const override;
  bool is_trained() const override { return !nodes_.empty(); }

  std::size_t num_features() const { return num_features_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;

  /// Accumulates this tree's impurity-decrease importance per feature into
  /// `importance` (size num_features).
  void add_feature_importance(std::span<double> importance) const;

  void save(std::ostream& out) const;
  static DecisionTree load(std::istream& in);

 private:
  struct Node {
    // Internal node: feature >= 0; leaf: feature == -1 and prob valid.
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;   // index of the <= threshold child
    std::int32_t right = -1;  // index of the > threshold child
    double prob = 0.0;        // leaf: positive fraction
    double importance = 0.0;  // internal: impurity decrease * sample weight
  };

  struct SplitScratch;

  std::int32_t build_node(const RankedColumns& columns, std::vector<std::size_t>& indices,
                          std::size_t begin, std::size_t end, std::size_t depth,
                          util::Rng& rng, SplitScratch& scratch);

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
  std::size_t num_features_ = 0;
};

}  // namespace seg::ml
