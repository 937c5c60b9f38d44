#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "util/require.h"
#include "util/serialize.h"

namespace seg::ml {

namespace {

double gini(std::size_t pos, std::size_t n) {
  if (n == 0) {
    return 0.0;
  }
  const double p = static_cast<double>(pos) / static_cast<double>(n);
  return 2.0 * p * (1.0 - p);
}

}  // namespace

RankedColumns::RankedColumns(const Dataset& dataset) {
  const std::size_t n = dataset.num_rows();
  const std::size_t d = dataset.num_features();
  util::require(n <= std::numeric_limits<std::uint32_t>::max(),
                "RankedColumns: too many rows for 32-bit ranks");
  labels_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels_[i] = static_cast<std::uint8_t>(dataset.label(i));
  }
  value_offsets_.reserve(d + 1);
  value_offsets_.push_back(0);
  ranks_.resize(d * n);
  std::vector<double> distinct;
  for (std::size_t f = 0; f < d; ++f) {
    distinct.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      distinct[i] = dataset.value(i, f);
    }
    // Dataset::add_row rejects NaN, so `<` is a total order here.
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    auto* ranks = ranks_.data() + f * n;
    for (std::size_t i = 0; i < n; ++i) {
      ranks[i] = static_cast<std::uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), dataset.value(i, f)) -
          distinct.begin());
    }
    values_.insert(values_.end(), distinct.begin(), distinct.end());
    value_offsets_.push_back(values_.size());
  }
}

// Per-tree buffers of the split search. `count` and `positives` are indexed
// by rank and are all zero between candidate features.
struct DecisionTree::SplitScratch {
  std::vector<std::uint32_t> count;
  std::vector<std::uint32_t> positives;
};

void DecisionTree::train(const Dataset& dataset) {
  const RankedColumns columns(dataset);
  std::vector<std::size_t> indices(dataset.num_rows());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  train_on(columns, indices);
}

void DecisionTree::train_on(const RankedColumns& columns, std::span<const std::size_t> indices) {
  util::require(!indices.empty(), "DecisionTree::train_on: empty training set");
  util::require(std::all_of(indices.begin(), indices.end(),
                            [&](std::size_t row) { return row < columns.num_rows(); }),
                "DecisionTree::train_on: row index out of range");
  nodes_.clear();
  num_features_ = columns.num_features();
  std::size_t max_distinct = 0;
  for (std::size_t f = 0; f < num_features_; ++f) {
    max_distinct = std::max(max_distinct, columns.values(f).size());
  }
  SplitScratch scratch;
  scratch.count.assign(max_distinct, 0);
  scratch.positives.assign(max_distinct, 0);
  std::vector<std::size_t> work(indices.begin(), indices.end());
  util::Rng rng(config_.seed);
  build_node(columns, work, 0, work.size(), 0, rng, scratch);
}

std::int32_t DecisionTree::build_node(const RankedColumns& columns,
                                      std::vector<std::size_t>& indices, std::size_t begin,
                                      std::size_t end, std::size_t depth, util::Rng& rng,
                                      SplitScratch& scratch) {
  const auto labels = columns.labels();
  const std::size_t n = end - begin;
  std::size_t pos = 0;
  for (std::size_t i = begin; i < end; ++i) {
    pos += labels[indices[i]];
  }

  const auto node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].prob = static_cast<double>(pos) / static_cast<double>(n);

  const bool pure = pos == 0 || pos == n;
  if (pure || depth >= config_.max_depth || n < config_.min_samples_split) {
    return node_index;  // leaf
  }

  // Candidate features for this split.
  const std::size_t d = columns.num_features();
  const std::size_t mtry = config_.mtry == 0 ? d : std::min(config_.mtry, d);
  std::vector<std::size_t> candidates = rng.sample_without_replacement(d, mtry);

  const double parent_gini = gini(pos, n);
  double best_gain = 1e-12;  // require a strictly positive gain
  std::size_t best_feature = d;
  double best_threshold = 0.0;

  for (const auto f : candidates) {
    const auto values = columns.values(f);
    const auto ranks = columns.ranks(f);
    auto& count = scratch.count;
    auto& positives = scratch.positives;
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t hi = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = indices[i];
      const auto rank = ranks[row];
      ++count[rank];
      positives[rank] += labels[row];
      lo = std::min(lo, rank);
      hi = std::max(hi, rank);
    }
    // Walk the node's non-empty ranks in order; `left_n` rows (`left_pos`
    // positives) lie at or below values[lower], and each next non-empty
    // rank is the next distinct value of a sorted scan. Zero the counts
    // behind the walk for the next candidate.
    std::size_t left_n = count[lo];
    std::size_t left_pos = positives[lo];
    count[lo] = 0;
    positives[lo] = 0;
    std::uint32_t lower = lo;
    for (std::uint32_t rank = lo + 1; rank <= hi; ++rank) {
      if (count[rank] == 0) {
        continue;
      }
      const std::size_t right_n = n - left_n;
      if (left_n >= config_.min_samples_leaf && right_n >= config_.min_samples_leaf) {
        const double child_gini =
            (static_cast<double>(left_n) * gini(left_pos, left_n) +
             static_cast<double>(right_n) * gini(pos - left_pos, right_n)) /
            static_cast<double>(n);
        const double gain = parent_gini - child_gini;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = values[lower] + (values[rank] - values[lower]) / 2.0;
        }
      }
      left_n += count[rank];
      left_pos += positives[rank];
      count[rank] = 0;
      positives[rank] = 0;
      lower = rank;
    }
  }

  if (best_feature == d) {
    return node_index;  // no useful split among the sampled features
  }

  // Partition [begin, end) on the value, as prediction compares it.
  const auto values = columns.values(best_feature);
  const auto ranks = columns.ranks(best_feature);
  const auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) { return values[ranks[row]] <= best_threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
  // The midpoint of two adjacent doubles can round onto the upper value
  // (or be inf/NaN next to an infinity); then one side is empty and the
  // node stays a leaf.
  if (mid == begin || mid == end) {
    return node_index;
  }

  nodes_[node_index].feature = static_cast<std::int32_t>(best_feature);
  nodes_[node_index].threshold = best_threshold;
  nodes_[node_index].importance = best_gain * static_cast<double>(n);

  const auto left = build_node(columns, indices, begin, mid, depth + 1, rng, scratch);
  const auto right = build_node(columns, indices, mid, end, depth + 1, rng, scratch);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

double DecisionTree::predict_proba(std::span<const double> features) const {
  util::require(is_trained(), "DecisionTree::predict_proba: not trained");
  util::require(features.size() == num_features_,
                "DecisionTree::predict_proba: feature arity mismatch");
  std::int32_t node = 0;
  while (nodes_[node].feature >= 0) {
    node = features[static_cast<std::size_t>(nodes_[node].feature)] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].prob;
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) {
    return 0;
  }
  // Iterative depth computation over the implicit tree.
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    if (nodes_[node].feature >= 0) {
      stack.emplace_back(nodes_[node].left, depth + 1);
      stack.emplace_back(nodes_[node].right, depth + 1);
    }
  }
  return max_depth;
}

void DecisionTree::add_feature_importance(std::span<double> importance) const {
  util::require(importance.size() == num_features_,
                "DecisionTree::add_feature_importance: arity mismatch");
  for (const auto& node : nodes_) {
    if (node.feature >= 0) {
      importance[static_cast<std::size_t>(node.feature)] += node.importance;
    }
  }
}

void DecisionTree::save(std::ostream& out) const {
  out << "tree " << num_features_ << " " << nodes_.size() << "\n";
  out.precision(17);
  for (const auto& node : nodes_) {
    out << node.feature << " " << node.threshold << " " << node.left << " " << node.right
        << " " << node.prob << " " << node.importance << "\n";
  }
}

DecisionTree DecisionTree::load(std::istream& in) {
  std::string tag;
  std::size_t num_features = 0;
  std::size_t num_nodes = 0;
  in >> tag >> num_features >> num_nodes;
  util::require_data(static_cast<bool>(in) && tag == "tree" && num_nodes > 0,
                     "DecisionTree::load: malformed header");
  // A node is six fields: at least six characters and five separators.
  util::require_count_fits(in, num_nodes, 11, "DecisionTree::load: node count exceeds the input");
  DecisionTree tree;
  tree.num_features_ = num_features;
  for (std::size_t i = 0; i < num_nodes; ++i) {
    Node node;
    in >> node.feature >> node.threshold >> node.left >> node.right >> node.prob >>
        node.importance;
    util::require_data(static_cast<bool>(in), "DecisionTree::load: truncated node list");
    tree.nodes_.push_back(node);
  }
  // Nodes are saved in preorder, so each child comes after its parent:
  // prediction then always moves forward and ends at a leaf.
  const auto count = static_cast<std::int64_t>(num_nodes);
  for (std::int64_t i = 0; i < count; ++i) {
    const auto& node = tree.nodes_[static_cast<std::size_t>(i)];
    if (node.feature == -1) {
      continue;  // leaf
    }
    util::require_data(node.feature >= 0 && static_cast<std::size_t>(node.feature) < num_features,
                       "DecisionTree::load: split feature out of range");
    util::require_data(node.left > i && node.left < count && node.right > i && node.right < count,
                       "DecisionTree::load: child index out of range");
  }
  return tree;
}

}  // namespace seg::ml
