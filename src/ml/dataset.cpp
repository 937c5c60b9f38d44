#include "ml/dataset.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace seg::ml {

Dataset::Dataset(std::vector<std::string> feature_names)
    : feature_names_(std::move(feature_names)) {
  util::require(!feature_names_.empty(), "Dataset: need at least one feature");
}

void Dataset::add_row(std::span<const double> features, int label) {
  util::require(features.size() == feature_names_.size(),
                "Dataset::add_row: feature arity mismatch");
  util::require(label == 0 || label == 1, "Dataset::add_row: label must be 0 or 1");
  // The forest's split search needs a total order on each column.
  util::require(std::none_of(features.begin(), features.end(),
                             [](double value) { return std::isnan(value); }),
                "Dataset::add_row: feature value is NaN");
  data_.insert(data_.end(), features.begin(), features.end());
  labels_.push_back(static_cast<std::int8_t>(label));
}

std::span<const double> Dataset::row(std::size_t i) const {
  util::require(i < num_rows(), "Dataset::row: index out of range");
  return {data_.data() + i * feature_names_.size(), feature_names_.size()};
}

int Dataset::label(std::size_t i) const {
  util::require(i < num_rows(), "Dataset::label: index out of range");
  return labels_[i];
}

std::size_t Dataset::count_label(int label) const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), static_cast<std::int8_t>(label)));
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(feature_names_);
  for (const auto i : indices) {
    out.add_row(row(i), label(i));
  }
  return out;
}

Dataset Dataset::select_features(std::span<const std::size_t> features) const {
  util::require(!features.empty(), "Dataset::select_features: need at least one feature");
  std::vector<std::string> names;
  names.reserve(features.size());
  for (const auto f : features) {
    util::require(f < num_features(), "Dataset::select_features: feature index out of range");
    names.push_back(feature_names_[f]);
  }
  Dataset out(std::move(names));
  std::vector<double> row_buffer(features.size());
  for (std::size_t i = 0; i < num_rows(); ++i) {
    for (std::size_t j = 0; j < features.size(); ++j) {
      row_buffer[j] = value(i, features[j]);
    }
    out.add_row(row_buffer, label(i));
  }
  return out;
}

namespace {

// Indices of each class, shuffled.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> shuffled_class_indices(
    const Dataset& dataset, util::Rng& rng) {
  std::vector<std::size_t> neg;
  std::vector<std::size_t> pos;
  for (std::size_t i = 0; i < dataset.num_rows(); ++i) {
    (dataset.label(i) == 1 ? pos : neg).push_back(i);
  }
  rng.shuffle(std::span<std::size_t>(neg));
  rng.shuffle(std::span<std::size_t>(pos));
  return {std::move(neg), std::move(pos)};
}

}  // namespace

SplitIndices stratified_split(const Dataset& dataset, double test_fraction, util::Rng& rng) {
  util::require(test_fraction >= 0.0 && test_fraction <= 1.0,
                "stratified_split: test_fraction must be in [0, 1]");
  auto [neg, pos] = shuffled_class_indices(dataset, rng);
  SplitIndices split;
  const auto take = [&](std::vector<std::size_t>& indices) {
    const auto n_test = static_cast<std::size_t>(
        static_cast<double>(indices.size()) * test_fraction + 0.5);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      (i < n_test ? split.test : split.train).push_back(indices[i]);
    }
  };
  take(neg);
  take(pos);
  rng.shuffle(std::span<std::size_t>(split.train));
  rng.shuffle(std::span<std::size_t>(split.test));
  return split;
}

std::vector<std::vector<std::size_t>> stratified_folds(const Dataset& dataset, std::size_t k,
                                                       util::Rng& rng) {
  util::require(k >= 2, "stratified_folds: k must be >= 2");
  auto [neg, pos] = shuffled_class_indices(dataset, rng);
  std::vector<std::vector<std::size_t>> folds(k);
  const auto deal = [&](const std::vector<std::size_t>& indices) {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      folds[i % k].push_back(indices[i]);
    }
  };
  deal(neg);
  deal(pos);
  for (auto& fold : folds) {
    rng.shuffle(std::span<std::size_t>(fold));
  }
  return folds;
}

}  // namespace seg::ml
