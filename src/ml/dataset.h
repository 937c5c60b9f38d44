// In-memory labeled dataset for binary classification.
//
// Rows are feature vectors (row-major, contiguous); labels are 0 (negative,
// benign) or 1 (positive, malware). The container is intentionally dumb:
// feature semantics live in seg::features, model logic in the classifiers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace seg::ml {

class Dataset {
 public:
  Dataset() = default;

  /// Creates an empty dataset with named feature columns.
  explicit Dataset(std::vector<std::string> feature_names);

  std::size_t num_rows() const { return labels_.size(); }
  std::size_t num_features() const { return feature_names_.size(); }
  bool empty() const { return labels_.empty(); }

  const std::vector<std::string>& feature_names() const { return feature_names_; }

  /// Appends a row; `features.size()` must equal num_features(), no value
  /// may be NaN (+-inf is fine), and label must be 0 or 1.
  void add_row(std::span<const double> features, int label);

  std::span<const double> row(std::size_t i) const;
  int label(std::size_t i) const;

  double value(std::size_t row, std::size_t feature) const {
    return data_[row * feature_names_.size() + feature];
  }

  std::size_t count_label(int label) const;

  /// Extracts the subset of rows with the given indices (duplicates allowed,
  /// e.g. bootstrap samples).
  Dataset subset(std::span<const std::size_t> indices) const;

  /// Returns a copy keeping only the feature columns in `features`
  /// (used for feature-group ablations, Section IV-B).
  Dataset select_features(std::span<const std::size_t> features) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<double> data_;  // row-major
  std::vector<std::int8_t> labels_;
};

/// Row indices split into train/test with per-class proportions preserved.
struct SplitIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Stratified random split: `test_fraction` of each class goes to test.
SplitIndices stratified_split(const Dataset& dataset, double test_fraction, util::Rng& rng);

/// Stratified k-fold partition; returns k disjoint index sets covering all
/// rows, each with per-class proportions preserved.
std::vector<std::vector<std::size_t>> stratified_folds(const Dataset& dataset, std::size_t k,
                                                       util::Rng& rng);

}  // namespace seg::ml
