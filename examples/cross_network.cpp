// Cross-network deployment: train Segugio on one ISP's traffic, deploy the
// model unchanged in a different ISP (Section IV-A's third experiment).
//
// The model also survives serialization — we save the trained forest to a
// string and reload it, as a real cross-site deployment would.
//
// Build & run:  ./build/examples/cross_network
#include <cstdio>
#include <sstream>

#include "core/experiment.h"
#include "sim/world.h"

int main() {
  using namespace seg;

  sim::World world{sim::ScenarioConfig::small()};

  core::SegugioConfig config;
  config.forest.num_trees = 60;

  // Train on ISP1 day 1, test on ISP2 day 6 (5-day gap).
  const auto train_trace = world.generate_day(0, 1);
  const auto test_trace = world.generate_day(1, 6);

  core::ExperimentInputs inputs;
  inputs.train_trace = &train_trace;
  inputs.test_trace = &test_trace;
  inputs.psl = &world.psl();
  inputs.activity = &world.activity();
  inputs.pdns = &world.pdns();
  inputs.train_blacklist = world.blacklist().as_of(sim::BlacklistKind::kCommercial, 1);
  inputs.test_blacklist = world.blacklist().as_of(sim::BlacklistKind::kCommercial, 6);
  inputs.whitelist = world.whitelist().all();

  const auto result = core::run_cross_day(inputs, config);
  const auto roc = result.roc();

  std::printf("cross-network test (train ISP1 day 1 -> test ISP2 day 6)\n");
  std::printf("test domains: %zu malicious, %zu benign\n", result.test_malicious(),
              result.test_benign());
  std::printf("AUC: %.4f\n", roc.auc());
  for (const double fpr : {0.001, 0.005, 0.01, 0.02, 0.05}) {
    std::printf("  TPR at FPR <= %.3f: %.3f\n", fpr, roc.tpr_at_fpr(fpr));
  }

  // Model portability: serialize / deserialize a trained forest.
  ml::RandomForestConfig forest_config;
  forest_config.num_trees = 20;
  ml::RandomForest forest(forest_config);
  {
    // Train a stand-alone forest on the same task to demonstrate the
    // save/load path end to end.
    const auto graph = core::Segugio::prepare_graph(train_trace, world.psl(),
                                                    inputs.train_blacklist, inputs.whitelist,
                                                    config.prepare_options())
                           .graph;
    const features::FeatureExtractor extractor(graph, world.activity(), world.pdns());
    const auto training = features::build_training_set(graph, extractor);
    forest.train(training.dataset);
  }
  std::stringstream blob;
  forest.save(blob);
  const auto restored = ml::RandomForest::load(blob);
  std::printf("\nserialized model: %zu trees, %zu bytes; reload OK (%zu trees)\n",
              forest.tree_count(), blob.str().size(), restored.tree_count());
  return 0;
}
