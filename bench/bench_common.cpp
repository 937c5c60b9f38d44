#include "bench_common.h"

#include <cstdio>

#include "util/strings.h"

namespace seg::bench {

sim::World& bench_world() {
  static sim::World world{sim::ScenarioConfig::bench()};
  return world;
}

std::unique_ptr<InputBundle> make_bundle(sim::World& world, std::size_t train_isp,
                                         dns::Day train_day, std::size_t test_isp,
                                         dns::Day test_day, sim::BlacklistKind kind) {
  auto bundle = std::make_unique<InputBundle>();
  bundle->train_trace = world.generate_day(train_isp, train_day);
  bundle->test_trace = world.generate_day(test_isp, test_day);
  bundle->inputs.train_trace = &bundle->train_trace;
  bundle->inputs.test_trace = &bundle->test_trace;
  bundle->inputs.psl = &world.psl();
  bundle->inputs.activity = &world.activity();
  bundle->inputs.pdns = &world.pdns();
  bundle->inputs.train_blacklist = world.blacklist().as_of(kind, train_day);
  bundle->inputs.test_blacklist = world.blacklist().as_of(kind, test_day);
  bundle->inputs.whitelist = world.whitelist().all();
  return bundle;
}

core::SegugioConfig bench_config() {
  core::SegugioConfig config;
  config.forest.num_trees = 100;  // paper-style Random Forest
  return config;
}

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

const std::vector<double>& fpr_grid() {
  static const std::vector<double> grid = {0.0005, 0.001, 0.002, 0.005, 0.01};
  return grid;
}

void print_roc_operating_points(const std::string& label, const ml::RocCurve& roc,
                                const std::vector<double>& paper_tprs) {
  std::printf("%s (AUC %.4f; %zu malicious / %zu benign test domains)\n", label.c_str(),
              roc.auc(), roc.positives(), roc.negatives());
  std::printf("  %-12s %-10s %s\n", "FPR", "TPR", paper_tprs.empty() ? "" : "paper TPR");
  for (std::size_t i = 0; i < fpr_grid().size(); ++i) {
    const double fpr = fpr_grid()[i];
    std::printf("  %-12s %-10s", (util::format_double(100.0 * fpr, 2) + "%").c_str(),
                util::format_double(roc.tpr_at_fpr(fpr), 3).c_str());
    if (i < paper_tprs.size() && paper_tprs[i] >= 0.0) {
      std::printf(" ~%s", util::format_double(paper_tprs[i], 2).c_str());
    }
    std::printf("\n");
  }
}

}  // namespace seg::bench
