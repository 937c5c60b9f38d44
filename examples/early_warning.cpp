// Early-warning loop: detect malware-control domains before the blacklist
// lists them (the Section IV-F scenario).
//
// For several consecutive days the operator trains on the day's traffic,
// detects new suspicious domains among the *unknown* ones, and files them.
// Afterwards we check, against the (lagged) commercial blacklist, how many
// detected domains were later confirmed — and by how many days Segugio was
// ahead.
//
// Build & run:  ./build/examples/early_warning
#include <cstdio>
#include <map>
#include <string>

#include "core/calibration.h"
#include "core/segugio.h"
#include "ml/metrics.h"
#include "sim/world.h"

int main() {
  using namespace seg;

  sim::World world{sim::ScenarioConfig::small()};
  core::SegugioConfig config;
  config.forest.num_trees = 60;

  constexpr dns::Day kFirstDay = 0;
  constexpr dns::Day kLastDay = 3;
  constexpr dns::Day kLookaheadDays = 35;
  constexpr double kFprBudget = 0.02;

  // domain -> day Segugio first flagged it
  std::map<std::string, dns::Day> flagged;

  for (dns::Day day = kFirstDay; day <= kLastDay; ++day) {
    const auto trace = world.generate_day(0, day);
    const auto blacklist = world.blacklist().as_of(sim::BlacklistKind::kCommercial, day);
    const auto graph = core::Segugio::prepare_graph(trace, world.psl(), blacklist,
                                                    world.whitelist().all(),
                                                    config.prepare_options())
                           .graph;
    core::Segugio segugio(config);
    segugio.train(graph, world.activity(), world.pdns());

    // Threshold calibrated on the training day's own known domains (their
    // labels hidden), for the target FP budget.
    const double threshold =
        core::calibrate_threshold(segugio, graph, world.activity(), world.pdns(), kFprBudget)
            .threshold;

    const auto report = segugio.classify(graph, world.activity(), world.pdns());
    std::size_t new_flags = 0;
    for (const auto& scored : report.scores) {
      if (scored.score >= threshold && !flagged.contains(scored.name)) {
        flagged.emplace(scored.name, day);
        ++new_flags;
      }
    }
    std::printf("day %d: threshold=%.3f, %zu unknown domains, %zu new flags\n", day,
                threshold, report.scores.size(), new_flags);
  }

  // Confirmations: flagged domains that the blacklist added within the
  // following 35 days.
  std::printf("\n== early-detection results (lookahead %d days) ==\n", kLookaheadDays);
  std::map<dns::Day, int> gap_histogram;
  std::size_t confirmed = 0;
  for (const auto& [name, detect_day] : flagged) {
    const auto listed = world.blacklist().listed_day(name, sim::BlacklistKind::kCommercial);
    if (!listed.has_value() || *listed <= detect_day ||
        *listed > detect_day + kLookaheadDays) {
      continue;
    }
    ++confirmed;
    ++gap_histogram[*listed - detect_day];
  }
  std::printf("flagged domains: %zu, later blacklisted: %zu\n", flagged.size(), confirmed);
  std::printf("lead time (days before blacklist) -> count:\n");
  for (const auto& [gap, count] : gap_histogram) {
    std::printf("  %2d days early: %d\n", gap, count);
  }
  return 0;
}
