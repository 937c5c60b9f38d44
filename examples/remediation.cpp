// Remediation workflow: from one day of traffic to a prioritized list of
// machines to clean up (Section VI's operational argument).
//
// Train on today's traffic, calibrate the detection threshold for a 1% FP
// budget on today's known domains, detect new control domains among the
// unknowns, and print the worklist of implicated machines — including the
// infections a blacklist-only workflow would have missed.
//
// Build & run:  ./build/examples/remediation
#include <cstdio>

#include "core/calibration.h"
#include "core/infection_report.h"
#include "sim/world.h"

int main() {
  using namespace seg;

  sim::World world{sim::ScenarioConfig::small()};
  core::SegugioConfig config;
  config.forest.num_trees = 60;

  const dns::Day day = 1;
  const auto trace = world.generate_day(0, day);
  const auto graph = core::Segugio::prepare_graph(
                         trace, world.psl(),
                         world.blacklist().as_of(sim::BlacklistKind::kCommercial, day),
                         world.whitelist().all(), config.prepare_options())
                         .graph;
  core::Segugio segugio(config);
  segugio.train(graph, world.activity(), world.pdns());

  const auto calibration =
      core::calibrate_threshold(segugio, graph, world.activity(), world.pdns(), 0.01);
  std::printf("calibrated threshold %.3f (TPR %.2f at FPR %.4f on %zu known domains)\n",
              calibration.threshold, calibration.achieved_tpr, calibration.achieved_fpr,
              calibration.malware_domains + calibration.benign_domains);

  const auto detections = segugio.classify(graph, world.activity(), world.pdns());
  const auto report =
      core::enumerate_infections(graph, detections, calibration.threshold);

  std::printf("\nremediation worklist: %zu machines (%zu found only via new detections)\n",
              report.machines.size(), report.newly_implicated);
  std::printf("%-14s %-9s %-22s %s\n", "machine", "evidence", "ground truth",
              "top implicating domains");
  std::size_t shown = 0;
  for (const auto& machine : report.machines) {
    if (shown++ >= 12) {
      break;
    }
    std::string domains;
    for (std::size_t i = 0; i < machine.known_domains.size() && i < 2; ++i) {
      domains += machine.known_domains[i] + " ";
    }
    for (std::size_t i = 0; i < machine.detected_domains.size() && i < 2; ++i) {
      domains += machine.detected_domains[i].name + "(new) ";
    }
    std::printf("%-14s %-9zu %-22s %s\n", machine.name.c_str(), machine.evidence(),
                world.is_infected_machine(machine.name) ? "[infected]" : "[check manually]",
                domains.c_str());
  }
  return 0;
}
