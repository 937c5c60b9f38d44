// Workload generator for the segugio benchmark.
//
//   segbench_gen --workload NAME --seed N --out DIR
//
// Builds one seeded sim::World and writes everything a workload driver
// needs into DIR: the traces (SEGTRC1 binlog days or one multi-day dnstap
// capture), one commercial C&C blacklist per day, the e2LD whitelist, the
// PSL rules, the activity and passive-DNS history stores, a manifest with
// the record count of every day, and truth.txt — the true malware-control
// names seen in the traces, read only by the benchmark's checker. The
// driver never constructs a World, so simulation cost and memory stay out
// of its set-up time and peak RSS.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dns/public_suffix_list.h"
#include "dns/query_log.h"
#include "dns/wire/dnstap.h"
#include "sim/world.h"

namespace {

using namespace seg;

// Population and day count of each workload. `binlog_days` writes one
// SEGTRC1 file per day; otherwise all days go into one dnstap capture.
struct WorkloadShape {
  std::string_view name;
  std::size_t machines;
  dns::Day days;
  bool binlog_days;
};

constexpr WorkloadShape kShapes[] = {
    // One ISP at the bench population; day 0 is the driver's warm-up day.
    {"daily-retrain", 8000, 5, true},
    // A four-day resolver tap of a smaller ISP in one capture file, sized
    // so one session takes a few seconds and a run holds several.
    {"tap-replay", 3000, 4, false},
    // 4x the largest heap population (16 K machines) of the bench scenario.
    {"oocore-bigday", 64000, 2, true},
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "segbench_gen: %s\n", message.c_str());
  std::exit(2);
}

void write_sorted(const std::vector<std::string>& names, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    die("cannot create " + path);
  }
  for (const auto& name : names) {
    out << name << '\n';
  }
}

void write_name_set(const graph::NameSet& set, const std::string& path) {
  std::vector<std::string> names(set.begin(), set.end());
  std::sort(names.begin(), names.end());
  write_sorted(names, path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--out") {
      out_dir = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else {
      die("unknown flag " + std::string(flag));
    }
  }
  const auto* shape = std::find_if(std::begin(kShapes), std::end(kShapes),
                                   [&](const WorkloadShape& s) { return s.name == workload; });
  if (shape == std::end(kShapes) || out_dir.empty() || !have_seed) {
    die("usage: segbench_gen --workload daily-retrain|tap-replay|oocore-bigday --seed N --out DIR");
  }

  auto scenario = sim::ScenarioConfig::bench();
  scenario.seed = seed;
  scenario.isp_machines = {shape->machines};
  sim::World world{scenario};

  std::ofstream manifest(out_dir + "/manifest.txt");
  if (!manifest) {
    die("cannot create manifest in " + out_dir);
  }
  manifest << "workload " << shape->name << "\nseed " << seed << "\nmachines "
           << shape->machines << "\n";

  std::set<std::string> truth;
  dns::DayTrace capture;  // all days, for the dnstap workload
  for (dns::Day day = 0; day < shape->days; ++day) {
    auto trace = world.generate_day(0, day);
    for (const auto& record : trace.records) {
      if (world.is_true_malware(record.qname)) {
        truth.insert(record.qname);
      }
    }
    manifest << "day " << day << " " << trace.records.size() << "\n";
    write_name_set(world.blacklist().as_of(sim::BlacklistKind::kCommercial, day),
                   out_dir + "/blacklist-day" + std::to_string(day) + ".txt");
    if (shape->binlog_days) {
      dns::write_trace_binary(trace, out_dir + "/day" + std::to_string(day) + ".bin");
    } else {
      capture.records.insert(capture.records.end(),
                             std::make_move_iterator(trace.records.begin()),
                             std::make_move_iterator(trace.records.end()));
    }
  }
  if (!shape->binlog_days) {
    dns::wire::write_dnstap_trace(capture, out_dir + "/capture.dnstap");
  }

  write_name_set(world.whitelist().all(), out_dir + "/whitelist.txt");
  write_sorted({truth.begin(), truth.end()}, out_dir + "/truth.txt");
  {
    std::ofstream out(out_dir + "/psl.txt");
    out << dns::default_public_suffix_rules();
  }
  {
    std::ofstream out(out_dir + "/activity.txt");
    world.activity().save(out);
  }
  {
    std::ofstream out(out_dir + "/pdns.txt");
    world.pdns().save(out);
    if (!out) {
      die("cannot write history stores to " + out_dir);
    }
  }
  manifest << "end\n";
  return manifest ? 0 : 2;
}
