// Figure 12 + Table IV reproduction: comparison with Notos.
//
// Protocol (Section V): both systems are trained on day t_train — Notos
// from a blacklist superset plus the top-popularity whitelist, Segugio
// from the same top whitelist for balance — and tested 24 days later. The
// true positives are the malware-control domains added to the commercial
// blacklist *between* t_train and t_test; false positives are counted over
// the stable whitelist minus the top subset used in training.
//
// Paper findings: Notos needs 16-21% FPs to reach its best TP (< 56%,
// capped by its reject option); Segugio reaches 75-91% TPs below 0.7% FPs.
// Table IV attributes most Notos FPs to domains hosted in "dirty" IP
// space that malware also used.
#include <cstdio>

#include "baselines/notos_like.h"
#include "bench_common.h"
#include "graph/labeling.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace seg;

struct Scored {
  std::string name;
  int label = 0;
  double segugio = 0.0;
  bool notos_rejected = false;
  double notos = -1.0;  // rejected domains sit below every threshold
  graph::DomainId id = 0;
};

}  // namespace

int main() {
  auto& world = bench::bench_world();
  bench::print_header("Figure 12: Notos vs Segugio (train day 5, test day 29)");

  constexpr dns::Day kTrainDay = 5;
  constexpr dns::Day kTestDay = 29;
  const auto config = bench::bench_config();

  // Top-popularity whitelist used for training both systems; the rest of
  // the whitelist measures FPs.
  const std::size_t top_k = world.whitelist().stable_entries().size() / 5;
  const auto top_whitelist = world.whitelist().top(top_k);
  const auto blacklist_train = world.blacklist().as_of(sim::BlacklistKind::kCommercial, kTrainDay);
  // Notos's blacklist is a superset: commercial plus public view.
  graph::NameSet notos_blacklist = blacklist_train;
  for (const auto& name : world.blacklist().as_of(sim::BlacklistKind::kPublic, kTrainDay)) {
    notos_blacklist.insert(name);
  }

  // --- Training.
  const auto train_trace = world.generate_day(1, kTrainDay);
  const auto train_graph = core::Segugio::prepare_graph(train_trace, world.psl(),
                                                        blacklist_train, top_whitelist,
                                                        config.prepare_options())
                               .graph;
  core::Segugio segugio(config);
  segugio.train(train_graph, world.activity(), world.pdns());

  baselines::NotosConfig notos_config;
  baselines::NotosLikeClassifier notos(notos_config);
  notos.train(train_graph, world.activity(), world.pdns(), notos_blacklist, top_whitelist);

  // --- Test graph: labeled with the *training-day* blacklist so domains
  // blacklisted later stay unknown, and the full whitelist for benign.
  const auto test_trace = world.generate_day(1, kTestDay);
  auto test_graph = core::Segugio::prepare_graph(test_trace, world.psl(), blacklist_train,
                                                 world.whitelist().all(),
                                                 config.prepare_options())
                        .graph;

  // Ground truth positives: commercially listed in (t_train, t_test].
  const auto blacklist_test = world.blacklist().as_of(sim::BlacklistKind::kCommercial, kTestDay);
  graph::NameSet new_malware;
  for (const auto& name : blacklist_test) {
    if (!blacklist_train.contains(name)) {
      new_malware.insert(name);
    }
  }

  const features::FeatureExtractor extractor(test_graph, world.activity(), world.pdns(),
                                             config.features);
  std::vector<Scored> rows;
  for (graph::DomainId d = 0; d < test_graph.domain_count(); ++d) {
    const auto name = std::string(test_graph.domain_name(d));
    const auto label = test_graph.domain_label(d);
    Scored row;
    row.name = name;
    row.id = d;
    if (label == graph::Label::kUnknown && new_malware.contains(name)) {
      row.label = 1;
      row.segugio = segugio.score(extractor.extract(d));
    } else if (label == graph::Label::kBenign &&
               !top_whitelist.contains(test_graph.e2ld_name(test_graph.domain_e2ld(d)))) {
      row.label = 0;
      row.segugio = segugio.score(extractor.extract_hiding_label(d));
    } else {
      continue;
    }
    const auto notos_score = notos.score(test_graph, d, world.activity(), world.pdns());
    row.notos_rejected = !notos_score.has_value();
    row.notos = notos_score.value_or(-1.0);
    rows.push_back(std::move(row));
  }

  std::vector<int> labels;
  std::vector<double> segugio_scores;
  std::vector<double> notos_scores;
  std::size_t positives = 0;
  std::size_t rejected_positives = 0;
  for (const auto& row : rows) {
    labels.push_back(row.label);
    segugio_scores.push_back(row.segugio);
    notos_scores.push_back(row.notos);
    if (row.label == 1) {
      ++positives;
      rejected_positives += row.notos_rejected ? 1 : 0;
    }
  }
  std::printf("newly blacklisted malware-control domains in the test traffic: %zu "
              "(paper: 44 and 36)\n",
              positives);
  std::printf("of which Notos refuses to classify (reject option): %zu\n\n",
              rejected_positives);

  const auto segugio_roc = ml::RocCurve::compute(labels, segugio_scores);
  const auto notos_roc = ml::RocCurve::compute(labels, notos_scores);

  std::printf("%-26s %-18s %s\n", "operating point", "Notos", "Segugio");
  for (const double fpr : {0.001, 0.005, 0.007, 0.05, 0.1, 0.2}) {
    std::printf("TPR at FPR <= %-12s %-18s %s\n",
                (util::format_double(100.0 * fpr, 1) + "%").c_str(),
                util::format_double(notos_roc.tpr_at_fpr(fpr), 3).c_str(),
                util::format_double(segugio_roc.tpr_at_fpr(fpr), 3).c_str());
  }
  std::printf("max TPR below 50%% FPs:     %-18s %s\n",
              util::format_double(notos_roc.tpr_at_fpr(0.5), 3).c_str(),
              util::format_double(segugio_roc.tpr_at_fpr(0.5), 3).c_str());
  std::printf("(rejected domains are undetectable at any practical threshold)\n");
  std::printf("\npaper: Notos needs 16-21%% FPs for its best TPs (< 0.56, reject-capped);\n"
              "Segugio reaches 0.75-0.91 TPs below 0.7%% FPs.\n");

  // --- Table IV: break down Notos's FPs at the threshold where it reaches
  // (95% of) its best achievable TP rate — the paper's "adjust the
  // threshold so Notos detects the blacklisted domains".
  bench::print_header("Table IV: break-down of Notos's false positives");
  double notos_threshold = -1.0;
  {
    const double target = 0.95 * notos_roc.tpr_at_fpr(0.5);
    for (const auto& point : notos_roc.points()) {
      if (point.tpr >= target) {
        notos_threshold = point.threshold;
        break;
      }
    }
  }
  std::size_t fp_total = 0;
  std::size_t dirty_hosting = 0;
  std::size_t sandbox_queried = 0;
  std::size_t ip_malware = 0;
  std::size_t prefix_malware = 0;
  std::size_t no_evidence = 0;
  for (const auto& row : rows) {
    if (row.label != 0 || row.notos_rejected || row.notos < notos_threshold) {
      continue;
    }
    ++fp_total;
    const auto ips = test_graph.resolved_ips(row.id);
    bool in_dirty = false;
    bool ip_hit = false;
    bool prefix_hit = false;
    for (const auto ip : ips) {
      // "Dirty network": the shared pool bulletproof hosting also uses.
      in_dirty |= (ip.value() & 0xff000000u) == 0xB9000000u;
      ip_hit |= world.pdns().ip_malware_associated(ip, kTestDay - 150, kTestDay - 1);
      prefix_hit |= world.pdns().prefix_malware_associated(ip, kTestDay - 150, kTestDay - 1);
    }
    if (in_dirty) {
      ++dirty_hosting;
    } else if (world.sandbox().contacted_by_malware(row.name)) {
      ++sandbox_queried;
    } else if (ip_hit) {
      ++ip_malware;
    } else if (prefix_hit) {
      ++prefix_malware;
    } else {
      ++no_evidence;
    }
  }
  util::TextTable table({"Category", "count", "share", "paper share"});
  const auto share = [&](std::size_t n) {
    return fp_total == 0 ? std::string("-")
                         : util::format_double(100.0 * n / fp_total, 1) + "%";
  };
  table.add_row({"All Notos FPs", std::to_string(fp_total), "100%", "13,432 total"});
  table.add_row({"Hosted in dirty networks", std::to_string(dirty_hosting),
                 share(dirty_hosting), "13.6%"});
  table.add_row({"Queried by sandboxed malware", std::to_string(sandbox_queried),
                 share(sandbox_queried), "1.7%"});
  table.add_row({"IPs previously used by malware", std::to_string(ip_malware),
                 share(ip_malware), "15%"});
  table.add_row({"/24 used by malware", std::to_string(prefix_malware),
                 share(prefix_malware), "54.7%"});
  table.add_row({"No evidence (pure reputation FPs)", std::to_string(no_evidence),
                 share(no_evidence), "15%"});
  std::printf("%s", table.render().c_str());
  return 0;
}
