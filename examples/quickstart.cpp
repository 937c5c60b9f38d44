// Quickstart: the whole Segugio pipeline on a hand-written toy trace.
//
//   1. describe one day of DNS query logs (who queried what);
//   2. label ground truth from a blacklist and a whitelist;
//   3. train the behavior-based classifier;
//   4. classify the unknown domains of a second day and print detections.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/segugio.h"
#include "graph/labeling.h"

namespace {

using seg::dns::DayTrace;
using seg::dns::IpV4;

// One day of traffic: machines i1/i2 are infected (they query the known C&C
// domain plus, on day 2, a *new* C&C domain); b1..b3 only browse.
DayTrace make_day(seg::dns::Day day) {
  DayTrace trace;
  trace.day = day;
  const auto q = [&](const char* machine, const char* domain, const char* ip) {
    trace.records.push_back({day, machine, domain, {IpV4::parse(ip)}});
  };
  // Benign browsing: everyone hits the popular sites.
  for (const char* machine : {"i1", "i2", "b1", "b2", "b3"}) {
    q(machine, "www.search-engine.com", "23.0.0.10");
    q(machine, "news.daily-paper.com", "23.0.1.10");
    q(machine, "cdn.video-site.com", "23.0.2.10");
    q(machine, "mail.web-mail.org", "23.0.3.10");
    q(machine, "shop.mega-store.net", "23.0.4.10");
    q(machine, "www.social-net.com", "23.0.5.10");
  }
  // The known C&C domain, queried by both infected machines every day.
  q("i1", "update.known-evil.biz", "185.66.1.10");
  q("i2", "update.known-evil.biz", "185.66.1.10");
  // Day 2: the malware relocates to a NEW control domain in the same
  // bulletproof /24 — this is what Segugio is built to catch.
  if (day >= 2) {
    q("i1", "panel.fresh-evil.info", "185.66.1.77");
    q("i2", "panel.fresh-evil.info", "185.66.1.77");
  }
  // A sixth machine that never touches the popular sites. It keeps the R4
  // "too popular" threshold (a fraction of ALL machines) above the sites'
  // machine counts in this tiny example; R1 prunes it away afterwards.
  q("lurker", "one-off-a.example.org", "23.9.0.1");
  q("lurker", "one-off-b.example.org", "23.9.0.2");
  return trace;
}

}  // namespace

int main() {
  const auto psl = seg::dns::PublicSuffixList::with_default_rules();

  // Ground truth sources.
  seg::graph::NameSet blacklist;
  blacklist.insert("update.known-evil.biz");
  seg::graph::NameSet whitelist;  // popular effective 2LDs
  for (const char* e2ld : {"search-engine.com", "daily-paper.com", "video-site.com",
                           "web-mail.org", "mega-store.net", "social-net.com"}) {
    whitelist.insert(e2ld);
  }

  // History substrates: domain activity and passive DNS. The known C&C IP
  // space was abused before; the popular sites have been active for weeks.
  seg::dns::DomainActivityIndex activity;
  seg::dns::PassiveDnsDb pdns;
  for (seg::dns::Day day = -30; day <= 0; ++day) {
    for (const char* name : {"www.search-engine.com", "search-engine.com",
                             "news.daily-paper.com", "daily-paper.com",
                             "cdn.video-site.com", "video-site.com",
                             "mail.web-mail.org", "web-mail.org",
                             "shop.mega-store.net", "mega-store.net",
                             "www.social-net.com", "social-net.com"}) {
      activity.mark_active(name, day);
    }
    activity.mark_active("update.known-evil.biz", day);
    activity.mark_active("known-evil.biz", day);
    pdns.add_observation(day, IpV4::parse("185.66.1.10"),
                         seg::dns::PdnsAssociation::kMalware);
    // The bulletproof /24 hosted other C&C servers in the past, including
    // the address the malware will relocate to.
    pdns.add_observation(day, IpV4::parse("185.66.1.77"),
                         seg::dns::PdnsAssociation::kMalware);
    for (int site = 0; site < 6; ++site) {
      pdns.add_observation(day, IpV4::from_octets(23, 0, static_cast<uint8_t>(site), 10),
                           seg::dns::PdnsAssociation::kBenign);
    }
  }

  // Toy-friendly knobs: the defaults assume thousands of machines.
  seg::core::SegugioConfig config;
  config.pruning.inactive_machine_max_degree = 2;
  config.pruning.popular_e2ld_fraction = 1.0;  // don't prune the popular sites
  config.forest.num_trees = 30;

  // --- Train on day 1.
  const auto day1 = make_day(1);
  const auto graph1 = seg::core::Segugio::prepare_graph(day1, psl, blacklist, whitelist,
                                                        config.prepare_options())
                          .graph;
  seg::core::Segugio segugio(config);
  segugio.train(graph1, activity, pdns);
  std::printf("trained on day 1: %zu machines, %zu domains (%zu known malware)\n",
              graph1.machine_count(), graph1.domain_count(),
              graph1.count_domains_with(seg::graph::Label::kMalware));

  // --- Classify day 2 (mark the new day active first).
  const auto day2 = make_day(2);
  activity.mark_active("panel.fresh-evil.info", 2);
  activity.mark_active("fresh-evil.info", 2);
  const auto graph2 = seg::core::Segugio::prepare_graph(day2, psl, blacklist, whitelist,
                                                        config.prepare_options())
                          .graph;
  const auto report = segugio.classify(graph2, activity, pdns);

  std::printf("\nunknown domains on day 2, by malware score:\n");
  for (const auto& scored : report.scores) {
    std::printf("  %-24s %.3f\n", scored.name.c_str(), scored.score);
  }
  std::printf("\ndetections at threshold 0.5 (with implicated machines):\n");
  for (const auto& detection : report.detections_at(0.5)) {
    std::printf("  %-24s %.3f  machines:", detection.domain.name.c_str(),
                detection.domain.score);
    for (const auto& machine : detection.machines) {
      std::printf(" %s", machine.c_str());
    }
    std::printf("\n");
  }
  return 0;
}
