// Determinism contract of the sharded builder (docs/performance.md): for
// every shard/thread count the built graph must be byte-identical to the
// serial GraphBuilder's output — same ids, same CSR contents, same IPs,
// same e2LDs — so the parallel pipeline can replace the serial one without
// invalidating a single figure.
#include "graph/sharded_builder.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_compressed.h"
#include "graph/labeling.h"
#include "graph/pruning.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace seg::graph {
namespace {

std::string serialized(const MachineDomainGraph& graph) {
  std::ostringstream out;
  save_graph_compressed(graph, out, GraphcEncoding::kCompact);
  return out.str();
}

// A deliberately messy trace: duplicate (machine, domain) pairs, names
// needing normalization (uppercase, trailing dots), invalid names, shared
// e2LDs, and overlapping resolved-IP sets.
dns::DayTrace make_messy_trace(std::size_t records) {
  util::Rng rng(20240806);
  dns::DayTrace trace;
  trace.day = 17;
  trace.records.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    dns::QueryRecord record;
    record.day = 17;
    record.machine = "m" + std::to_string(rng.next_below(97));
    const auto host = rng.next_below(211);
    const auto zone = rng.next_below(13);
    std::string qname = "h" + std::to_string(host) + ".zone" + std::to_string(zone) + ".com";
    switch (rng.next_below(7)) {
      case 0:  // uppercase: normalizes to the same name
        qname = "H" + qname.substr(1);
        break;
      case 1:  // trailing dot: normalizes to the same name
        qname += ".";
        break;
      case 2:  // invalid: must be counted as skipped
        qname = "-bad-.example..com";
        break;
      default:
        break;
    }
    const auto ip_count = rng.next_below(3);
    for (std::uint64_t ip = 0; ip <= ip_count; ++ip) {
      record.resolved_ips.push_back(dns::IpV4((10u << 24) | static_cast<std::uint32_t>(
                                                  rng.next_below(50) + host)));
    }
    trace.records.push_back(std::move(record));
  }
  return trace;
}

TEST(ShardedGraphBuilderTest, BitIdenticalToSerialBuilderForAnyShardCount) {
  const auto psl = dns::PublicSuffixList::with_default_rules();
  const auto trace = make_messy_trace(5000);

  GraphBuilder serial(psl);
  serial.add_trace(trace);
  const auto serial_skipped_input = serial.skipped_records();
  const auto reference = serial.build();
  const auto reference_bytes = serialized(reference);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedGraphBuilder builder(psl, shards);
    builder.add_trace(trace);
    const auto graph = builder.build();
    EXPECT_EQ(builder.skipped_records(), serial_skipped_input);
    EXPECT_EQ(graph.day(), reference.day());
    EXPECT_EQ(serialized(graph), reference_bytes);
    // The retained name index answers lookups on the parallel build too.
    for (DomainId d = 0; d < graph.domain_count(); d += 37) {
      EXPECT_EQ(graph.find_domain(graph.domain_name(d)), d);
    }
    for (MachineId m = 0; m < graph.machine_count(); m += 11) {
      EXPECT_EQ(graph.find_machine(graph.machine_name(m)), m);
    }
  }
}

TEST(ShardedGraphBuilderTest, MultiTraceBuildMatchesSerial) {
  const auto psl = dns::PublicSuffixList::with_default_rules();
  const auto first = make_messy_trace(700);
  auto second = make_messy_trace(900);
  second.day = 19;

  GraphBuilder serial(psl);
  serial.add_trace(first);
  serial.add_trace(second);
  const auto reference = serial.build();

  ShardedGraphBuilder builder(psl, 4);
  builder.add_trace(first);
  builder.add_trace(second);
  const auto graph = builder.build();
  EXPECT_EQ(graph.day(), 19);
  EXPECT_EQ(serialized(graph), serialized(reference));
}

TEST(ShardedGraphBuilderTest, EmptyInputBuildsEmptyGraph) {
  const auto psl = dns::PublicSuffixList::with_default_rules();
  ShardedGraphBuilder builder(psl, 8);
  const auto graph = builder.build();
  EXPECT_EQ(graph.machine_count(), 0u);
  EXPECT_EQ(graph.domain_count(), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(ShardedGraphBuilderTest, BuilderIsReusableAfterBuild) {
  const auto psl = dns::PublicSuffixList::with_default_rules();
  const auto trace = make_messy_trace(300);
  ShardedGraphBuilder builder(psl, 3);
  builder.add_trace(trace);
  const auto first = builder.build();
  builder.add_trace(trace);
  const auto second = builder.build();
  EXPECT_EQ(serialized(first), serialized(second));
}

// Downstream stages are parallel too; labeling + pruning a sharded-built
// graph must give identical bytes for every pool size.
TEST(ShardedGraphBuilderTest, ParallelPruneMatchesForEveryPoolSize) {
  const auto psl = dns::PublicSuffixList::with_default_rules();
  const auto trace = make_messy_trace(4000);
  NameSet blacklist;
  blacklist.insert("h1.zone1.com");
  blacklist.insert("h2.zone2.com");
  NameSet whitelist;
  whitelist.insert("zone3.com");

  const auto prepare = [&]() {
    ShardedGraphBuilder builder(psl);
    builder.add_trace(trace);
    auto graph = builder.build();
    apply_labels(graph, blacklist, whitelist);
    PruningConfig config;
    config.proxy_degree_percentile = 0.999;
    return serialized(prune(graph, config));
  };

  util::set_parallelism(1);
  const auto serial_bytes = prepare();
  util::set_parallelism(8);
  const auto parallel_bytes = prepare();
  util::set_parallelism(0);  // restore default for other tests
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

}  // namespace
}  // namespace seg::graph
