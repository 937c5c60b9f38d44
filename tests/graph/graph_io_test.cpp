// Heap graph file I/O through the default entry points: a graph written by
// save_graph_compressed at its default (compact) encoding and read back by
// load_graph_compressed keeps every name, label, edge, e2LD and IP; an
// empty built graph round-trips; a file cut in half is rejected with
// util::ParseError.
#include "graph/graph_compressed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/labeling.h"
#include "util/require.h"

namespace seg::graph {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  dns::PublicSuffixList psl_ = dns::PublicSuffixList::with_default_rules();

  MachineDomainGraph make_graph() {
    dns::DayTrace trace;
    trace.day = 42;
    const auto add = [&trace](const char* machine, const char* qname, const char* ip) {
      trace.records.push_back({42, machine, qname, {dns::IpV4::parse(ip)}});
    };
    add("m1", "cc.evil.biz", "185.1.2.3");
    add("m2", "cc.evil.biz", "185.1.2.3");
    add("m1", "www.good.com", "23.4.5.6");
    add("m2", "www.good.com", "23.4.5.7");
    add("m3", "sub.blog.narod.ru", "24.0.0.1");
    add("m1", "sub.blog.narod.ru", "24.0.0.1");
    GraphBuilder builder(psl_);
    builder.add_trace(trace);
    auto graph = builder.build();
    NameSet blacklist;
    blacklist.insert("cc.evil.biz");
    NameSet whitelist;
    whitelist.insert("good.com");
    apply_labels(graph, blacklist, whitelist);
    return graph;
  }
};

TEST_F(GraphIoTest, RoundTripPreservesEverything) {
  const auto graph = make_graph();
  std::stringstream blob;
  save_graph_compressed(graph, blob);
  const auto loaded = load_graph_compressed(blob);

  EXPECT_EQ(loaded.day(), graph.day());
  ASSERT_EQ(loaded.machine_count(), graph.machine_count());
  ASSERT_EQ(loaded.domain_count(), graph.domain_count());
  EXPECT_EQ(loaded.edge_count(), graph.edge_count());
  EXPECT_EQ(loaded.e2ld_count(), graph.e2ld_count());

  for (MachineId m = 0; m < graph.machine_count(); ++m) {
    EXPECT_EQ(loaded.machine_name(m), graph.machine_name(m));
    EXPECT_EQ(loaded.machine_label(m), graph.machine_label(m));
    const auto a = loaded.domains_of(m);
    const auto b = graph.domains_of(m);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  for (DomainId d = 0; d < graph.domain_count(); ++d) {
    EXPECT_EQ(loaded.domain_name(d), graph.domain_name(d));
    EXPECT_EQ(loaded.domain_label(d), graph.domain_label(d));
    EXPECT_EQ(loaded.e2ld_name(loaded.domain_e2ld(d)),
              graph.e2ld_name(graph.domain_e2ld(d)));
    const auto a = loaded.resolved_ips(d);
    const auto b = graph.resolved_ips(d);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST_F(GraphIoTest, EmptyGraphRoundTrips) {
  GraphBuilder builder(psl_);
  const auto graph = builder.build();
  std::stringstream blob;
  save_graph_compressed(graph, blob);
  const auto loaded = load_graph_compressed(blob);
  EXPECT_EQ(loaded.machine_count(), 0u);
  EXPECT_EQ(loaded.domain_count(), 0u);
}

TEST_F(GraphIoTest, RejectsTruncation) {
  const auto graph = make_graph();
  std::stringstream blob;
  save_graph_compressed(graph, blob);
  const auto full = blob.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_graph_compressed(truncated), util::ParseError);
}

}  // namespace
}  // namespace seg::graph
