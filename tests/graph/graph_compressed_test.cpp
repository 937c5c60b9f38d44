// Round-trip and zero-copy tests for the `segf1 graphc 1` container
// (graph_compressed.h): both encodings must reload bit-identically, the
// mmap-backed GraphView must serve exactly what the heap graph serves, and
// corruption must surface as util::ParseError.
#include "graph/graph_compressed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>

#include "graph/graph_view.h"
#include "graph/labeling.h"
#include "graph/pruning.h"
#include "util/require.h"

namespace seg::graph {
namespace {

class GraphCompressedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("seg_graphc_test_" + std::to_string(::getpid()) + ".graphc"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  dns::PublicSuffixList psl_ = dns::PublicSuffixList::with_default_rules();
  std::string path_;

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
    add("m3", "cdn.other.net", "9.9.9.9");
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

  void write_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  static std::string graph_bytes(const MachineDomainGraph& graph) {
    std::ostringstream blob;
    save_graph_compressed(graph, blob, GraphcEncoding::kCompact);
    return std::move(blob).str();
  }
};

TEST_F(GraphCompressedTest, PackedRoundTripIsLossless) {
  const auto graph = make_graph();
  std::stringstream blob;
  save_graph_compressed(graph, blob, GraphcEncoding::kPacked);
  const auto loaded = load_graph_compressed(blob);
  EXPECT_EQ(graph_bytes(loaded), graph_bytes(graph));
}

TEST_F(GraphCompressedTest, CompactRoundTripIsLossless) {
  const auto graph = make_graph();
  std::stringstream blob;
  save_graph_compressed(graph, blob, GraphcEncoding::kCompact);
  const auto loaded = load_graph_compressed(blob);
  EXPECT_EQ(graph_bytes(loaded), graph_bytes(graph));
}

TEST_F(GraphCompressedTest, EmptyGraphRoundTripsInBothEncodings) {
  // Built-but-empty, not default-constructed: like segf1, graphc
  // serializes graphs produced by the builder/loader (whose offset tables
  // always hold n+1 entries).
  const auto empty = GraphBuilder(psl_).build();
  for (const auto encoding : {GraphcEncoding::kPacked, GraphcEncoding::kCompact}) {
    std::stringstream blob;
    save_graph_compressed(empty, blob, encoding);
    const auto loaded = load_graph_compressed(blob);
    EXPECT_EQ(loaded.machine_count(), 0u);
    EXPECT_EQ(loaded.domain_count(), 0u);
    EXPECT_EQ(loaded.edge_count(), 0u);
  }
}

TEST_F(GraphCompressedTest, MappedViewServesExactlyTheHeapGraph) {
  const auto graph = make_graph();
  {
    std::ofstream out(path_, std::ios::binary);
    save_graph_compressed(graph, out, GraphcEncoding::kPacked);
  }
  const auto mapped = map_graph(path_);
  const auto& view = mapped.view;

  EXPECT_EQ(view.day(), graph.day());
  ASSERT_EQ(view.machine_count(), graph.machine_count());
  ASSERT_EQ(view.domain_count(), graph.domain_count());
  EXPECT_EQ(view.edge_count(), graph.edge_count());
  EXPECT_EQ(view.e2ld_count(), graph.e2ld_count());

  for (MachineId m = 0; m < graph.machine_count(); ++m) {
    EXPECT_EQ(view.machine_name(m), graph.machine_name(m));
    EXPECT_EQ(view.machine_label(m), graph.machine_label(m));
    const auto a = view.domains_of(m);
    const auto b = graph.domains_of(m);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  for (DomainId d = 0; d < graph.domain_count(); ++d) {
    EXPECT_EQ(view.domain_name(d), graph.domain_name(d));
    EXPECT_EQ(view.domain_label(d), graph.domain_label(d));
    EXPECT_EQ(view.e2ld_name(view.domain_e2ld(d)), graph.e2ld_name(graph.domain_e2ld(d)));
    const auto a = view.machines_of(d);
    const auto b = graph.machines_of(d);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    const auto va = view.resolved_ips(d);
    const auto vb = graph.resolved_ips(d);
    ASSERT_EQ(va.size(), vb.size());
    EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin()));
  }
}

TEST_F(GraphCompressedTest, MappedLoadIsByteStableThroughResave) {
  // mmap view -> packed save must reproduce the original file bytes: the
  // view serves the serializer directly, so no information is rewritten.
  const auto graph = make_graph();
  std::ostringstream first;
  save_graph_compressed(graph, first, GraphcEncoding::kPacked);
  {
    std::ofstream out(path_, std::ios::binary);
    out << first.str();
  }
  const auto mapped = map_graph(path_);
  std::ostringstream second;
  save_graph_compressed(mapped.view, second, GraphcEncoding::kPacked);
  EXPECT_EQ(first.str(), second.str());
}

TEST_F(GraphCompressedTest, TruncatedStreamsAreRejected) {
  const auto graph = make_graph();
  for (const auto encoding : {GraphcEncoding::kPacked, GraphcEncoding::kCompact}) {
    std::ostringstream blob;
    save_graph_compressed(graph, blob, encoding);
    const auto full = blob.str();
    // Chop at several depths: inside the text header, the binary header,
    // and the section payloads.
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{40}, std::size_t{90}, full.size() - 1}) {
      std::istringstream in(full.substr(0, keep));
      EXPECT_THROW(load_graph_compressed(in), util::ParseError)
          << "encoding " << static_cast<int>(encoding) << " keep " << keep;
    }
  }
}

TEST_F(GraphCompressedTest, TruncatedMappedFileIsRejected) {
  const auto graph = make_graph();
  std::ostringstream blob;
  save_graph_compressed(graph, blob, GraphcEncoding::kPacked);
  const auto full = blob.str();
  {
    std::ofstream out(path_, std::ios::binary);
    out << full.substr(0, full.size() - 8);
  }
  EXPECT_THROW(map_graph(path_), util::ParseError);
}

TEST_F(GraphCompressedTest, RejectsForeignHeader) {
  std::istringstream in(std::string("segf1 namecache 1\n") + std::string(96, '\0'));
  EXPECT_THROW(load_graph_compressed(in), util::ParseError);
  std::istringstream headerless("not a graph at all");
  EXPECT_THROW(load_graph_compressed(headerless), util::ParseError);
}

TEST_F(GraphCompressedTest, RejectsCorruptLabelByte) {
  const auto graph = make_graph();
  std::ostringstream blob;
  save_graph_compressed(graph, blob, GraphcEncoding::kCompact);
  auto bytes = blob.str();
  bytes.back() = 0x7f;  // the compact stream ends with the last domain label
  std::istringstream in(bytes);
  EXPECT_THROW(load_graph_compressed(in), util::ParseError);
}

TEST_F(GraphCompressedTest, CompactEncodingRejectsTrailingGarbage) {
  const auto graph = make_graph();
  std::ostringstream blob;
  save_graph_compressed(graph, blob, GraphcEncoding::kCompact);
  std::istringstream in(blob.str() + "x");
  EXPECT_THROW(load_graph_compressed(in), util::ParseError);
}

TEST_F(GraphCompressedTest, WordSplatIsRejectedOrLoadsAValidGraph) {
  // 0x7fffffff over each 4-byte word of a packed file in turn: each loader
  // must throw ParseError or hand back a graph that passes validate() and
  // survives prune. A corrupt target, offset or count must neither crash
  // the stream loader nor slip past map_graph as an out-of-range id.
  const auto graph = make_graph();
  std::ostringstream blob;
  save_graph_compressed(graph, blob, GraphcEncoding::kPacked);
  const auto full = blob.str();
  const std::uint32_t splat = 0x7fffffff;
  std::size_t rejected = 0;
  for (std::size_t at = 0; at + sizeof(splat) <= full.size(); at += sizeof(splat)) {
    auto bytes = full;
    std::memcpy(bytes.data() + at, &splat, sizeof(splat));

    std::optional<MachineDomainGraph> loaded;
    std::istringstream in(bytes);
    try {
      loaded = load_graph_compressed(in);
    } catch (const util::ParseError&) {
    }
    if (loaded) {
      EXPECT_NO_THROW(validate(*loaded)) << "byte " << at;
      EXPECT_NO_THROW(prune(*loaded, PruningConfig{})) << "byte " << at;
    } else {
      ++rejected;
    }

    write_file(bytes);
    std::optional<MappedGraph> mapped;
    try {
      mapped = map_graph(path_);
    } catch (const util::ParseError&) {
    }
    // One walker and one validate(): both loaders accept the same bytes.
    EXPECT_EQ(mapped.has_value(), loaded.has_value()) << "byte " << at;
    if (mapped) {
      EXPECT_NO_THROW(validate(mapped->view)) << "byte " << at;
      EXPECT_NO_THROW(prune(mapped->view, PruningConfig{})) << "byte " << at;
    }
  }
  // Header, offset, target, e2LD and label words are all rejected; name,
  // IP, day and padding words load.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, full.size() / sizeof(splat));
}

TEST_F(GraphCompressedTest, HeaderCountWhoseSectionSizeWrapsIsRejected) {
  // machines = 2^61 - 1 makes the machine name table's (machines + 1) * 8
  // bytes wrap to 0, and would have the compact decoder reserve 2^61 names.
  const auto graph = make_graph();
  const std::uint64_t machines = (std::uint64_t{1} << 61) - 1;
  const std::size_t machines_at = std::string_view("segf1 graphc 1\n").size() + 8;
  for (const auto encoding : {GraphcEncoding::kPacked, GraphcEncoding::kCompact}) {
    std::ostringstream blob;
    save_graph_compressed(graph, blob, encoding);
    auto bytes = blob.str();
    std::memcpy(bytes.data() + machines_at, &machines, sizeof(machines));
    std::istringstream in(bytes);
    EXPECT_THROW(load_graph_compressed(in), util::ParseError)
        << "encoding " << static_cast<int>(encoding);
    if (encoding == GraphcEncoding::kPacked) {
      write_file(bytes);
      EXPECT_THROW(map_graph(path_), util::ParseError);
    }
  }
}

}  // namespace
}  // namespace seg::graph
