// Compact on-disk behavior graphs: the `segf1 graphc 1` container.
//
// One container, two encodings (docs/graph-format.md has the byte-level
// layout):
//
//   packed (1)  — fixed-width little-endian sections, 8-byte aligned, in
//                 a deterministic order computed from the header counts.
//                 Memory-mappable: map_graph() serves every GraphView
//                 accessor straight off the mapping (zero-copy load).
//   compact (2) — split degree/edge/IP-set/label streams, with each
//                 strictly-ascending adjacency run delta + varint coded
//                 (util/varint.h). Roughly 3x smaller than an uncompressed
//                 layout that widens every stored id to 8 bytes.
//
// Both encodings carry every field of a MachineDomainGraph except the
// name->id directory (rebuilt on load): round-trips are lossless, and the
// loaded graph is bit-identical to the source
// (tests/graph/graph_compressed_test.cpp asserts serialized equality). The
// out-of-core preparer (graph/oocore.h) streams the packed encoding
// section-by-section through detail::PackedGraphcWriter, and its output is
// byte-identical to save_graph_compressed() of the equivalent heap-built
// graph. On the way back there is one header parser and one packed-section
// walker, shared by map_graph() and load_graph_compressed(), and every
// loaded graph passes validate().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "util/mmap_file.h"

namespace seg::graph {

enum class GraphcEncoding : std::uint8_t { kPacked = 1, kCompact = 2 };

/// Serializes a graph (any backing) as a `segf1 graphc 1` stream.
void save_graph_compressed(const GraphView& graph, std::ostream& out,
                           GraphcEncoding encoding = GraphcEncoding::kCompact);

/// Loads either encoding back into a heap-resident graph. The stream is
/// read into an 8-byte-aligned buffer; a packed stream goes through the
/// same section walker as map_graph() and is copied out, a compact one is
/// decoded. Both are checked by validate(). Throws util::ParseError on
/// malformed, truncated or trailing input.
MachineDomainGraph load_graph_compressed(std::istream& in);

/// A packed graphc file mapped into memory, with a GraphView serving the
/// sections in place. The view borrows the mapping: keep the MappedGraph
/// alive as long as the view (or anything constructed over it) is in use.
struct MappedGraph {
  util::MmapFile file;
  GraphView view;
};

/// Memory-maps a packed graphc file for zero-copy reads. Throws
/// util::ParseError when the file is not a packed graphc container, a
/// section runs past the end of the file or the file runs past the last
/// one, or the view fails validate(). SEG_NUMA_POLICY placement is applied
/// to the mapping (util/mmap_file.h).
MappedGraph map_graph(const std::string& path);

/// Checks the structure every consumer indexes without checking, in
/// O(V + E), and throws util::ParseError on the first violation:
///   - the machine, domain and IP offset tables hold rows + 1 entries,
///     start at 0, never decrease and end at the edge and IP counts;
///   - both directions hold the same edge count, and every machine
///     target is a domain id and every domain target a machine id;
///   - every e2LD id is below the e2LD count;
///   - the e2LD and label sections have one entry per node, and every
///     label byte is at most 2.
/// Called on every graph that crosses the file boundary: by map_graph()
/// and by load_graph_compressed() for both encodings.
void validate(const GraphView& graph);

namespace detail {

/// Everything the fixed-size binary header records; section offsets of the
/// packed encoding are a pure function of these counts.
struct GraphcCounts {
  std::int32_t day = 0;
  std::uint64_t machines = 0;
  std::uint64_t domains = 0;
  std::uint64_t e2lds = 0;
  std::uint64_t edges = 0;
  std::uint64_t ips = 0;
  std::uint64_t machine_name_bytes = 0;
  std::uint64_t domain_name_bytes = 0;
  std::uint64_t e2ld_name_bytes = 0;
};

/// Streams the packed encoding: writes the container + binary header on
/// construction, then the caller appends each section in layout order
/// (raw bytes / u32 / u64 helpers) with pad8() after every section. Used
/// by save_graph_compressed and by the out-of-core writer, so both
/// produce byte-identical files from identical logical content.
class PackedGraphcWriter {
 public:
  PackedGraphcWriter(std::ostream& out, const GraphcCounts& counts);

  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
  void u32(std::uint32_t value) { bytes(&value, sizeof(value)); }
  void u8(std::uint8_t value) { bytes(&value, sizeof(value)); }
  /// Writes one name-table section: count + 1 u64 offsets, the names
  /// concatenated, then padding. `name_of(i)` returns name i as a
  /// std::string_view.
  template <typename NameOf>
  void name_table(std::size_t count, const NameOf& name_of);
  /// Pads the file position to the next multiple of 8.
  void pad8();
  /// Validates the stream state; call once after the last section.
  void finish();

 private:
  std::ostream* out_;
  std::uint64_t written_ = 0;  ///< bytes since file start
};

template <typename NameOf>
void PackedGraphcWriter::name_table(std::size_t count, const NameOf& name_of) {
  std::vector<std::uint64_t> offsets(count + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    offsets[i + 1] = offsets[i] + name_of(i).size();
  }
  bytes(offsets.data(), offsets.size() * sizeof(std::uint64_t));
  std::string blob;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string_view name = name_of(i);
    blob.append(name.data(), name.size());
    if (blob.size() >= (1u << 20)) {
      bytes(blob.data(), blob.size());
      blob.clear();
    }
  }
  bytes(blob.data(), blob.size());
  pad8();
}

}  // namespace detail

}  // namespace seg::graph
