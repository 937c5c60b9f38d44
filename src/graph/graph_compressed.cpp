#include "graph/graph_compressed.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/require.h"
#include "util/serialize.h"
#include "util/varint.h"

namespace seg::graph {

namespace {

// The packed walker serves fixed-width sections in place, so the packed
// encoding inherits the host's layout for these types.
static_assert(sizeof(dns::IpV4) == 4 && std::is_trivially_copyable_v<dns::IpV4>,
              "packed graphc stores resolved IPs as raw 4-byte values");
static_assert(sizeof(Label) == 1, "packed graphc stores labels as raw bytes");

constexpr std::string_view kGraphcMagic = "graphc";
constexpr int kGraphcVersion = 1;
// util::write_format_header(out, "graphc", 1) produces exactly this line.
constexpr std::string_view kTextHeader = "segf1 graphc 1\n";
// Text line + binary header (encoding u8, 3 reserved, day i32, 8 u64
// counts), before padding to the first 8-aligned section boundary.
constexpr std::size_t kHeaderBytes = kTextHeader.size() + 4 + 4 + 8 * 8;

std::size_t pad8_gap(std::size_t position) { return (8 - position % 8) % 8; }

detail::GraphcCounts counts_of(const GraphView& graph) {
  detail::GraphcCounts counts;
  counts.day = graph.day();
  counts.machines = graph.machine_count();
  counts.domains = graph.domain_count();
  counts.e2lds = graph.e2ld_count();
  counts.edges = graph.edge_count();
  counts.ips = graph.resolved_ip_values().size();
  for (std::size_t i = 0; i < graph.machine_names().size(); ++i) {
    counts.machine_name_bytes += graph.machine_names()[i].size();
  }
  for (std::size_t i = 0; i < graph.domain_names().size(); ++i) {
    counts.domain_name_bytes += graph.domain_names()[i].size();
  }
  for (std::size_t i = 0; i < graph.e2ld_names().size(); ++i) {
    counts.e2ld_name_bytes += graph.e2ld_names()[i].size();
  }
  return counts;
}

void write_binary_header(std::ostream& out, GraphcEncoding encoding,
                         const detail::GraphcCounts& counts) {
  util::write_format_header(out, kGraphcMagic, kGraphcVersion);
  const std::uint8_t enc = static_cast<std::uint8_t>(encoding);
  const std::uint8_t reserved[3] = {0, 0, 0};
  out.write(reinterpret_cast<const char*>(&enc), 1);
  out.write(reinterpret_cast<const char*>(reserved), 3);
  out.write(reinterpret_cast<const char*>(&counts.day), 4);
  const std::uint64_t fields[8] = {counts.machines,           counts.domains,
                                   counts.e2lds,              counts.edges,
                                   counts.ips,                counts.machine_name_bytes,
                                   counts.domain_name_bytes,  counts.e2ld_name_bytes};
  out.write(reinterpret_cast<const char*>(fields), sizeof(fields));
}

// --- packed encoding --------------------------------------------------------

void save_packed(const GraphView& graph, std::ostream& out) {
  detail::PackedGraphcWriter writer(out, counts_of(graph));
  for (const auto& names : {graph.machine_names(), graph.domain_names(), graph.e2ld_names()}) {
    writer.name_table(names.size(), [&names](std::size_t i) { return names[i]; });
  }

  const auto section = [&writer](const auto& span, std::size_t element_size) {
    writer.bytes(span.data(), span.size() * element_size);
    writer.pad8();
  };
  section(graph.domain_e2ld_ids(), sizeof(E2ldId));
  section(graph.machine_offsets(), sizeof(std::uint64_t));
  section(graph.machine_targets(), sizeof(DomainId));
  section(graph.domain_offsets(), sizeof(std::uint64_t));
  section(graph.domain_targets(), sizeof(MachineId));
  section(graph.ip_offsets(), sizeof(std::uint64_t));
  section(graph.resolved_ip_values(), sizeof(dns::IpV4));
  section(graph.machine_labels(), sizeof(Label));
  section(graph.domain_labels(), sizeof(Label));
  writer.finish();
}

// --- compact encoding -------------------------------------------------------

class CompactStream {
 public:
  explicit CompactStream(std::ostream& out) : out_(&out) {}

  std::string& buffer() { return buffer_; }

  void maybe_flush() {
    if (buffer_.size() >= (1u << 20)) {
      flush();
    }
  }

  void flush() {
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

 private:
  std::ostream* out_;
  std::string buffer_;
};

void save_compact(const GraphView& graph, std::ostream& out) {
  write_binary_header(out, GraphcEncoding::kCompact, counts_of(graph));
  CompactStream stream(out);
  auto& buf = stream.buffer();

  const auto names = [&](const NameTableView& table) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      const auto name = table[i];
      util::append_varint(buf, name.size());
      buf.append(name.data(), name.size());
      stream.maybe_flush();
    }
  };
  names(graph.machine_names());
  names(graph.domain_names());
  names(graph.e2ld_names());

  for (const auto e : graph.domain_e2ld_ids()) {
    util::append_varint(buf, e);
    stream.maybe_flush();
  }

  // Degree stream then the concatenated delta-coded adjacency runs, per
  // direction. Degrees first keeps every run's length decodable without
  // interleaving headers into the run bytes.
  const auto degrees_and_runs = [&](std::size_t count, const auto& row_of) {
    for (std::size_t i = 0; i < count; ++i) {
      util::append_varint(buf, row_of(i).size());
      stream.maybe_flush();
    }
    for (std::size_t i = 0; i < count; ++i) {
      util::append_ascending_run(buf, row_of(i));
      stream.maybe_flush();
    }
  };
  degrees_and_runs(graph.machine_count(),
                   [&](std::size_t m) { return graph.domains_of(static_cast<MachineId>(m)); });
  degrees_and_runs(graph.domain_count(),
                   [&](std::size_t d) { return graph.machines_of(static_cast<DomainId>(d)); });

  for (DomainId d = 0; d < graph.domain_count(); ++d) {
    util::append_varint(buf, graph.resolved_ips(d).size());
    stream.maybe_flush();
  }
  for (DomainId d = 0; d < graph.domain_count(); ++d) {
    const auto ips = graph.resolved_ips(d);
    for (std::size_t i = 0; i < ips.size(); ++i) {
      if (i == 0) {
        util::append_varint(buf, ips[0].value());
      } else {
        util::append_varint(buf, ips[i].value() - ips[i - 1].value() - 1);
      }
    }
    stream.maybe_flush();
  }

  for (const auto label : graph.machine_labels()) {
    buf.push_back(static_cast<char>(label));
  }
  for (const auto label : graph.domain_labels()) {
    buf.push_back(static_cast<char>(label));
  }
  stream.flush();
  util::require_data(static_cast<bool>(out), "save_graph_compressed: write failed");
}

// --- loading ---------------------------------------------------------------

struct BinaryHeader {
  GraphcEncoding encoding = GraphcEncoding::kPacked;
  detail::GraphcCounts counts;
};

// The one graphc header parser, over the first kHeaderBytes of an input of
// `size` bytes. Every count is bounded by `size`: each counted element
// occupies at least one byte in either encoding, so a larger count cannot
// be honest. That bound is also the overflow check for every section size
// derived from the counts: with each count at most `size`, no sum such as
// (count + 1) * 8 + name_bytes can wrap 64 bits, and no decoder allocates
// more than a small multiple of its input.
BinaryHeader parse_header(const unsigned char* bytes, std::size_t size) {
  util::require_data(size >= kTextHeader.size() &&
                         std::memcmp(bytes, kTextHeader.data(), kTextHeader.size()) == 0,
                     "graphc: not a segf1 graphc 1 stream");
  util::require_data(size >= kHeaderBytes, "graphc: truncated header");
  const unsigned char* cursor = bytes + kTextHeader.size();
  util::require_data(cursor[0] == static_cast<std::uint8_t>(GraphcEncoding::kPacked) ||
                         cursor[0] == static_cast<std::uint8_t>(GraphcEncoding::kCompact),
                     "graphc: unknown encoding byte");
  util::require_data(cursor[1] == 0 && cursor[2] == 0 && cursor[3] == 0,
                     "graphc: nonzero reserved header bytes");
  BinaryHeader header;
  header.encoding = static_cast<GraphcEncoding>(cursor[0]);
  std::memcpy(&header.counts.day, cursor + 4, 4);
  std::uint64_t fields[8];
  std::memcpy(fields, cursor + 8, sizeof(fields));
  for (const auto field : fields) {
    util::require_data(field <= size, "graphc: header count exceeds the input size");
  }
  header.counts.machines = fields[0];
  header.counts.domains = fields[1];
  header.counts.e2lds = fields[2];
  header.counts.edges = fields[3];
  header.counts.ips = fields[4];
  header.counts.machine_name_bytes = fields[5];
  header.counts.domain_name_bytes = fields[6];
  header.counts.e2ld_name_bytes = fields[7];
  return header;
}

// The one packed-section walker: a GraphView serving the sections of the
// 8-byte-aligned input [bytes, bytes + size) in place. It checks that every
// section lies inside the input, that the input ends with the last one, and
// the name-table offsets (NameTableView indexes its blob through them);
// validate() checks everything else.
GraphView walk_packed(const unsigned char* bytes, std::size_t size,
                      const detail::GraphcCounts& counts) {
  std::size_t position = kHeaderBytes + pad8_gap(kHeaderBytes);
  const auto take = [&](std::uint64_t section_bytes) {
    util::require_data(position <= size && section_bytes <= size - position,
                       "graphc: truncated section");
    const unsigned char* begin = bytes + position;
    position += section_bytes;
    position += pad8_gap(position);
    return begin;
  };

  const auto name_table = [&](std::uint64_t count, std::uint64_t name_bytes) {
    const auto* offsets = reinterpret_cast<const std::uint64_t*>(
        take((count + 1) * sizeof(std::uint64_t) + name_bytes));
    const auto* blob = reinterpret_cast<const char*>(offsets + count + 1);
    util::require_data(offsets[0] == 0 && offsets[count] == name_bytes,
                       "graphc: name offsets inconsistent with blob");
    for (std::uint64_t i = 0; i < count; ++i) {
      util::require_data(offsets[i] <= offsets[i + 1], "graphc: name offsets not monotone");
    }
    return NameTableView::from_blob(blob, offsets, count);
  };
  const auto machines = name_table(counts.machines, counts.machine_name_bytes);
  const auto domains = name_table(counts.domains, counts.domain_name_bytes);
  const auto e2lds = name_table(counts.e2lds, counts.e2ld_name_bytes);

  const auto* domain_e2ld =
      reinterpret_cast<const E2ldId*>(take(counts.domains * sizeof(E2ldId)));
  const auto* machine_offsets =
      reinterpret_cast<const std::uint64_t*>(take((counts.machines + 1) * sizeof(std::uint64_t)));
  const auto* machine_targets =
      reinterpret_cast<const DomainId*>(take(counts.edges * sizeof(DomainId)));
  const auto* domain_offsets =
      reinterpret_cast<const std::uint64_t*>(take((counts.domains + 1) * sizeof(std::uint64_t)));
  const auto* domain_targets =
      reinterpret_cast<const MachineId*>(take(counts.edges * sizeof(MachineId)));
  const auto* ip_offsets =
      reinterpret_cast<const std::uint64_t*>(take((counts.domains + 1) * sizeof(std::uint64_t)));
  const auto* resolved_ips =
      reinterpret_cast<const dns::IpV4*>(take(counts.ips * sizeof(dns::IpV4)));
  const auto* machine_labels = reinterpret_cast<const Label*>(take(counts.machines));
  const auto* domain_labels = reinterpret_cast<const Label*>(take(counts.domains));
  util::require_data(position == size, "graphc: input size inconsistent with header counts");
  return make_packed_view(
      counts.day, machines, domains, e2lds, {domain_e2ld, counts.domains},
      {machine_offsets, counts.machines + 1}, {machine_targets, counts.edges},
      {domain_offsets, counts.domains + 1}, {domain_targets, counts.edges},
      {ip_offsets, counts.domains + 1}, {resolved_ips, counts.ips},
      {machine_labels, counts.machines}, {domain_labels, counts.domains});
}

// Decoded sections, assembled into a MachineDomainGraph by
// load_graph_compressed (the friend); the per-encoding readers stay free
// of private access.
struct GraphParts {
  dns::Day day = 0;
  std::vector<std::string> machine_names;
  std::vector<std::string> domain_names;
  std::vector<std::string> e2ld_names;
  std::vector<E2ldId> domain_e2ld;
  std::vector<std::uint64_t> machine_offsets;
  std::vector<DomainId> machine_targets;
  std::vector<std::uint64_t> domain_offsets;
  std::vector<MachineId> domain_targets;
  std::vector<std::uint64_t> ip_offsets;
  std::vector<dns::IpV4> resolved_ips;
  std::vector<Label> machine_labels;
  std::vector<Label> domain_labels;
};

template <typename T>
std::vector<T> to_vector(std::span<const T> section) {
  return {section.begin(), section.end()};
}

std::vector<std::string> to_strings(const NameTableView& names) {
  std::vector<std::string> out;
  out.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.emplace_back(names[i]);
  }
  return out;
}

GraphParts copy_parts(const GraphView& view) {
  GraphParts parts;
  parts.day = view.day();
  parts.machine_names = to_strings(view.machine_names());
  parts.domain_names = to_strings(view.domain_names());
  parts.e2ld_names = to_strings(view.e2ld_names());
  parts.domain_e2ld = to_vector(view.domain_e2ld_ids());
  parts.machine_offsets = to_vector(view.machine_offsets());
  parts.machine_targets = to_vector(view.machine_targets());
  parts.domain_offsets = to_vector(view.domain_offsets());
  parts.domain_targets = to_vector(view.domain_targets());
  parts.ip_offsets = to_vector(view.ip_offsets());
  parts.resolved_ips = to_vector(view.resolved_ip_values());
  parts.machine_labels = to_vector(view.machine_labels());
  parts.domain_labels = to_vector(view.domain_labels());
  return parts;
}

// Decodes the compact streams in [p, end), the bytes after the header.
// Row lengths are checked as they accumulate, so a lying degree stream
// cannot steer a run outside its target array; validate() checks the
// decoded graph.
GraphParts decode_compact(const unsigned char* p, const unsigned char* end,
                          const detail::GraphcCounts& counts) {
  GraphParts parts;
  parts.day = counts.day;

  const auto read_names = [&](std::uint64_t count) {
    std::vector<std::string> names;
    names.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto length = util::decode_varint(p, end);
      util::require_data(length <= static_cast<std::uint64_t>(end - p),
                         "graphc: truncated name");
      names.emplace_back(reinterpret_cast<const char*>(p), length);
      p += length;
    }
    return names;
  };
  parts.machine_names = read_names(counts.machines);
  parts.domain_names = read_names(counts.domains);
  parts.e2ld_names = read_names(counts.e2lds);

  parts.domain_e2ld.reserve(counts.domains);
  for (std::uint64_t d = 0; d < counts.domains; ++d) {
    const auto e = util::decode_varint(p, end);
    // Checked before the narrowing cast, which could wrap it into range.
    util::require_data(e < counts.e2lds, "graphc: e2LD id out of range");
    parts.domain_e2ld.push_back(static_cast<E2ldId>(e));
  }

  const auto row_offsets = [&](std::uint64_t rows, std::uint64_t total, const char* what) {
    std::vector<std::uint64_t> offsets(rows + 1, 0);
    for (std::uint64_t i = 0; i < rows; ++i) {
      const auto length = util::decode_varint(p, end);
      util::require_data(length <= total - offsets[i], what);
      offsets[i + 1] = offsets[i] + length;
    }
    util::require_data(offsets.back() == total, what);
    return offsets;
  };
  const auto csr = [&](std::uint64_t nodes, std::vector<std::uint64_t>& offsets,
                       auto& targets) {
    offsets = row_offsets(nodes, counts.edges,
                          "graphc: degree stream inconsistent with edge count");
    targets.resize(counts.edges);
    for (std::uint64_t i = 0; i < nodes; ++i) {
      util::decode_ascending_run(p, end, offsets[i + 1] - offsets[i],
                                 targets.data() + offsets[i]);
    }
  };
  csr(counts.machines, parts.machine_offsets, parts.machine_targets);
  csr(counts.domains, parts.domain_offsets, parts.domain_targets);

  parts.ip_offsets = row_offsets(counts.domains, counts.ips,
                                 "graphc: IP size stream inconsistent with IP count");
  parts.resolved_ips.reserve(counts.ips);
  std::vector<std::uint32_t> run;
  for (std::uint64_t d = 0; d < counts.domains; ++d) {
    const std::size_t size = parts.ip_offsets[d + 1] - parts.ip_offsets[d];
    run.resize(size);
    util::decode_ascending_run(p, end, size, run.data());
    for (const auto value : run) {
      parts.resolved_ips.push_back(dns::IpV4(value));
    }
  }

  const auto labels = [&](std::uint64_t count) {
    util::require_data(count <= static_cast<std::uint64_t>(end - p),
                       "graphc: truncated label section");
    const auto* first = reinterpret_cast<const Label*>(p);
    p += count;
    return std::vector<Label>(first, first + count);
  };
  parts.machine_labels = labels(counts.machines);
  parts.domain_labels = labels(counts.domains);
  util::require_data(p == end, "graphc: trailing bytes after graph");
  return parts;
}

// The rest of `in`, in 8-byte-aligned storage so that the packed walker can
// serve typed sections from it exactly as from a mapping.
struct AlignedInput {
  std::vector<std::uint64_t> words;
  std::size_t size = 0;

  const unsigned char* data() const {
    return reinterpret_cast<const unsigned char*>(words.data());
  }
};

AlignedInput read_aligned(std::istream& in) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  AlignedInput input;
  std::size_t got = 0;
  do {
    input.words.resize((input.size + kChunk + 7) / 8);
    in.read(reinterpret_cast<char*>(input.words.data()) + input.size,
            static_cast<std::streamsize>(kChunk));
    got = static_cast<std::size_t>(in.gcount());
    input.size += got;
  } while (got == kChunk);
  return input;
}

}  // namespace

namespace detail {

PackedGraphcWriter::PackedGraphcWriter(std::ostream& out, const GraphcCounts& counts)
    : out_(&out) {
  write_binary_header(out, GraphcEncoding::kPacked, counts);
  written_ = kHeaderBytes;
  pad8();
}

void PackedGraphcWriter::bytes(const void* data, std::size_t size) {
  if (size == 0) {
    return;
  }
  out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  written_ += size;
}

void PackedGraphcWriter::pad8() {
  static constexpr char kZeros[8] = {};
  const std::size_t gap = pad8_gap(written_);
  bytes(kZeros, gap);
}

void PackedGraphcWriter::finish() {
  util::require_data(static_cast<bool>(*out_), "save_graph_compressed: write failed");
}

}  // namespace detail

void save_graph_compressed(const GraphView& graph, std::ostream& out,
                           GraphcEncoding encoding) {
  if (encoding == GraphcEncoding::kPacked) {
    save_packed(graph, out);
  } else {
    save_compact(graph, out);
  }
}

void validate(const GraphView& graph) {
  const std::uint64_t machines = graph.machine_count();
  const std::uint64_t domains = graph.domain_count();
  const std::uint64_t edges = graph.edge_count();
  util::require_data(graph.domain_targets().size() == edges,
                     "graphc: edge count mismatch between directions");
  util::require_data(graph.domain_e2ld_ids().size() == domains,
                     "graphc: e2LD annotation size mismatch");
  util::require_data(graph.machine_labels().size() == machines &&
                         graph.domain_labels().size() == domains,
                     "graphc: label section size mismatch");

  // Each table holds rows + 1 entries rising from 0 to the section size.
  const auto offsets = [](std::span<const std::uint64_t> table, std::uint64_t rows,
                          std::uint64_t total) {
    util::require_data(table.size() == rows + 1 && table.front() == 0 && table.back() == total,
                       "graphc: offset table inconsistent with its section");
    for (std::uint64_t i = 0; i < rows; ++i) {
      util::require_data(table[i] <= table[i + 1], "graphc: offsets not monotone");
    }
  };
  offsets(graph.machine_offsets(), machines, edges);
  offsets(graph.domain_offsets(), domains, edges);
  offsets(graph.ip_offsets(), domains, graph.resolved_ip_values().size());

  for (const auto d : graph.machine_targets()) {
    util::require_data(d < domains, "graphc: domain id out of range");
  }
  for (const auto m : graph.domain_targets()) {
    util::require_data(m < machines, "graphc: machine id out of range");
  }
  const std::uint64_t e2lds = graph.e2ld_count();
  for (const auto e : graph.domain_e2ld_ids()) {
    util::require_data(e < e2lds, "graphc: e2LD id out of range");
  }
  const auto label_ok = [](Label label) { return static_cast<unsigned char>(label) <= 2; };
  util::require_data(std::all_of(graph.machine_labels().begin(), graph.machine_labels().end(),
                                 label_ok) &&
                         std::all_of(graph.domain_labels().begin(),
                                     graph.domain_labels().end(), label_ok),
                     "graphc: malformed label byte");
}

MachineDomainGraph load_graph_compressed(std::istream& in) {
  const AlignedInput input = read_aligned(in);
  const BinaryHeader header = parse_header(input.data(), input.size);
  GraphParts parts =
      header.encoding == GraphcEncoding::kPacked
          ? copy_parts(walk_packed(input.data(), input.size, header.counts))
          : decode_compact(input.data() + kHeaderBytes, input.data() + input.size,
                           header.counts);

  MachineDomainGraph graph;
  graph.day_ = parts.day;
  graph.machine_names_ = std::move(parts.machine_names);
  graph.domain_names_ = std::move(parts.domain_names);
  graph.e2ld_names_ = std::move(parts.e2ld_names);
  graph.domain_e2ld_ = std::move(parts.domain_e2ld);
  graph.machine_offsets_ = std::move(parts.machine_offsets);
  graph.machine_targets_ = std::move(parts.machine_targets);
  graph.domain_offsets_ = std::move(parts.domain_offsets);
  graph.domain_targets_ = std::move(parts.domain_targets);
  graph.ip_offsets_ = std::move(parts.ip_offsets);
  graph.resolved_ips_ = std::move(parts.resolved_ips);
  graph.machine_labels_ = std::move(parts.machine_labels);
  graph.domain_labels_ = std::move(parts.domain_labels);
  validate(graph);
  graph.rebuild_name_index();
  return graph;
}

MappedGraph map_graph(const std::string& path) {
  util::MmapFile file(path);
  const BinaryHeader header = parse_header(file.data(), file.size());
  util::require_data(header.encoding == GraphcEncoding::kPacked,
                     "map_graph: file is not packed-encoded (re-save with kPacked)");
  const GraphView view = walk_packed(file.data(), file.size(), header.counts);
  validate(view);
  return MappedGraph{std::move(file), view};
}

}  // namespace seg::graph
