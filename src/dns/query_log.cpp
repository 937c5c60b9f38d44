#include "dns/query_log.h"

#include <cstring>
#include <fstream>

#include "util/csv.h"
#include "util/require.h"
#include "util/strings.h"

namespace seg::dns {

namespace {

constexpr char kBinaryMagic[] = "SEGTRC1";
constexpr std::size_t kMagicLength = sizeof(kBinaryMagic) - 1;

template <typename T>
void write_le(std::ostream& out, T value) {
  // Serialize explicitly little-endian, byte by byte, so files are
  // portable across hosts.
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const auto byte = static_cast<unsigned char>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff);
    out.put(static_cast<char>(byte));
  }
}

template <typename T>
T read_le(std::istream& in) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const int byte = in.get();
    util::require_data(byte != std::char_traits<char>::eof(),
                       "read_trace_binary: truncated file");
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(byte)) << (8 * i);
  }
  return static_cast<T>(value);
}

void write_string(std::ostream& out, std::string_view text) {
  util::require(text.size() <= 0xffff, "write_trace_binary: string too long");
  write_le<std::uint16_t>(out, static_cast<std::uint16_t>(text.size()));
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string read_string(std::istream& in) {
  const auto length = read_le<std::uint16_t>(in);
  std::string text(length, '\0');
  in.read(text.data(), length);
  util::require_data(static_cast<std::size_t>(in.gcount()) == length,
                     "read_trace_binary: truncated string");
  return text;
}

}  // namespace

void write_trace(const DayTrace& trace, const std::string& path) {
  util::DsvWriter writer(path);
  writer.write_comment("day\tmachine\tqname\tresolved_ips");
  std::vector<std::string> row(4);
  for (const auto& record : trace.records) {
    row[0] = std::to_string(record.day);
    row[1] = record.machine;
    row[2] = record.qname;
    std::vector<std::string> ips;
    ips.reserve(record.resolved_ips.size());
    for (const auto ip : record.resolved_ips) {
      ips.push_back(ip.to_string());
    }
    row[3] = util::join(ips, ",");
    writer.write_row(row);
  }
}

DayTrace read_trace(const std::string& path) {
  util::DsvReader reader(path);
  DayTrace trace;
  bool first = true;
  std::vector<std::string_view> fields;
  while (reader.next(fields)) {
    if (fields.size() != 4) {
      throw util::ParseError("read_trace: expected 4 fields at line " +
                             std::to_string(reader.line_number()));
    }
    QueryRecord record;
    record.day = static_cast<Day>(util::parse_u64(fields[0]));
    record.machine = std::string(fields[1]);
    record.qname = std::string(fields[2]);
    for (const auto ip_text : util::split_skip_empty(fields[3], ',')) {
      record.resolved_ips.push_back(IpV4::parse(ip_text));
    }
    if (first) {
      trace.day = record.day;
      first = false;
    } else if (record.day != trace.day) {
      throw util::ParseError("read_trace: mixed days in one trace file at line " +
                             std::to_string(reader.line_number()));
    }
    trace.records.push_back(std::move(record));
  }
  return trace;
}


void write_trace_binary(const DayTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  util::require_data(out.is_open(), "write_trace_binary: cannot create '" + path + "'");
  out.write(kBinaryMagic, static_cast<std::streamsize>(kMagicLength));
  write_le<std::int32_t>(out, trace.day);
  write_le<std::uint64_t>(out, trace.records.size());
  for (const auto& record : trace.records) {
    write_string(out, record.machine);
    write_string(out, record.qname);
    util::require(record.resolved_ips.size() <= 0xff,
                  "write_trace_binary: too many resolved IPs in one record");
    write_le<std::uint8_t>(out, static_cast<std::uint8_t>(record.resolved_ips.size()));
    for (const auto ip : record.resolved_ips) {
      write_le<std::uint32_t>(out, ip.value());
    }
  }
  util::require_data(static_cast<bool>(out), "write_trace_binary: write failed");
}

DayTrace read_trace_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  util::require_data(in.is_open(), "read_trace_binary: cannot open '" + path + "'");
  char magic[kMagicLength];
  in.read(magic, static_cast<std::streamsize>(kMagicLength));
  util::require_data(static_cast<std::size_t>(in.gcount()) == kMagicLength &&
                         std::memcmp(magic, kBinaryMagic, kMagicLength) == 0,
                     "read_trace_binary: bad magic (not a SEGTRC1 file)");
  DayTrace trace;
  trace.day = read_le<std::int32_t>(in);
  const auto count = read_le<std::uint64_t>(in);
  trace.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    QueryRecord record;
    record.day = trace.day;
    record.machine = read_string(in);
    record.qname = read_string(in);
    const auto ip_count = read_le<std::uint8_t>(in);
    record.resolved_ips.reserve(ip_count);
    for (std::uint8_t k = 0; k < ip_count; ++k) {
      record.resolved_ips.push_back(IpV4(read_le<std::uint32_t>(in)));
    }
    trace.records.push_back(std::move(record));
  }
  return trace;
}


Day for_each_record(const std::string& path,
                    const std::function<void(const QueryRecord&)>& callback) {
  if (path.ends_with(".bin")) {
    std::ifstream in(path, std::ios::binary);
    util::require_data(in.is_open(), "for_each_record: cannot open '" + path + "'");
    char magic[kMagicLength];
    in.read(magic, static_cast<std::streamsize>(kMagicLength));
    util::require_data(static_cast<std::size_t>(in.gcount()) == kMagicLength &&
                           std::memcmp(magic, kBinaryMagic, kMagicLength) == 0,
                       "for_each_record: bad magic (not a SEGTRC1 file)");
    const auto day = read_le<std::int32_t>(in);
    const auto count = read_le<std::uint64_t>(in);
    QueryRecord record;
    for (std::uint64_t i = 0; i < count; ++i) {
      record.day = day;
      record.machine = read_string(in);
      record.qname = read_string(in);
      record.resolved_ips.clear();
      const auto ip_count = read_le<std::uint8_t>(in);
      for (std::uint8_t k = 0; k < ip_count; ++k) {
        record.resolved_ips.push_back(IpV4(read_le<std::uint32_t>(in)));
      }
      callback(record);
    }
    return count == 0 ? Day{0} : day;
  }

  util::DsvReader reader(path);
  Day day = 0;
  bool first = true;
  std::vector<std::string_view> fields;
  QueryRecord record;
  while (reader.next(fields)) {
    util::require_data(fields.size() == 4,
                       "for_each_record: expected 4 fields at line " +
                           std::to_string(reader.line_number()));
    record.day = static_cast<Day>(util::parse_u64(fields[0]));
    record.machine = std::string(fields[1]);
    record.qname = std::string(fields[2]);
    record.resolved_ips.clear();
    for (const auto ip_text : util::split_skip_empty(fields[3], ',')) {
      record.resolved_ips.push_back(IpV4::parse(ip_text));
    }
    if (first) {
      day = record.day;
      first = false;
    } else {
      util::require_data(record.day == day,
                         "for_each_record: mixed days in one trace file at line " +
                             std::to_string(reader.line_number()));
    }
    callback(record);
  }
  return day;
}


BinaryTraceWriter::BinaryTraceWriter(const std::string& path, Day day, std::uint64_t count)
    : out_(path, std::ios::binary), expected_(count) {
  util::require_data(out_.is_open(), "BinaryTraceWriter: cannot create '" + path + "'");
  out_.write(kBinaryMagic, static_cast<std::streamsize>(kMagicLength));
  write_le<std::int32_t>(out_, day);
  write_le<std::uint64_t>(out_, count);
}

BinaryTraceWriter::~BinaryTraceWriter() {
  try {
    finish();
  } catch (...) {  // destructors must not throw; call finish() to observe
  }
}

void BinaryTraceWriter::add(std::string_view machine, std::string_view qname,
                            std::span<const IpV4> resolved_ips) {
  util::require(written_ < expected_, "BinaryTraceWriter: more records than declared");
  write_string(out_, machine);
  write_string(out_, qname);
  util::require(resolved_ips.size() <= 0xff,
                "BinaryTraceWriter: too many resolved IPs in one record");
  write_le<std::uint8_t>(out_, static_cast<std::uint8_t>(resolved_ips.size()));
  for (const auto ip : resolved_ips) {
    write_le<std::uint32_t>(out_, ip.value());
  }
  ++written_;
}

void BinaryTraceWriter::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  util::require(written_ == expected_,
                "BinaryTraceWriter: record count mismatch with declared header count");
  out_.flush();
  util::require_data(static_cast<bool>(out_), "BinaryTraceWriter: write failed");
  out_.close();
}

}  // namespace seg::dns
