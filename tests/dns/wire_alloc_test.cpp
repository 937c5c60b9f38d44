// Allocation budget of the wire decoders: decoding a dnstap or pcap record
// must not cost more than a handful of heap allocations.
//
// The good path of the decoders builds no error message and copies no
// field: a record's only allocations are its own qname and address list,
// which move into the caller's record. This executable replaces the global
// operator new with a counter and decodes generated captures through
// FileTraceSource into a pre-reserved sink, so every allocation counted in
// the decode loop is the decoder's. The sanitizers own operator new, so
// tests/CMakeLists.txt builds this only in unsanitized trees.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "dns/query_log.h"
#include "dns/trace_source.h"
#include "dns/wire/dnstap.h"
#include "dns/wire/pcap.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace seg::dns {
namespace {

constexpr std::size_t kRecords = 20000;
constexpr double kMaxAllocationsPerRecord = 8.0;

// Dotted-quad machines (the wire formats carry client addresses), qnames
// well past the small-string buffer, two A records each.
DayTrace capture_trace() {
  DayTrace trace;
  trace.day = 20;
  trace.records.reserve(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    QueryRecord record;
    record.day = trace.day;
    record.machine = IpV4::from_octets(192, 168, static_cast<std::uint8_t>(i % 7),
                                       static_cast<std::uint8_t>(i % 251))
                         .to_string();
    record.qname = "host-" + std::to_string(i) + ".control-plane.example" +
                   std::to_string(i % 13) + ".com";
    record.resolved_ips = {IpV4(static_cast<std::uint32_t>(0x0a000000u + i)),
                           IpV4(static_cast<std::uint32_t>(0xc6336400u + i % 256))};
    trace.records.push_back(std::move(record));
  }
  return trace;
}

class WireAllocTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }

  // Decodes `path_` into a pre-reserved sink; returns allocations per
  // decoded record counted over the decode loop alone.
  double allocations_per_record(const DayTrace& expected) {
    FileTraceSource source(path_);
    std::vector<QueryRecord> sink;
    sink.reserve(kRecords);
    QueryRecord record;
    const auto before = g_allocations.load(std::memory_order_relaxed);
    while (source.next(record)) {
      sink.push_back(std::move(record));
    }
    const auto allocations = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(sink, expected.records);
    EXPECT_EQ(source.skipped(), 0u);
    const double per_record = static_cast<double>(allocations) / kRecords;
    std::printf("%s: %llu allocations for %zu records (%.2f per record)\n",
                format_name(source.format()).data(),
                static_cast<unsigned long long>(allocations), sink.size(), per_record);
    return per_record;
  }

  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("seg_wire_alloc_" + std::to_string(::getpid())))
                          .string();
};

TEST_F(WireAllocTest, DnstapDecodeStaysWithinBudget) {
  const auto trace = capture_trace();
  wire::write_dnstap_trace(trace, path_);
  EXPECT_LE(allocations_per_record(trace), kMaxAllocationsPerRecord);
}

TEST_F(WireAllocTest, PcapDecodeStaysWithinBudget) {
  const auto trace = capture_trace();
  wire::write_pcap_trace(trace, path_);
  EXPECT_LE(allocations_per_record(trace), kMaxAllocationsPerRecord);
}

}  // namespace
}  // namespace seg::dns
