// dns::for_each_record streams a query-log file record by record without
// materializing the trace (the out-of-core preparer's reader).
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "dns/query_log.h"
#include "util/require.h"

namespace seg::graph {
namespace {

class StreamingBuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() /
             ("seg_stream_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override { std::filesystem::remove(base_ + ".tsv"); }

  static dns::DayTrace sample_trace() {
    dns::DayTrace trace;
    trace.day = 7;
    for (int m = 0; m < 20; ++m) {
      for (int d = 0; d < 8; ++d) {
        trace.records.push_back({7, "m" + std::to_string(m),
                                 "site" + std::to_string((m + d) % 12) + ".com",
                                 {dns::IpV4::from_octets(23, 0, static_cast<uint8_t>(d), 1)}});
      }
    }
    return trace;
  }

  std::string base_;
};

TEST_F(StreamingBuildTest, MissingFileThrows) {
  EXPECT_THROW(dns::for_each_record("/nonexistent/trace.tsv", [](const dns::QueryRecord&) {}),
               util::ParseError);
}

TEST_F(StreamingBuildTest, ForEachRecordReturnsDay) {
  const auto trace = sample_trace();
  dns::write_trace(trace, base_ + ".tsv");
  std::size_t count = 0;
  const auto day = dns::for_each_record(base_ + ".tsv",
                                        [&count](const dns::QueryRecord&) { ++count; });
  EXPECT_EQ(day, 7);
  EXPECT_EQ(count, trace.records.size());
}

}  // namespace
}  // namespace seg::graph
