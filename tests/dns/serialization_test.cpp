// Round-trip tests for the text serialization of the history substrates.
#include <gtest/gtest.h>

#include <sstream>

#include "dns/activity_index.h"
#include "dns/pdns.h"
#include "util/require.h"

namespace seg::dns {
namespace {

TEST(ActivityIndexIoTest, RoundTrip) {
  DomainActivityIndex index;
  index.mark_active("a.com", -30);
  index.mark_active("a.com", -29);
  index.mark_active("a.com", 5);
  index.mark_active("b.org", 0);
  std::stringstream blob;
  index.save(blob);
  const auto loaded = DomainActivityIndex::load(blob);
  EXPECT_EQ(loaded.tracked_names(), 2u);
  EXPECT_EQ(loaded.active_days("a.com", -30, 5), 3);
  EXPECT_EQ(loaded.consecutive_days_ending("a.com", -29), 2);
  EXPECT_EQ(loaded.first_seen("b.org"), 0);
  EXPECT_EQ(loaded.first_seen("a.com"), -30);
}

TEST(ActivityIndexIoTest, EmptyIndexRoundTrips) {
  DomainActivityIndex index;
  std::stringstream blob;
  index.save(blob);
  const auto loaded = DomainActivityIndex::load(blob);
  EXPECT_EQ(loaded.tracked_names(), 0u);
}

TEST(ActivityIndexIoTest, LoadRejectsGarbage) {
  std::stringstream blob("wrong header");
  EXPECT_THROW(DomainActivityIndex::load(blob), util::ParseError);
  std::stringstream truncated("activity 3\na.com 1\n");
  EXPECT_THROW(DomainActivityIndex::load(truncated), util::ParseError);
}

TEST(PdnsIoTest, RoundTrip) {
  PassiveDnsDb db;
  db.add_observation(-10, IpV4::parse("1.2.3.4"), PdnsAssociation::kMalware);
  db.add_observation(-5, IpV4::parse("1.2.3.4"), PdnsAssociation::kUnknown);
  db.add_observation(3, IpV4::parse("9.8.7.6"), PdnsAssociation::kMalware);
  std::stringstream blob;
  db.save(blob);
  const auto loaded = PassiveDnsDb::load(blob);
  EXPECT_EQ(loaded.observation_count(), db.observation_count());
  EXPECT_TRUE(loaded.ip_malware_associated(IpV4::parse("1.2.3.4"), -20, 0));
  EXPECT_FALSE(loaded.ip_malware_associated(IpV4::parse("1.2.3.4"), -9, 0));
  EXPECT_TRUE(loaded.ip_unknown_associated(IpV4::parse("1.2.3.4"), -5, -5));
  EXPECT_TRUE(loaded.prefix_malware_associated(IpV4::parse("9.8.7.250"), 0, 5));
  EXPECT_FALSE(loaded.ip_malware_associated(IpV4::parse("5.5.5.5"), -100, 100));
}

TEST(PdnsIoTest, EmptyDbRoundTrips) {
  PassiveDnsDb db;
  std::stringstream blob;
  db.save(blob);
  const auto loaded = PassiveDnsDb::load(blob);
  EXPECT_EQ(loaded.observation_count(), 0u);
  EXPECT_EQ(loaded.distinct_ip_count(), 0u);
}

TEST(PdnsIoTest, LoadRejectsGarbage) {
  std::stringstream blob("nope");
  EXPECT_THROW(PassiveDnsDb::load(blob), util::ParseError);
  std::stringstream missing_section("pdns 0\nip_malware 0\n");
  EXPECT_THROW(PassiveDnsDb::load(missing_section), util::ParseError);
}

// Every store stream starts with its `segf1` header; a headerless body (the
// pre-header format) is malformed input, not a legacy version.
TEST(ActivityIndexIoTest, HeaderlessStreamThrows) {
  DomainActivityIndex index;
  index.mark_active("a.com", 3);
  index.mark_active("a.com", 4);
  std::stringstream blob;
  index.save(blob);
  auto bytes = blob.str();
  std::istringstream headerless(bytes.substr(bytes.find('\n') + 1));
  EXPECT_THROW(DomainActivityIndex::load(headerless), util::ParseError);
}

TEST(PdnsIoTest, HeaderlessStreamThrows) {
  PassiveDnsDb db;
  db.add_observation(-3, IpV4::parse("1.2.3.4"), PdnsAssociation::kMalware);
  std::stringstream blob;
  db.save(blob);
  auto bytes = blob.str();
  std::istringstream headerless(bytes.substr(bytes.find('\n') + 1));
  EXPECT_THROW(PassiveDnsDb::load(headerless), util::ParseError);
}

}  // namespace
}  // namespace seg::dns
