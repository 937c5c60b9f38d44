#include "dns/pdns.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

namespace seg::dns {
namespace {

std::string save_bytes(const PassiveDnsDb& db) {
  std::ostringstream blob;
  db.save(blob);
  return std::move(blob).str();
}

// Small IP pool spanning a handful of /24s so prefix lookups aggregate
// observations across sibling IPs.
IpV4 random_ip(util::Rng& rng) {
  const auto prefix = static_cast<std::uint32_t>(rng.next_below(6)) << 8;
  return IpV4((0x0A000000u | prefix) | static_cast<std::uint32_t>(rng.next_below(8)));
}

TEST(PassiveDnsDbTest, EmptyDbHasNoAssociations) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("1.2.3.4");
  EXPECT_FALSE(db.ip_malware_associated(ip, 0, 100));
  EXPECT_FALSE(db.prefix_malware_associated(ip, 0, 100));
  EXPECT_FALSE(db.ip_unknown_associated(ip, 0, 100));
  EXPECT_FALSE(db.prefix_unknown_associated(ip, 0, 100));
  EXPECT_EQ(db.observation_count(), 0u);
  EXPECT_EQ(db.distinct_ip_count(), 0u);
}

TEST(PassiveDnsDbTest, MalwareAssociationWithinWindow) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("5.6.7.8");
  db.add_observation(50, ip, PdnsAssociation::kMalware);
  EXPECT_TRUE(db.ip_malware_associated(ip, 0, 100));
  EXPECT_TRUE(db.ip_malware_associated(ip, 50, 50));
  EXPECT_FALSE(db.ip_malware_associated(ip, 0, 49));
  EXPECT_FALSE(db.ip_malware_associated(ip, 51, 100));
}

TEST(PassiveDnsDbTest, PrefixAssociationCoversSiblingIps) {
  PassiveDnsDb db;
  db.add_observation(10, IpV4::parse("9.9.9.1"), PdnsAssociation::kMalware);
  // Different IP, same /24.
  EXPECT_TRUE(db.prefix_malware_associated(IpV4::parse("9.9.9.200"), 0, 20));
  EXPECT_FALSE(db.ip_malware_associated(IpV4::parse("9.9.9.200"), 0, 20));
  // Different /24.
  EXPECT_FALSE(db.prefix_malware_associated(IpV4::parse("9.9.10.1"), 0, 20));
}

TEST(PassiveDnsDbTest, UnknownAndMalwareTrackedSeparately) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("7.7.7.7");
  db.add_observation(5, ip, PdnsAssociation::kUnknown);
  EXPECT_TRUE(db.ip_unknown_associated(ip, 0, 10));
  EXPECT_FALSE(db.ip_malware_associated(ip, 0, 10));
}

TEST(PassiveDnsDbTest, BenignObservationsAreCountedButNotIndexed) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("8.8.8.8");
  db.add_observation(5, ip, PdnsAssociation::kBenign);
  EXPECT_EQ(db.observation_count(), 1u);
  EXPECT_FALSE(db.ip_malware_associated(ip, 0, 10));
  EXPECT_FALSE(db.ip_unknown_associated(ip, 0, 10));
}

TEST(PassiveDnsDbTest, AddResolutionRecordsAllIps) {
  PassiveDnsDb db;
  const std::vector<IpV4> ips = {IpV4::parse("1.1.1.1"), IpV4::parse("2.2.2.2")};
  db.add_resolution(3, ips, PdnsAssociation::kMalware);
  EXPECT_TRUE(db.ip_malware_associated(ips[0], 0, 5));
  EXPECT_TRUE(db.ip_malware_associated(ips[1], 0, 5));
  EXPECT_EQ(db.observation_count(), 2u);
}

TEST(PassiveDnsDbTest, OutOfOrderInsertsMaintainSortedQueries) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("4.4.4.4");
  db.add_observation(30, ip, PdnsAssociation::kMalware);
  db.add_observation(10, ip, PdnsAssociation::kMalware);
  db.add_observation(20, ip, PdnsAssociation::kMalware);
  db.add_observation(20, ip, PdnsAssociation::kMalware);  // duplicate
  EXPECT_TRUE(db.ip_malware_associated(ip, 10, 10));
  EXPECT_TRUE(db.ip_malware_associated(ip, 15, 25));
  EXPECT_TRUE(db.ip_malware_associated(ip, 25, 35));
  EXPECT_FALSE(db.ip_malware_associated(ip, 11, 19));
  EXPECT_FALSE(db.ip_malware_associated(ip, 31, 99));
}

TEST(PassiveDnsDbTest, DistinctIpCountUnionsBothIndexes) {
  PassiveDnsDb db;
  db.add_observation(1, IpV4::parse("1.0.0.1"), PdnsAssociation::kMalware);
  db.add_observation(1, IpV4::parse("1.0.0.2"), PdnsAssociation::kUnknown);
  db.add_observation(1, IpV4::parse("1.0.0.1"), PdnsAssociation::kUnknown);  // both
  EXPECT_EQ(db.distinct_ip_count(), 2u);
}

// absorb() folds whole day indexes at once; the result must answer every
// query and save every byte exactly like one database fed the same
// observations through add_observation().
TEST(PassiveDnsDbAbsorbTest, MatchesDirectIngestOnRandomizedWorkload) {
  util::Rng rng(13);
  PassiveDnsDb direct;
  PassiveDnsDb parts[3];
  constexpr PdnsAssociation kKinds[] = {PdnsAssociation::kMalware, PdnsAssociation::kUnknown,
                                        PdnsAssociation::kBenign};
  for (int i = 0; i < 2000; ++i) {
    const auto ip = random_ip(rng);
    const auto day = static_cast<Day>(rng.next_int(-60, 20));
    const auto kind = kKinds[rng.next_below(3)];
    direct.add_observation(day, ip, kind);
    parts[rng.next_below(3)].add_observation(day, ip, kind);
  }
  PassiveDnsDb absorbed;
  for (const auto& part : parts) {
    absorbed.absorb(part);
  }

  EXPECT_EQ(absorbed.distinct_ip_count(), direct.distinct_ip_count());
  for (int i = 0; i < 200; ++i) {
    const auto ip = random_ip(rng);
    const auto from = static_cast<Day>(rng.next_int(-60, 0));
    const auto to = static_cast<Day>(rng.next_int(0, 20));
    EXPECT_EQ(absorbed.ip_malware_associated(ip, from, to),
              direct.ip_malware_associated(ip, from, to));
    EXPECT_EQ(absorbed.ip_unknown_associated(ip, from, to),
              direct.ip_unknown_associated(ip, from, to));
    EXPECT_EQ(absorbed.prefix_malware_associated(ip, from, to),
              direct.prefix_malware_associated(ip, from, to));
    EXPECT_EQ(absorbed.prefix_unknown_associated(ip, from, to),
              direct.prefix_unknown_associated(ip, from, to));
  }
  // observation_count() follows the max rule, not the sum, so only the
  // indexes (everything after the count line) are compared here.
  const auto indexes = [](const std::string& bytes) {
    return bytes.substr(bytes.find("ip_malware"));
  };
  EXPECT_EQ(indexes(save_bytes(absorbed)), indexes(save_bytes(direct)));
}

TEST(PassiveDnsDbAbsorbTest, SaveIsByteIdenticalToDirectIngestAndRoundTrips) {
  util::Rng rng(17);
  PassiveDnsDb direct;
  for (int i = 0; i < 800; ++i) {
    const auto ip = random_ip(rng);
    const auto day = static_cast<Day>(rng.next_int(-30, 30));
    const auto kind = rng.next_bool(0.5) ? PdnsAssociation::kMalware : PdnsAssociation::kUnknown;
    direct.add_observation(day, ip, kind);
  }
  PassiveDnsDb absorbed;
  absorbed.absorb(direct);
  EXPECT_EQ(absorbed.observation_count(), direct.observation_count());
  EXPECT_EQ(save_bytes(absorbed), save_bytes(direct));

  std::istringstream in(save_bytes(absorbed));
  const auto loaded = PassiveDnsDb::load(in);
  EXPECT_EQ(loaded.observation_count(), direct.observation_count());
  EXPECT_EQ(save_bytes(loaded), save_bytes(direct));
}

TEST(PassiveDnsDbAbsorbTest, AbsorbIsIdempotent) {
  PassiveDnsDb source;
  source.add_observation(-10, IpV4::parse("1.2.3.4"), PdnsAssociation::kMalware);
  source.add_observation(-5, IpV4::parse("1.2.3.9"), PdnsAssociation::kUnknown);
  source.add_observation(3, IpV4::parse("9.8.7.6"), PdnsAssociation::kMalware);

  PassiveDnsDb db;
  db.absorb(source);
  db.absorb(source);  // second absorb must change nothing
  db.absorb(db);      // and so must absorbing itself
  EXPECT_EQ(save_bytes(db), save_bytes(source));
  EXPECT_EQ(db.observation_count(), 3u);
  EXPECT_TRUE(db.prefix_malware_associated(IpV4::parse("1.2.3.250"), -20, 0));
  EXPECT_TRUE(db.ip_unknown_associated(IpV4::parse("1.2.3.9"), -5, -5));
  EXPECT_FALSE(db.ip_malware_associated(IpV4::parse("5.5.5.5"), -100, 100));

  // A larger target keeps its own observation count (max, not sum).
  PassiveDnsDb larger;
  for (Day d = 0; d < 5; ++d) {
    larger.add_observation(d, IpV4::parse("7.7.7.7"), PdnsAssociation::kBenign);
  }
  larger.absorb(source);
  EXPECT_EQ(larger.observation_count(), 5u);
}

}  // namespace
}  // namespace seg::dns
