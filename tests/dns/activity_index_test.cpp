#include "dns/activity_index.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

namespace seg::dns {
namespace {

std::string save_bytes(const DomainActivityIndex& index) {
  std::ostringstream blob;
  index.save(blob);
  return std::move(blob).str();
}

TEST(ActivityIndexTest, UnseenNameHasZeroActivity) {
  DomainActivityIndex index;
  EXPECT_EQ(index.active_days("x.com", 0, 100), 0);
  EXPECT_EQ(index.consecutive_days_ending("x.com", 10), 0);
  EXPECT_EQ(index.first_seen("x.com"), std::nullopt);
}

TEST(ActivityIndexTest, ActiveDaysCountsWithinWindow) {
  DomainActivityIndex index;
  for (Day d : {1, 3, 5, 7, 9}) {
    index.mark_active("a.com", d);
  }
  EXPECT_EQ(index.active_days("a.com", 1, 9), 5);
  EXPECT_EQ(index.active_days("a.com", 2, 6), 2);  // days 3, 5
  EXPECT_EQ(index.active_days("a.com", 10, 20), 0);
}

TEST(ActivityIndexTest, MarkActiveIsIdempotentPerDay) {
  DomainActivityIndex index;
  index.mark_active("a.com", 4);
  index.mark_active("a.com", 4);
  EXPECT_EQ(index.active_days("a.com", 4, 4), 1);
}

TEST(ActivityIndexTest, ConsecutiveDaysEnding) {
  DomainActivityIndex index;
  for (Day d : {2, 3, 4, 6, 7}) {
    index.mark_active("a.com", d);
  }
  EXPECT_EQ(index.consecutive_days_ending("a.com", 4), 3);  // 2,3,4
  EXPECT_EQ(index.consecutive_days_ending("a.com", 7), 2);  // 6,7
  EXPECT_EQ(index.consecutive_days_ending("a.com", 5), 0);  // not active on 5
  EXPECT_EQ(index.consecutive_days_ending("a.com", 2), 1);
}

TEST(ActivityIndexTest, OutOfOrderMarking) {
  DomainActivityIndex index;
  index.mark_active("a.com", 9);
  index.mark_active("a.com", 7);
  index.mark_active("a.com", 8);
  EXPECT_EQ(index.consecutive_days_ending("a.com", 9), 3);
  EXPECT_EQ(index.first_seen("a.com"), 7);
}

TEST(ActivityIndexTest, NamesAreIndependent) {
  DomainActivityIndex index;
  index.mark_active("a.com", 1);
  index.mark_active("b.com", 2);
  EXPECT_EQ(index.active_days("a.com", 0, 10), 1);
  EXPECT_EQ(index.active_days("b.com", 0, 10), 1);
  EXPECT_EQ(index.tracked_names(), 2u);
}

TEST(ActivityIndexTest, FirstSeen) {
  DomainActivityIndex index;
  index.mark_active("a.com", 42);
  index.mark_active("a.com", 12);
  EXPECT_EQ(index.first_seen("a.com"), 12);
}

// absorb() folds whole day lists at once; the result must answer every
// query and save every byte exactly like one index fed the same
// observations through mark_active().
TEST(ActivityIndexAbsorbTest, MatchesDirectMarkingOnRandomizedWorkload) {
  util::Rng rng(7);
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) {
    names.push_back("host" + std::to_string(i) + ".example.com");
  }
  DomainActivityIndex direct;
  DomainActivityIndex parts[3];
  for (int i = 0; i < 2000; ++i) {
    const auto& name = names[rng.next_below(names.size())];
    const auto day = static_cast<Day>(rng.next_int(-30, 30));
    direct.mark_active(name, day);
    parts[rng.next_below(3)].mark_active(name, day);
  }
  DomainActivityIndex absorbed;
  for (const auto& part : parts) {
    absorbed.absorb(part);
  }

  EXPECT_EQ(absorbed.tracked_names(), direct.tracked_names());
  for (const auto& name : names) {
    const auto from = static_cast<Day>(rng.next_int(-30, 0));
    const auto to = static_cast<Day>(rng.next_int(0, 30));
    EXPECT_EQ(absorbed.active_days(name, from, to), direct.active_days(name, from, to));
    EXPECT_EQ(absorbed.consecutive_days_ending(name, to),
              direct.consecutive_days_ending(name, to));
    EXPECT_EQ(absorbed.first_seen(name), direct.first_seen(name));
  }
  EXPECT_EQ(save_bytes(absorbed), save_bytes(direct));
}

TEST(ActivityIndexAbsorbTest, SaveIsByteIdenticalToDirectMarkingAndRoundTrips) {
  util::Rng rng(11);
  DomainActivityIndex direct;
  DomainActivityIndex partial;
  for (int i = 0; i < 500; ++i) {
    const auto name = "d" + std::to_string(rng.next_below(25)) + ".net";
    const auto day = static_cast<Day>(rng.next_int(-10, 40));
    direct.mark_active(name, day);
    if (rng.next_bool(0.5)) {
      partial.mark_active(name, day);
    }
  }
  // Absorbing into a store that already holds some of the days merges.
  partial.absorb(direct);
  EXPECT_EQ(save_bytes(partial), save_bytes(direct));

  std::istringstream in(save_bytes(partial));
  const auto loaded = DomainActivityIndex::load(in);
  EXPECT_EQ(loaded.tracked_names(), direct.tracked_names());
  EXPECT_EQ(save_bytes(loaded), save_bytes(direct));
}

TEST(ActivityIndexAbsorbTest, AbsorbIsIdempotent) {
  DomainActivityIndex source;
  for (Day d : {1, 2, 3, 7}) {
    source.mark_active("a.com", d);
  }
  source.mark_active("b.org", 5);

  DomainActivityIndex index;
  index.absorb(source);
  index.absorb(source);  // second absorb must change nothing
  index.absorb(index);   // and so must absorbing itself
  EXPECT_EQ(save_bytes(index), save_bytes(source));
  EXPECT_EQ(index.tracked_names(), 2u);
  EXPECT_EQ(index.consecutive_days_ending("a.com", 3), 3);
  EXPECT_EQ(index.active_days("a.com", 1, 7), 4);
  EXPECT_EQ(index.first_seen("b.org"), 5);
}

}  // namespace
}  // namespace seg::dns
