// Tests for util::FlatIdMap: entries survive every rehash, the reserved
// empty key 0 and the largest id are ordinary keys to the caller, and a
// lookup never inserts.
#include <gtest/gtest.h>

#include <cstdint>

#include "util/flat_id_map.hpp"

namespace probemon::util {
namespace {

struct Record {
  std::uint64_t count = 0;
  std::uint32_t tag = 0;
};

TEST(FlatIdMap, EveryEntrySurvivesRehash) {
  FlatIdMap<Record> map;
  constexpr std::uint32_t kIds = 10'000;  // ~10 doublings from 16 slots
  for (std::uint32_t id = 1; id <= kIds; ++id) {
    Record& record = map[id];
    EXPECT_EQ(record.count, 0u);  // value-initialized on first use
    record.count = id * 3ull;
    record.tag = id ^ 0x5a5a5a5au;
  }
  EXPECT_EQ(map.size(), kIds);
  // Load factor at most 1/2, power-of-two slots.
  EXPECT_GE(map.slot_count(), 2u * kIds);
  EXPECT_EQ(map.slot_count() & (map.slot_count() - 1), 0u);
  for (std::uint32_t id = 1; id <= kIds; ++id) {
    const Record* record = map.find(id);
    ASSERT_NE(record, nullptr) << id;
    EXPECT_EQ(record->count, id * 3ull);
    EXPECT_EQ(record->tag, id ^ 0x5a5a5a5au);
  }
  // operator[] on a present id returns it, and inserts nothing.
  map[kIds / 2].count += 1;
  EXPECT_EQ(map.find(kIds / 2)->count, kIds / 2 * 3ull + 1);
  EXPECT_EQ(map.size(), kIds);
}

TEST(FlatIdMap, KeyZeroAndTheLargestIdAreOrdinaryKeys) {
  FlatIdMap<Record> map;
  EXPECT_EQ(map.find(0), nullptr);
  map[0].count = 7;
  map[0xFFFFFFFFu].count = 9;
  map[1].count = 1;
  EXPECT_EQ(map.size(), 3u);
  ASSERT_NE(map.find(0), nullptr);
  EXPECT_EQ(map.find(0)->count, 7u);
  EXPECT_EQ(map.find(0xFFFFFFFFu)->count, 9u);
  // Key 0 lives beside the slot array: it never reads as an empty slot
  // and survives the rehashes that many other inserts cause.
  for (std::uint32_t id = 2; id < 1000; ++id) map[id].count = id;
  EXPECT_EQ(map.find(0)->count, 7u);
  EXPECT_EQ(map.find(0xFFFFFFFFu)->count, 9u);
  EXPECT_EQ(map.find(1)->count, 1u);
  EXPECT_EQ(map.size(), 1000u + 1u);
}

TEST(FlatIdMap, FindOnAnAbsentIdInsertsNothing) {
  FlatIdMap<Record> map;
  EXPECT_EQ(map.find(42), nullptr);  // empty map: no slot array yet
  EXPECT_EQ(map.slot_count(), 0u);
  map[41].count = 1;
  map[43].count = 1;
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_EQ(map.find(0xFFFFFFF0u), nullptr);
  EXPECT_EQ(map.find(0), nullptr);
  const FlatIdMap<Record>& view = map;
  EXPECT_EQ(view.find(42), nullptr);
  EXPECT_NE(view.find(43), nullptr);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatIdMap, SparseIdsCostOneSlotEach) {
  // Ids spread over the whole u32 range (remote peers' ids) occupy a
  // table sized by their count, not by their magnitude.
  FlatIdMap<Record> map;
  for (std::uint32_t i = 0; i < 64; ++i) map[0xFFFFFFFFu - i * 0x01000193u];
  EXPECT_EQ(map.size(), 64u);
  EXPECT_LE(map.slot_count(), 256u);
}

}  // namespace
}  // namespace probemon::util
