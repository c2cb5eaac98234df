// The flat hashed per-request table behind both replica planes: lookup by
// borrowed key, operator[]-style insertion, growth under collisions, and
// insertion-ordered iteration (what the SMR re-proposal path sorts).
#include "replication/request_table.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace fortress::replication {
namespace {

struct Entry : RequestKey {
  int value = 0;
  ByteRef response;
  IdSetRef requesters;
};

std::uint64_t h(const std::string& client, std::uint64_t seq) {
  return request_key_hash(client, seq);
}

TEST(RequestTableTest, FindMissReturnsNull) {
  RequestTable<Entry> table;
  EXPECT_EQ(table.find("nobody", 1, h("nobody", 1)), nullptr);
  EXPECT_TRUE(table.empty());
}

TEST(RequestTableTest, InsertThenFind) {
  RequestTable<Entry> table;
  Entry& e = table.find_or_insert("alice", 7, h("alice", 7));
  e.value = 42;
  EXPECT_EQ(table.size(), 1u);

  Entry* found = table.find("alice", 7, h("alice", 7));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value, 42);
  EXPECT_EQ(table.client(*found), "alice");
  EXPECT_EQ(found->seq, 7u);
  EXPECT_EQ(found->hash, h("alice", 7));

  // Same client, different seq (and vice versa) are distinct records.
  EXPECT_EQ(table.find("alice", 8, h("alice", 8)), nullptr);
  EXPECT_EQ(table.find("alicf", 7, h("alicf", 7)), nullptr);

  // find_or_insert on an existing key returns the same record.
  EXPECT_EQ(&table.find_or_insert("alice", 7, h("alice", 7)), found);
  EXPECT_EQ(table.size(), 1u);
}

TEST(RequestTableTest, GrowsThroughManyInsertsAndKeepsAll) {
  RequestTable<Entry> table;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    const std::string client = "client-" + std::to_string(i % 97);
    const std::uint64_t seq = static_cast<std::uint64_t>(i);
    Entry& e = table.find_or_insert(client, seq, h(client, seq));
    e.value = i;
  }
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    const std::string client = "client-" + std::to_string(i % 97);
    const std::uint64_t seq = static_cast<std::uint64_t>(i);
    Entry* e = table.find(client, seq, h(client, seq));
    ASSERT_NE(e, nullptr) << i;
    EXPECT_EQ(e->value, i);
  }
}

TEST(RequestTableTest, SurvivesCollidingHashes) {
  // Deliberately feed every record the SAME hash: correctness must come
  // from the key comparison, with linear probing soaking up the pile-up.
  RequestTable<Entry> table;
  for (int i = 0; i < 300; ++i) {
    Entry& e = table.find_or_insert("c", static_cast<std::uint64_t>(i), 12345);
    e.value = i;
  }
  for (int i = 0; i < 300; ++i) {
    Entry* e = table.find("c", static_cast<std::uint64_t>(i), 12345);
    ASSERT_NE(e, nullptr) << i;
    EXPECT_EQ(e->value, i);
  }
  EXPECT_EQ(table.find("c", 300, 12345), nullptr);
}

TEST(RequestTableTest, EntriesAreInsertionOrdered) {
  RequestTable<Entry> table;
  table.find_or_insert("zeta", 1, h("zeta", 1));
  table.find_or_insert("alpha", 9, h("alpha", 9));
  table.find_or_insert("mu", 4, h("mu", 4));
  ASSERT_EQ(table.entries().size(), 3u);
  EXPECT_EQ(table.client(table.entries()[0]), "zeta");
  EXPECT_EQ(table.client(table.entries()[1]), "alpha");
  EXPECT_EQ(table.client(table.entries()[2]), "mu");
}

TEST(RequestTableTest, ClearForgetsEverything) {
  RequestTable<Entry> table;
  table.find_or_insert("a", 1, h("a", 1));
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find("a", 1, h("a", 1)), nullptr);
  // Reusable after clear.
  table.find_or_insert("b", 2, h("b", 2)).value = 5;
  EXPECT_EQ(table.find("b", 2, h("b", 2))->value, 5);
}

TEST(RequestTableTest, RecordReusedAfterClearCarriesNoStaleState) {
  // clear() keeps every buffer, so the next trial's first record lands in
  // the storage the last trial's first record used: it must start blank.
  RequestTable<Entry> table;
  {
    Entry& e = table.find_or_insert("a-long-client-name", 1,
                                    h("a-long-client-name", 1));
    e.value = 9;
    table.assign(e.response, bytes_of("a stale response body"));
    for (net::HostId id : {7u, 3u, 11u}) table.insert(e.requesters, id);
  }
  table.clear();

  Entry& e = table.find_or_insert("b", 2, h("b", 2));
  EXPECT_EQ(table.client(e), "b");
  EXPECT_EQ(e.value, 0);
  EXPECT_TRUE(table.bytes(e.response).empty());
  EXPECT_TRUE(table.ids(e.requesters).empty());
  EXPECT_FALSE(table.contains(e.requesters, 3));

  table.assign(e.response, bytes_of("ok"));
  table.insert(e.requesters, 5);
  EXPECT_EQ(string_of(table.bytes(e.response)), "ok");
  ASSERT_EQ(table.ids(e.requesters).size(), 1u);
  EXPECT_EQ(table.ids(e.requesters)[0], 5u);
  EXPECT_EQ(table.find("a-long-client-name", 1, h("a-long-client-name", 1)),
            nullptr);
}

TEST(RequestTableTest, KeysSharingTagBitsStillResolve) {
  // The index compares a slot's hash tag (the top 32 bits) before touching
  // the record. Keys whose hashes share the tag — identical hashes, and
  // hashes that differ only below the tag — must still resolve by the full
  // key, through many growths of the index.
  RequestTable<Entry> table;
  constexpr std::uint64_t kTag = 0xabcdef0100000000ull;
  for (int i = 0; i < 200; ++i) {
    const std::string client = "c" + std::to_string(i % 7);
    const auto seq = static_cast<std::uint64_t>(i);
    const std::uint64_t hash = kTag | static_cast<std::uint64_t>(i % 3);
    table.find_or_insert(client, seq, hash).value = i;
  }
  EXPECT_EQ(table.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    const std::string client = "c" + std::to_string(i % 7);
    const auto seq = static_cast<std::uint64_t>(i);
    const std::uint64_t hash = kTag | static_cast<std::uint64_t>(i % 3);
    Entry* e = table.find(client, seq, hash);
    ASSERT_NE(e, nullptr) << i;
    EXPECT_EQ(e->value, i);
    EXPECT_EQ(table.client(*e), client);
    // Same tag and key, other low bits: a different hash, so a miss.
    EXPECT_EQ(table.find(client, seq, hash ^ 0x4), nullptr) << i;
  }
  EXPECT_EQ(table.find("c0", 1000, kTag), nullptr);
}

TEST(RequestTableTest, IdSetsStayAscendingAndUniqueAcrossMoves) {
  // Each record's id set grows by moving to the arena's end; interleaving
  // two records' inserts exercises moves past each other's storage.
  RequestTable<Entry> table;
  table.find_or_insert("x", 1, h("x", 1));
  table.find_or_insert("y", 1, h("y", 1));
  const net::HostId ids[] = {9, 2, 7, 2, 5, 11, 1, 9, 4};
  for (net::HostId id : ids) {
    table.insert(table.entries()[0].requesters, id);
    table.insert(table.entries()[1].requesters, id + 100);
  }
  const std::vector<net::HostId> want = {1, 2, 4, 5, 7, 9, 11};
  const auto x = table.ids(table.entries()[0].requesters);
  EXPECT_EQ(std::vector<net::HostId>(x.begin(), x.end()), want);
  const auto y = table.ids(table.entries()[1].requesters);
  ASSERT_EQ(y.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(y[i], want[i] + 100);
  EXPECT_TRUE(table.contains(table.entries()[0].requesters, 4));
  EXPECT_FALSE(table.contains(table.entries()[0].requesters, 3));
}

TEST(RequestTableTest, HashSpreadsRealisticKeys) {
  // Not a strict avalanche test — just assert the obvious degenerate
  // collisions don't happen for campaign-shaped keys.
  std::set<std::uint64_t> seen;
  for (int c = 0; c < 64; ++c) {
    for (std::uint64_t s = 0; s < 64; ++s) {
      seen.insert(request_key_hash("sybil-" + std::to_string(c), s));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

}  // namespace
}  // namespace fortress::replication
