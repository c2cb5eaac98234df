#include "replication/service.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace fortress::replication {
namespace {

Bytes req(const std::string& s) { return bytes_of(s); }
Bytes execute(Service& svc, BytesView request) {
  Bytes out;
  svc.execute(request, out);
  return out;
}
Bytes snapshot(const Service& svc) {
  Bytes out;
  svc.snapshot(out);
  return out;
}
std::string run(Service& svc, const std::string& cmd) {
  return string_of(execute(svc, req(cmd)));
}

TEST(KvServiceTest, ExecuteAndSnapshotReplaceBufferContents) {
  // Replicas hand the service one reused buffer per purpose: whatever it
  // held before (a longer response, an old snapshot) must not leak.
  KvService kv;
  Bytes out = bytes_of("a long stale response from an earlier request");
  kv.execute(req("PUT k v"), out);
  EXPECT_EQ(string_of(out), "OK");
  kv.execute(req("GET k"), out);
  EXPECT_EQ(string_of(out), "VALUE v");
  Bytes snap = bytes_of("stale");
  kv.snapshot(snap);
  KvService fresh;
  EXPECT_TRUE(fresh.restore(snap));
  EXPECT_EQ(run(fresh, "GET k"), "VALUE v");
}

TEST(KvServiceTest, PutGetDelete) {
  KvService kv;
  EXPECT_EQ(run(kv, "PUT a 1"), "OK");
  EXPECT_EQ(run(kv, "GET a"), "VALUE 1");
  EXPECT_EQ(run(kv, "PUT a 2"), "OK");
  EXPECT_EQ(run(kv, "GET a"), "VALUE 2");
  EXPECT_EQ(run(kv, "DEL a"), "OK");
  EXPECT_EQ(run(kv, "GET a"), "NOTFOUND");
  EXPECT_EQ(run(kv, "DEL a"), "NOTFOUND");
}

TEST(KvServiceTest, SizeAndErrors) {
  KvService kv;
  EXPECT_EQ(run(kv, "SIZE"), "SIZE 0");
  run(kv, "PUT x 1");
  run(kv, "PUT y 2");
  EXPECT_EQ(run(kv, "SIZE"), "SIZE 2");
  EXPECT_EQ(run(kv, ""), "ERR empty");
  EXPECT_EQ(run(kv, "FROB"), "ERR bad-command");
  EXPECT_EQ(run(kv, "PUT onlykey"), "ERR bad-command");
}

TEST(KvServiceTest, SplitsCommandsOnAnyWhitespace) {
  KvService kv;
  EXPECT_EQ(run(kv, "  PUT\tk \n v\r\n"), "OK");
  EXPECT_EQ(run(kv, "GET\vk\f"), "VALUE v");
  EXPECT_EQ(run(kv, "PUT k w extra words"), "OK");
  EXPECT_EQ(run(kv, "GET k"), "VALUE w");
  EXPECT_EQ(run(kv, " \t "), "ERR empty");
  EXPECT_EQ(run(kv, "put k v"), "ERR bad-command");
}

TEST(KvServiceTest, SnapshotRestoreRoundTrip) {
  KvService a;
  run(a, "PUT k1 v1");
  run(a, "PUT k2 v2");
  KvService b;
  EXPECT_TRUE(b.restore(snapshot(a)));
  EXPECT_EQ(run(b, "GET k1"), "VALUE v1");
  EXPECT_EQ(run(b, "GET k2"), "VALUE v2");
  EXPECT_EQ(b.size(), 2u);
}

TEST(KvServiceTest, RestoreReplacesState) {
  KvService a;
  run(a, "PUT fresh 1");
  Bytes snap = snapshot(a);
  KvService b;
  run(b, "PUT stale 9");
  EXPECT_TRUE(b.restore(snap));
  EXPECT_EQ(run(b, "GET stale"), "NOTFOUND");
  EXPECT_EQ(run(b, "GET fresh"), "VALUE 1");
}

TEST(KvServiceTest, DeterminismAcrossInstances) {
  // The DSM property SMR relies on: same command sequence, same state.
  KvService a, b;
  for (const char* cmd : {"PUT x 1", "PUT y 2", "DEL x", "PUT z 3"}) {
    EXPECT_EQ(execute(a, req(cmd)), execute(b, req(cmd)));
  }
  EXPECT_EQ(snapshot(a), snapshot(b));
}

TEST(SessionTokenServiceTest, MintsAndChecksTokens) {
  SessionTokenService svc(7);
  std::string reply = run(svc, "TOKEN alice");
  ASSERT_EQ(reply.substr(0, 6), "TOKEN ");
  std::string token = reply.substr(6);
  EXPECT_EQ(token.size(), 32u);  // 16 bytes hex
  EXPECT_EQ(run(svc, "CHECK alice " + token), "VALID");
  EXPECT_EQ(run(svc, "CHECK alice deadbeef"), "INVALID");
  EXPECT_EQ(run(svc, "CHECK bob x"), "NOTFOUND");
}

TEST(SessionTokenServiceTest, IsObservablyNonDeterministic) {
  // Two replicas executing the same request produce DIFFERENT results —
  // the §1 problem for SMR, harmless for PB.
  SessionTokenService r1(1), r2(2);
  Bytes a = execute(r1, req("TOKEN alice"));
  Bytes b = execute(r2, req("TOKEN alice"));
  EXPECT_NE(a, b);
}

TEST(SessionTokenServiceTest, StateShippingResolvesNonDeterminism) {
  // The PB fix: backups restore the primary's snapshot instead of
  // re-executing; afterwards they agree on the minted token.
  SessionTokenService primary(1), backup(2);
  std::string reply = run(primary, "TOKEN alice");
  std::string token = reply.substr(6);
  EXPECT_TRUE(backup.restore(snapshot(primary)));
  EXPECT_EQ(run(backup, "CHECK alice " + token), "VALID");
}

// A map snapshot built by hand, entries in the given order (so unsorted
// and repeated keys can be written, which snapshot() never does).
Bytes map_snapshot(const std::vector<std::pair<std::string, std::string>>& kv) {
  Bytes out;
  append_u64_be(out, kv.size());
  for (const auto& [k, v] : kv) {
    append_u64_be(out, k.size());
    append(out, bytes_view(k));
    append_u64_be(out, v.size());
    append(out, bytes_view(v));
  }
  return out;
}

// Snapshots a pre-filled map-based service may be restored to: grown,
// shrunk, emptied, with a repeated key (the first occurrence wins) and out
// of order.
std::vector<Bytes> restore_targets() {
  return {
      map_snapshot({{"a", "1"},
                    {"b", "a-value-much-longer-than-the-old-one"},
                    {"c", "3"},
                    {"k0", "x"},
                    {"zz", "new"}}),
      map_snapshot({{"b", "2"}}),
      map_snapshot({}),
      map_snapshot({{"a", "first"}, {"a", "second"}, {"b", "y"}, {"b", "z"}}),
      map_snapshot({{"zz", "1"}, {"a", "2"}, {"k0", "3"}, {"a", "4"}}),
  };
}

template <typename S>
void prefill(S& svc) {
  const Bytes start = map_snapshot({{"a", "old-a-with-a-long-value"},
                                    {"b", "old-b"},
                                    {"k0", "old-k0"},
                                    {"k1", "old-k1"}});
  ASSERT_TRUE(svc.restore(start));
}

TEST(ServiceRestoreTest, KvRestoreIntoPrefilledEqualsFresh) {
  for (const Bytes& target : restore_targets()) {
    KvService reused;
    prefill(reused);
    KvService fresh;
    ASSERT_TRUE(reused.restore(target));
    ASSERT_TRUE(fresh.restore(target));
    EXPECT_EQ(snapshot(reused), snapshot(fresh));
    EXPECT_EQ(reused.size(), fresh.size());
    for (const char* key : {"a", "b", "c", "k0", "k1", "zz"}) {
      EXPECT_EQ(run(reused, std::string("GET ") + key),
                run(fresh, std::string("GET ") + key));
    }
  }
  // The repeated-key snapshot keeps each key's first value.
  KvService kv;
  ASSERT_TRUE(kv.restore(restore_targets()[3]));
  EXPECT_EQ(run(kv, "GET a"), "VALUE first");
  EXPECT_EQ(run(kv, "GET b"), "VALUE y");
  EXPECT_EQ(kv.size(), 2u);
}

TEST(ServiceRestoreTest, SessionTokenRestoreIntoPrefilledEqualsFresh) {
  for (const Bytes& target : restore_targets()) {
    SessionTokenService reused(1);
    prefill(reused);
    SessionTokenService fresh(2);
    ASSERT_TRUE(reused.restore(target));
    ASSERT_TRUE(fresh.restore(target));
    EXPECT_EQ(snapshot(reused), snapshot(fresh));
    for (const char* key : {"a", "b", "c", "k0", "k1", "zz"}) {
      EXPECT_EQ(run(reused, std::string("GET ") + key),
                run(fresh, std::string("GET ") + key));
    }
  }
}

TEST(ServiceRestoreTest, MalformedSnapshotLeavesStateUntouched) {
  // Every proper prefix of a valid record is malformed (the count promises
  // entries the bytes do not hold): restore refuses it and changes nothing.
  const Bytes valid = restore_targets()[0];
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const BytesView cut(valid.data(), len);
    KvService kv;
    prefill(kv);
    const Bytes kv_before = snapshot(kv);
    EXPECT_FALSE(kv.restore(cut)) << "length " << len;
    EXPECT_EQ(snapshot(kv), kv_before) << "length " << len;

    SessionTokenService tokens(3);
    prefill(tokens);
    const Bytes tokens_before = snapshot(tokens);
    EXPECT_FALSE(tokens.restore(cut)) << "length " << len;
    EXPECT_EQ(snapshot(tokens), tokens_before) << "length " << len;
  }
}

}  // namespace
}  // namespace fortress::replication
