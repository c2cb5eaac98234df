#include "replication/smr_replica.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "net/network.hpp"
#include "crypto/sha256.hpp"
#include "osl/machine.hpp"
#include "replication/service.hpp"
#include "scheduler_test.hpp"
#include "sim/simulator.hpp"

namespace fortress::replication {
namespace {

class TestClient : public net::Handler {
 public:
  TestClient(net::Network& net, net::Address addr)
      : net_(net), addr_(std::move(addr)), id_(net_.attach(addr_, *this)) {}
  ~TestClient() override { net_.detach(id_); }

  void on_message(const net::Envelope& env) override {
    auto msg = MessageView::decode(env.payload);
    if (msg && msg->type() == MsgType::Response) {
      responses.push_back(msg->materialize());
    }
  }

  void send_request(const RequestId& rid, const std::string& body,
                    const std::vector<net::Address>& servers) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = rid;
    msg.requester = addr_;
    msg.payload = bytes_of(body);
    for (const auto& s : servers) net_.send(id_, net_.id_of(s), msg.encode());
  }

  std::set<std::uint32_t> responders(const RequestId& rid,
                                     const std::string& body) const {
    std::set<std::uint32_t> out;
    for (const auto& r : responses) {
      if (r.request_id == rid && string_of(r.payload) == body) {
        out.insert(r.sender_index);
      }
    }
    return out;
  }

  std::vector<Message> responses;

 private:
  net::Network& net_;
  net::Address addr_;
  net::HostId id_;
};

class SmrTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kF = 1;
  static constexpr std::uint32_t kN = 3 * kF + 1;

  explicit SmrTest(sim::SchedulerKind kind)
      : sim_(kind),
        net_(sim_, {.latency = net::LatencySpec::fixed(0.5)}),
        client_(net_, "client") {
    for (std::uint32_t i = 0; i < kN; ++i) {
      addrs_.push_back("replica-" + std::to_string(i));
    }
    SmrConfig cfg;
    cfg.f = kF;
    cfg.replicas = addrs_;
    for (std::uint32_t i = 0; i < kN; ++i) {
      machines_.push_back(std::make_unique<osl::Machine>(
          net_, osl::MachineConfig{addrs_[i], 1 << 10}));
      cfg.index = i;
      replicas_.push_back(std::make_unique<SmrReplica>(
          sim_, net_, registry_, std::make_unique<KvService>(), cfg));
      machines_.back()->set_application(replicas_.back().get());
    }
  }

  void boot_and_start() {
    for (std::uint32_t i = 0; i < kN; ++i) {
      machines_[i]->boot(i);
      replicas_[i]->start();
    }
  }

  sim::Simulator sim_;
  net::Network net_;
  crypto::KeyRegistry registry_{321};
  std::vector<net::Address> addrs_;
  std::vector<std::unique_ptr<osl::Machine>> machines_;
  std::vector<std::unique_ptr<SmrReplica>> replicas_;
  TestClient client_;
};

SCHEDULER_TEST_F(SmrTest, AllReplicasExecuteAndAgree) {
  boot_and_start();
  RequestId rid{"client", 1};
  client_.send_request(rid, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  // Correct SMR replicas all execute and return identical responses.
  EXPECT_EQ(client_.responders(rid, "OK").size(), 4u);
  for (const auto& r : replicas_) EXPECT_EQ(r->executed_seq(), 1u);
}

SCHEDULER_TEST_F(SmrTest, ResponsesAreSigned) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  ASSERT_FALSE(client_.responses.empty());
  for (const auto& r : client_.responses) {
    const Bytes wire = r.encode();
    auto view = MessageView::decode(wire);
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(verify_message(*view, registry_));
  }
}

SCHEDULER_TEST_F(SmrTest, ConcurrentRequestsExecuteInSameOrderEverywhere) {
  boot_and_start();
  // Two clients race PUTs to the same key; all replicas must order them the
  // same way, whatever that order is.
  TestClient other(net_, "client2");
  client_.send_request({"client", 1}, "PUT k from-c1", addrs_);
  other.send_request({"client2", 1}, "PUT k from-c2", addrs_);
  sim_.run_until(60.0);
  client_.send_request({"client", 2}, "GET k", addrs_);
  sim_.run_until(120.0);
  // All four replicas agree on the final value.
  auto c1 = client_.responders({"client", 2}, "VALUE from-c1");
  auto c2 = client_.responders({"client", 2}, "VALUE from-c2");
  EXPECT_TRUE(c1.size() == 4u || c2.size() == 4u)
      << "c1=" << c1.size() << " c2=" << c2.size();
}

SCHEDULER_TEST_F(SmrTest, DedupAcrossRetries) {
  boot_and_start();
  RequestId rid{"client", 1};
  client_.send_request(rid, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  client_.send_request(rid, "PUT a 1", addrs_);
  sim_.run_until(80.0);
  for (const auto& r : replicas_) EXPECT_EQ(r->executed_seq(), 1u);
}

SCHEDULER_TEST_F(SmrTest, LeaderCrashTriggersViewChangeAndReproposal) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(40.0);

  machines_[0]->shutdown();  // leader of view 0 dies
  // New request arrives while the leader is dead.
  client_.send_request({"client", 2}, "PUT b 2", addrs_);
  sim_.run_until(300.0);

  // Survivors moved past view 0 and executed the request.
  for (std::uint32_t i = 1; i < kN; ++i) {
    EXPECT_GT(replicas_[i]->view(), 0u) << "replica " << i;
    EXPECT_EQ(replicas_[i]->executed_seq(), 2u) << "replica " << i;
  }
  EXPECT_GE(client_.responders({"client", 2}, "OK").size(), 3u);
}

SCHEDULER_TEST_F(SmrTest, SilentLeaderWithoutWorkKeepsView) {
  boot_and_start();
  // One executed request leaves an executed slot in the log: it is not
  // outstanding work.
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  ASSERT_EQ(replicas_[1]->executed_seq(), 1u);

  machines_[0]->shutdown();  // the leader falls silent
  const sim::Time silent_until = 40.0 + 10 * kSmrProgressTimeout;
  sim_.run_until(silent_until);
  for (std::uint32_t i = 1; i < kN; ++i) {
    EXPECT_EQ(replicas_[i]->view(), 0u) << "replica " << i;
  }

  // One outstanding request makes the silence suspicious.
  client_.send_request({"client", 2}, "PUT b 2", addrs_);
  sim_.run_until(silent_until + 8 * kSmrProgressTimeout);
  for (std::uint32_t i = 1; i < kN; ++i) {
    EXPECT_GT(replicas_[i]->view(), 0u) << "replica " << i;
  }
}

SCHEDULER_TEST_F(SmrTest, RebootedReplicaRestoresStateFromQuorum) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  client_.send_request({"client", 2}, "PUT b 2", addrs_);
  sim_.run_until(60.0);
  ASSERT_EQ(replicas_[3]->executed_seq(), 2u);

  machines_[3]->rerandomize(9);  // proactive obfuscation reboot
  EXPECT_TRUE(replicas_[3]->state_stale());
  sim_.run_until(120.0);
  // f+1 matching offers arrived; replica 3 is live again at seq 2.
  EXPECT_FALSE(replicas_[3]->state_stale());
  EXPECT_EQ(replicas_[3]->executed_seq(), 2u);
}

SCHEDULER_TEST_F(SmrTest, StaleReplicaDoesNotServeRequests) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  machines_[3]->rerandomize(9);
  ASSERT_TRUE(replicas_[3]->state_stale());
  // While stale it neither acks proposals nor answers clients; a quorum of
  // the remaining three still commits new work.
  client_.send_request({"client", 2}, "PUT c 3", addrs_);
  sim_.run_until(200.0);
  EXPECT_GE(client_.responders({"client", 2}, "OK").size(), 3u);
}

SCHEDULER_TEST_F(SmrTest, QuorumLossStallsThenRecovers) {
  boot_and_start();
  // Take down two replicas: 2f+1 = 3 acks are impossible with only 2 left.
  machines_[2]->shutdown();
  machines_[3]->shutdown();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(150.0);
  EXPECT_EQ(client_.responders({"client", 1}, "OK").size(), 0u);
  EXPECT_EQ(replicas_[0]->executed_seq(), 0u);
}

// --- signer/index binding ---------------------------------------------------
// Acks, view votes and state offers are counted per sender_index, so a
// replica must not be able to sign them under an index that is not its
// own. Each test has replica 1 sign under indices 2, 3 and 99 (all with a
// valid signature by an enrolled principal), checks nothing is counted,
// then shows the same message from the real owner of index 2 is.

/// Sign `msg` as replica `signer` and deliver it to replica `to` (sent from
/// the test client's host, which stays attached whoever is down).
void send_signed_as(net::Network& net, crypto::KeyRegistry& registry,
                    const std::vector<net::Address>& addrs,
                    std::uint32_t signer, Message msg, std::uint32_t to) {
  const crypto::SigningKey key = registry.enroll(addrs[signer]);
  sign_message(msg, key);
  net.send(net.id_of("client"), net.id_of(addrs[to]), msg.encode());
}

/// The PrepareAck digest: SHA-256 of "client#seq" || request.
Bytes ack_digest(const std::string& client, std::uint64_t seq,
                 const std::string& request) {
  const crypto::Digest d = crypto::Sha256::hash(
      bytes_of(client + "#" + std::to_string(seq) + request));
  return Bytes(d.begin(), d.end());
}

SCHEDULER_TEST_F(SmrTest, AcksSignedUnderAnotherIndexDoNotCommit) {
  boot_and_start();
  // Two replicas down: the leader (0) and replica 1 can only reach 2 of
  // the 2f+1 = 3 acks.
  machines_[2]->shutdown();
  machines_[3]->shutdown();
  client_.send_request({"client", 1}, "PUT a 1", {addrs_[0], addrs_[1]});
  sim_.run_until(5.0);
  ASSERT_EQ(replicas_[0]->executed_seq(), 0u);

  Message ack;
  ack.type = MsgType::PrepareAck;
  ack.view = 0;
  ack.seq = 1;
  ack.request_id = {"client", 1};
  ack.aux = ack_digest("client", 1, "PUT a 1");
  for (std::uint32_t claimed : {2u, 3u, 99u}) {
    ack.sender_index = claimed;
    send_signed_as(net_, registry_, addrs_, 1, ack, 0);
  }
  sim_.run_until(10.0);
  EXPECT_EQ(replicas_[0]->executed_seq(), 0u);
  EXPECT_TRUE(client_.responders({"client", 1}, "OK").empty());

  // Replica 2's own ack is the third endorsement.
  ack.sender_index = 2;
  send_signed_as(net_, registry_, addrs_, 2, ack, 0);
  sim_.run_until(15.0);
  EXPECT_EQ(replicas_[0]->executed_seq(), 1u);
}

SCHEDULER_TEST_F(SmrTest, UnexecutedSlotWithoutPendingRequestChangesView) {
  boot_and_start();
  sim_.run_until(1.0);
  machines_[0]->shutdown();
  // The dead leader's proposal reaches replica 1 only: replica 1 holds a
  // pre-prepared slot and replicas 2 and 3 an ack-only one, none of them
  // committed, and no replica has a pending client request.
  Message proposal;
  proposal.type = MsgType::PrePrepare;
  proposal.view = 0;
  proposal.seq = 1;
  proposal.sender_index = 0;
  proposal.request_id = {"client", 1};
  proposal.payload = bytes_of("PUT a 1");
  send_signed_as(net_, registry_, addrs_, 0, proposal, 1);
  sim_.run_until(kSmrProgressTimeout / 2);  // inside the progress timeout
  for (std::uint32_t i = 1; i < kN; ++i) {
    ASSERT_EQ(replicas_[i]->view(), 0u) << "replica " << i;
    ASSERT_EQ(replicas_[i]->executed_seq(), 0u) << "replica " << i;
  }

  sim_.run_until(10 * kSmrProgressTimeout);
  for (std::uint32_t i = 1; i < kN; ++i) {
    EXPECT_GT(replicas_[i]->view(), 0u) << "replica " << i;
  }
}

SCHEDULER_TEST_F(SmrTest, ViewVotesSignedUnderAnotherIndexDoNotChangeView) {
  boot_and_start();
  sim_.run_until(1.0);
  Message vote;
  vote.type = MsgType::ViewChange;
  vote.view = 1;
  for (std::uint32_t claimed : {1u, 2u, 3u, 99u}) {
    vote.sender_index = claimed;
    send_signed_as(net_, registry_, addrs_, 1, vote, 0);
  }
  sim_.run_until(5.0);
  // Only replica 1's own vote counts: 1 of the 3 needed.
  EXPECT_EQ(replicas_[0]->view(), 0u);

  // Replicas 2 and 3 voting for themselves complete the quorum.
  for (std::uint32_t voter : {2u, 3u}) {
    vote.sender_index = voter;
    send_signed_as(net_, registry_, addrs_, voter, vote, 0);
  }
  sim_.run_until(10.0);
  EXPECT_EQ(replicas_[0]->view(), 1u);
}

SCHEDULER_TEST_F(SmrTest, StateOffersSignedUnderAnotherIndexDoNotRestore) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  ASSERT_EQ(replicas_[1]->executed_seq(), 1u);
  // Only replica 1 is left to answer replica 3's state request: one offer,
  // below the f+1 = 2 needed.
  machines_[0]->shutdown();
  machines_[2]->shutdown();
  machines_[3]->rerandomize(9);
  sim_.run_until(45.0);
  ASSERT_TRUE(replicas_[3]->state_stale());

  Bytes snapshot;
  replicas_[1]->service().snapshot(snapshot);
  Message offer;
  offer.type = MsgType::StateReply;
  offer.view = replicas_[1]->view();
  offer.seq = 1;
  offer.aux = snapshot;
  for (std::uint32_t claimed : {2u, 3u, 99u}) {
    offer.sender_index = claimed;
    send_signed_as(net_, registry_, addrs_, 1, offer, 3);
  }
  sim_.run_until(50.0);
  EXPECT_TRUE(replicas_[3]->state_stale());

  // Replica 2's own offer matches replica 1's: f+1 = 2 senders.
  offer.sender_index = 2;
  send_signed_as(net_, registry_, addrs_, 2, offer, 3);
  sim_.run_until(55.0);
  EXPECT_FALSE(replicas_[3]->state_stale());
}

SCHEDULER_TEST_F(SmrTest, RequiresFourReplicasForFOne) {
  SmrConfig bad;
  bad.f = 1;
  bad.replicas = {"a", "b", "c"};  // only 3
  bad.index = 0;
  EXPECT_THROW(SmrReplica(sim_, net_, registry_,
                          std::make_unique<KvService>(), bad),
               ContractViolation);
}

}  // namespace
}  // namespace fortress::smr_test_adl_guard
