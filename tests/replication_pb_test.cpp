#include "replication/pb_replica.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/network.hpp"
#include "osl/machine.hpp"
#include "replication/service.hpp"
#include "scheduler_test.hpp"
#include "sim/simulator.hpp"

namespace fortress::replication {
namespace {

Bytes snapshot(const Service& svc) {
  Bytes out;
  svc.snapshot(out);
  return out;
}

/// A bare client endpoint that records signed responses.
class TestClient : public net::Handler {
 public:
  explicit TestClient(net::Network& net, const net::Address& addr)
      : net_(net), addr_(addr), id_(net_.attach(addr_, *this)) {}
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

  /// Send `msg` as-is to `server` (forged or malformed protocol traffic).
  void send_raw(const Message& msg, const net::Address& server) {
    net_.send(id_, net_.id_of(server), msg.encode());
  }

  /// Distinct sender indices that answered `rid` with `body`.
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

class PbTest : public ::testing::Test {
 protected:
  static constexpr int kN = 3;

  explicit PbTest(sim::SchedulerKind kind)
      : sim_(kind),
        net_(sim_, {.latency = net::LatencySpec::fixed(0.5)}),
        client_(net_, "client") {
    for (int i = 0; i < kN; ++i) {
      addrs_.push_back("server-" + std::to_string(i));
    }
    PbConfig cfg;
    cfg.replicas = addrs_;
    for (int i = 0; i < kN; ++i) {
      machines_.push_back(std::make_unique<osl::Machine>(
          net_, osl::MachineConfig{addrs_[static_cast<std::size_t>(i)], 1 << 10}));
      cfg.index = static_cast<std::uint32_t>(i);
      replicas_.push_back(std::make_unique<PbReplica>(
          sim_, net_, registry_, std::make_unique<KvService>(), cfg));
      machines_.back()->set_application(replicas_.back().get());
    }
  }

  void boot_and_start() {
    for (int i = 0; i < kN; ++i) {
      machines_[static_cast<std::size_t>(i)]->boot(static_cast<osl::RandKey>(i));
      replicas_[static_cast<std::size_t>(i)]->start();
    }
  }

  sim::Simulator sim_;
  net::Network net_;
  crypto::KeyRegistry registry_{123};
  std::vector<net::Address> addrs_;
  std::vector<std::unique_ptr<osl::Machine>> machines_;
  std::vector<std::unique_ptr<PbReplica>> replicas_;
  TestClient client_;
};

SCHEDULER_TEST_F(PbTest, InitialPrimaryIsIndexZero) {
  boot_and_start();
  EXPECT_TRUE(replicas_[0]->is_primary());
  EXPECT_FALSE(replicas_[1]->is_primary());
  EXPECT_FALSE(replicas_[2]->is_primary());
}

SCHEDULER_TEST_F(PbTest, AllReplicasSignAndAnswer) {
  boot_and_start();
  RequestId rid{"client", 1};
  client_.send_request(rid, "PUT a 1", addrs_);
  sim_.run_until(30.0);
  // §3: EVERY server (primary + backups) signs and returns the response.
  auto responders = client_.responders(rid, "OK");
  EXPECT_EQ(responders.size(), 3u);
  // All responses carry valid signatures.
  for (const auto& r : client_.responses) {
    const Bytes wire = r.encode();
    auto view = MessageView::decode(wire);
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(verify_message(*view, registry_));
  }
}

SCHEDULER_TEST_F(PbTest, BackupsAnswerRequesterLearnedFromStateUpdate) {
  // Regression (dense-id plane): when a request reaches ONLY the primary
  // (dropped datagrams, or a proxy that connected to one server), backups
  // learn the requester exclusively from the StateUpdate's requester field
  // — which must round-trip the sender's real address, not a mangled id.
  boot_and_start();
  RequestId rid{"client", 1};
  client_.send_request(rid, "PUT a 1", {addrs_[0]});  // primary only
  sim_.run_until(30.0);
  auto responders = client_.responders(rid, "OK");
  EXPECT_EQ(responders.size(), 3u);  // backups answered via the update
}

SCHEDULER_TEST_F(PbTest, OnlyPrimaryExecutes) {
  boot_and_start();
  RequestId rid{"client", 1};
  client_.send_request(rid, "PUT a 1", addrs_);
  sim_.run_until(30.0);
  EXPECT_EQ(replicas_[0]->executed_requests(), 1u);
  EXPECT_EQ(replicas_[1]->executed_requests(), 0u);
  EXPECT_EQ(replicas_[2]->executed_requests(), 0u);
}

SCHEDULER_TEST_F(PbTest, BackupsReceiveState) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(30.0);
  for (const auto& r : replicas_) {
    EXPECT_EQ(r->applied_seq(), 1u);
  }
}

SCHEDULER_TEST_F(PbTest, DuplicateRequestNotReExecuted) {
  boot_and_start();
  RequestId rid{"client", 1};
  client_.send_request(rid, "PUT a 1", addrs_);
  sim_.run_until(30.0);
  client_.send_request(rid, "PUT a 1", addrs_);  // retry of the same rid
  sim_.run_until(60.0);
  EXPECT_EQ(replicas_[0]->executed_requests(), 1u);
  // But the client got answered again from the cache.
  EXPECT_GE(client_.responders(rid, "OK").size(), 3u);
}

SCHEDULER_TEST_F(PbTest, SequentialRequestsBuildState) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(30.0);
  client_.send_request({"client", 2}, "PUT b 2", addrs_);
  sim_.run_until(60.0);
  client_.send_request({"client", 3}, "GET a", addrs_);
  sim_.run_until(90.0);
  EXPECT_EQ(client_.responders({"client", 3}, "VALUE 1").size(), 3u);
}

SCHEDULER_TEST_F(PbTest, FailoverAfterPrimaryCrash) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(30.0);

  machines_[0]->shutdown();  // primary crashes
  sim_.run_until(120.0);     // failover timeout elapses

  EXPECT_GT(replicas_[1]->view(), 0u);
  EXPECT_TRUE(replicas_[1]->is_primary() || replicas_[2]->is_primary());

  // The new primary serves from the replicated state.
  client_.send_request({"client", 2}, "GET a", addrs_);
  sim_.run_until(180.0);
  auto ok = client_.responders({"client", 2}, "VALUE 1");
  EXPECT_GE(ok.size(), 2u);  // the two survivors
}

SCHEDULER_TEST_F(PbTest, NonDeterministicServiceStaysConsistent) {
  // Replace services with the non-deterministic token service: PB must keep
  // replicas consistent because only the primary executes.
  machines_.clear();
  replicas_.clear();
  PbConfig cfg;
  cfg.replicas = addrs_;
  for (int i = 0; i < kN; ++i) {
    machines_.push_back(std::make_unique<osl::Machine>(
        net_, osl::MachineConfig{addrs_[static_cast<std::size_t>(i)], 1 << 10}));
    cfg.index = static_cast<std::uint32_t>(i);
    replicas_.push_back(std::make_unique<PbReplica>(
        sim_, net_, registry_,
        std::make_unique<SessionTokenService>(1000 + static_cast<std::uint64_t>(i)),
        cfg));
    machines_.back()->set_application(replicas_.back().get());
  }
  boot_and_start();

  RequestId rid{"client", 1};
  client_.send_request(rid, "TOKEN alice", addrs_);
  sim_.run_until(30.0);
  // All three replicas return the SAME token (the primary's), despite each
  // having a different local RNG — the §1 argument for PB.
  ASSERT_GE(client_.responses.size(), 3u);
  std::set<std::string> bodies;
  for (const auto& r : client_.responses) bodies.insert(string_of(r.payload));
  EXPECT_EQ(bodies.size(), 1u);

  // And the token validates against every replica's state.
  std::string token = (*bodies.begin()).substr(6);
  client_.send_request({"client", 2}, "CHECK alice " + token, addrs_);
  sim_.run_until(60.0);
  EXPECT_EQ(client_.responders({"client", 2}, "VALID").size(), 3u);
}

SCHEDULER_TEST_F(PbTest, RebootedBackupRejoinsQuietly) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(30.0);
  machines_[2]->recover();  // backup reboots (proactive recovery)
  sim_.run_until(35.0);
  // It retained durable state and did not trigger a spurious view change.
  EXPECT_EQ(replicas_[2]->applied_seq(), 1u);
  EXPECT_EQ(replicas_[2]->view(), 0u);
  client_.send_request({"client", 2}, "GET a", addrs_);
  sim_.run_until(70.0);
  EXPECT_EQ(client_.responders({"client", 2}, "VALUE 1").size(), 3u);
}

SCHEDULER_TEST_F(PbTest, MalformedStateUpdateIsDroppedNotThrown) {
  // StateUpdates are unsigned, so a backup must survive one whose snapshot
  // does not parse: it keeps its state and applied_seq, and the next valid
  // update still applies.
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(30.0);
  ASSERT_EQ(replicas_[1]->applied_seq(), 1u);
  const Bytes state_before = snapshot(replicas_[1]->service());

  Message bad;
  bad.type = MsgType::StateUpdate;
  bad.view = 0;
  bad.seq = 2;
  bad.sender_index = 0;  // claims to come from the primary
  bad.request_id = {"forger", 1};
  bad.payload = bytes_of("OK");
  bad.aux = state_before;
  bad.aux.resize(bad.aux.size() - 3);  // truncated snapshot
  client_.send_raw(bad, addrs_[1]);
  ASSERT_NO_THROW(sim_.run_until(40.0));
  EXPECT_EQ(replicas_[1]->applied_seq(), 1u);
  EXPECT_EQ(snapshot(replicas_[1]->service()), state_before);

  client_.send_request({"client", 2}, "PUT b 2", addrs_);
  sim_.run_until(70.0);
  EXPECT_EQ(replicas_[1]->applied_seq(), 2u);
  EXPECT_EQ(snapshot(replicas_[1]->service()),
            snapshot(replicas_[0]->service()));
  EXPECT_EQ(client_.responders({"client", 2}, "OK").size(), 3u);
}

}  // namespace
}  // namespace fortress::replication
