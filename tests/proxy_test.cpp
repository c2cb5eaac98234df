#include "proxy/proxy_node.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/network.hpp"
#include "osl/machine.hpp"
#include "osl/probe.hpp"
#include "proxy/probe_log.hpp"
#include "replication/pb_replica.hpp"
#include "replication/service.hpp"
#include "sim/simulator.hpp"

namespace fortress::proxy {
namespace {

using replication::Message;
using replication::MessageView;
using replication::MsgType;
using replication::RequestId;

class ClientEndpoint : public net::Handler {
 public:
  ClientEndpoint(net::Network& net, net::Address addr)
      : net_(net), addr_(std::move(addr)), id_(net_.attach(addr_, *this)) {}
  ~ClientEndpoint() override { net_.detach(id_); }

  void on_message(const net::Envelope& env) override {
    auto msg = MessageView::decode(env.payload);
    if (msg) responses.push_back(msg->materialize());
    if (arrivals != nullptr) arrivals->push_back(id_);
  }

  void send_request(const RequestId& rid, const std::string& body,
                    net::HostId proxy) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = rid;
    msg.requester = addr_;
    msg.payload = bytes_of(body);
    net_.send(id_, proxy, msg.encode());
  }

  std::vector<Message> responses;
  /// When set, every delivery to this endpoint appends its id here.
  std::vector<net::HostId>* arrivals = nullptr;
  const net::Address& address() const { return addr_; }
  net::HostId id() const { return id_; }

 private:
  net::Network& net_;
  net::Address addr_;
  net::HostId id_;
};

// Full slice: one proxy in front of a 3-replica PB tier.
class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest() : net_(sim_, {.latency = net::LatencySpec::fixed(0.5)}) {
    for (int i = 0; i < 3; ++i) {
      server_addrs_.push_back("server-" + std::to_string(i));
    }
    replication::PbConfig pb;
    pb.replicas = server_addrs_;
    for (int i = 0; i < 3; ++i) {
      server_machines_.push_back(std::make_unique<osl::Machine>(
          net_, osl::MachineConfig{server_addrs_[static_cast<std::size_t>(i)],
                                   kChi}));
      pb.index = static_cast<std::uint32_t>(i);
      replicas_.push_back(std::make_unique<replication::PbReplica>(
          sim_, net_, registry_, std::make_unique<replication::KvService>(),
          pb));
      server_machines_.back()->set_application(replicas_.back().get());
    }
    ProxyConfig cfg;
    cfg.address = "proxy-0";
    cfg.servers = server_addrs_;
    cfg.detection.window = 100.0;
    cfg.detection.threshold = 3;
    osl::MachineConfig mc{"proxy-0", kChi};
    mc.processes_request_payloads = false;  // proxies do no processing
    proxy_machine_ = std::make_unique<osl::Machine>(net_, mc);
    proxy_ = std::make_unique<ProxyNode>(sim_, net_, registry_, cfg);
    proxy_machine_->set_application(proxy_.get());
  }

  void boot_and_start() {
    for (int i = 0; i < 3; ++i) {
      server_machines_[static_cast<std::size_t>(i)]->boot(
          static_cast<osl::RandKey>(10));  // shared server key
      replicas_[static_cast<std::size_t>(i)]->start();
    }
    proxy_machine_->boot(20);
    proxy_->start();
    sim_.run_until(sim_.now() + 5.0);  // let connections establish
  }

  static constexpr std::uint64_t kChi = 1 << 10;

  sim::Simulator sim_;
  net::Network net_;
  crypto::KeyRegistry registry_{77};
  std::vector<net::Address> server_addrs_;
  std::vector<std::unique_ptr<osl::Machine>> server_machines_;
  std::vector<std::unique_ptr<replication::PbReplica>> replicas_;
  std::unique_ptr<osl::Machine> proxy_machine_;
  std::unique_ptr<ProxyNode> proxy_;
};

/// Server stand-in: takes the proxy's connections and forwarded requests
/// and answers nothing, so every response the proxy sees is one a test
/// crafts.
class SilentServer : public net::Handler {
 public:
  void on_message(const net::Envelope&) override {}
};

// One proxy behind a bounded service queue, in front of one stub server.
// Responses are sent in bursts, so they wait in the queue and the proxy
// verifies each one when the machine dispatches it.
class ProxyOverloadTest : public ::testing::Test {
 protected:
  ProxyOverloadTest()
      : net_(sim_, {.latency = net::LatencySpec::fixed(0.5)}),
        server_key_(registry_.enroll("server-0")),
        client_(net_, "client") {
    server_id_ = net_.attach("server-0", server_);
    ProxyConfig cfg;
    cfg.address = "proxy-0";
    cfg.servers = {"server-0"};
    osl::MachineConfig mc{"proxy-0", 1 << 10};
    mc.processes_request_payloads = false;
    machine_ = std::make_unique<osl::Machine>(net_, mc);
    proxy_ = std::make_unique<ProxyNode>(sim_, net_, registry_, cfg);
    machine_->set_application(proxy_.get());
  }

  /// Boots the proxy with a 16-deep queue and one time unit per message,
  /// then has `requests` client requests forwarded so that responses to
  /// them are pending.
  void start(net::OverloadPolicy policy, std::uint32_t degrade_watermark,
             std::uint64_t requests) {
    net::ServiceModel m;
    m.enabled = true;
    m.request_service = net::LatencySpec::fixed(1.0);
    m.response_service = net::LatencySpec::fixed(1.0);
    m.other_service = net::LatencySpec::fixed(1.0);
    m.queue_capacity = 16;
    m.policy = policy;
    m.degrade_watermark = degrade_watermark;
    machine_->configure_service(m, 1);
    machine_->boot(20);
    proxy_->start();
    for (std::uint64_t seq = 1; seq <= requests; ++seq) {
      client_.send_request({"client", seq}, "GET a", machine_->id());
    }
    sim_.run_until(sim_.now() + 30.0);
    ASSERT_EQ(proxy_->stats().requests_forwarded, requests);
  }

  /// Sends the server's response to request `seq`; a corrupted one has a
  /// bit of its signature tag flipped.
  void respond(std::uint64_t seq, bool corrupt) {
    Message m;
    m.type = MsgType::Response;
    m.request_id = RequestId{"client", seq};
    m.requester = "proxy-0";
    m.payload = bytes_of("OK");
    replication::sign_message(m, server_key_);
    if (corrupt) m.signature->tag[0] ^= 0x01;
    net_.send(server_id_, machine_->id(), m.encode());
  }

  sim::Simulator sim_;
  net::Network net_;
  crypto::KeyRegistry registry_{77};
  crypto::SigningKey server_key_;
  SilentServer server_;
  ClientEndpoint client_;
  std::unique_ptr<osl::Machine> machine_;
  std::unique_ptr<ProxyNode> proxy_;
  net::HostId server_id_ = net::kInvalidHost;
};

TEST(ProbeLogTest, ScoreAndWindowExpiry) {
  const net::HostId evil = 7;
  ProbeLog log(DetectionConfig{100.0, 3});
  log.record(evil, 10.0);
  log.record(evil, 20.0);
  EXPECT_EQ(log.score(evil, 25.0), 2u);
  EXPECT_FALSE(log.flagged(evil, 25.0));
  log.record(evil, 30.0);
  EXPECT_TRUE(log.flagged(evil, 35.0));
  // Events age out of the window: at t=115 only the 20.0 and 30.0 events
  // remain; at t=200 all have expired.
  EXPECT_EQ(log.score(evil, 115.0), 2u);
  EXPECT_FALSE(log.flagged(evil, 115.0));
  EXPECT_EQ(log.score(evil, 200.0), 0u);
}

TEST(ProbeLogTest, SourcesAreIndependent) {
  const net::HostId a = 1, b = 2;
  ProbeLog log(DetectionConfig{100.0, 2});
  log.record(a, 1.0);
  log.record(a, 2.0);
  log.record(b, 3.0);
  EXPECT_TRUE(log.flagged(a, 5.0));
  EXPECT_FALSE(log.flagged(b, 5.0));
  EXPECT_EQ(log.score(a, 5.0), 2u);
  EXPECT_EQ(log.score(b, 5.0), 1u);
  // Recording b grew the table past source 0, which still scores zero.
  EXPECT_EQ(log.score(0, 5.0), 0u);
}

TEST(ProbeLogTest, UnknownSourceScoresZero) {
  const net::HostId ghost = 42;
  ProbeLog log(DetectionConfig{});
  EXPECT_EQ(log.score(ghost, 1.0), 0u);
  EXPECT_FALSE(log.flagged(ghost, 1.0));
}

TEST_F(ProxyTest, ForwardsAndOverSignsResponses) {
  boot_and_start();
  ClientEndpoint client(net_, "client");
  client.send_request({"client", 1}, "PUT a 1", proxy_machine_->id());
  sim_.run_until(sim_.now() + 30.0);

  ASSERT_FALSE(client.responses.empty());
  const Message& r = client.responses.front();
  EXPECT_EQ(r.type, MsgType::ProxyResponse);
  EXPECT_EQ(string_of(r.payload), "OK");
  ASSERT_TRUE(r.signature.has_value());
  ASSERT_TRUE(r.over_signature.has_value());
  EXPECT_EQ(r.over_signature->signer.name, "proxy-0");
  const Bytes wire = r.encode();
  auto view = MessageView::decode(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(replication::verify_message(*view, registry_));
  EXPECT_TRUE(replication::verify_over_signature(*view, registry_));
}

TEST_F(ProxyTest, OnlyOneResponsePerClientPerRequest) {
  boot_and_start();
  ClientEndpoint client(net_, "client");
  client.send_request({"client", 1}, "PUT a 1", proxy_machine_->id());
  sim_.run_until(sim_.now() + 40.0);
  // Three servers answered the proxy, but the client hears exactly once.
  EXPECT_EQ(client.responses.size(), 1u);
  EXPECT_EQ(proxy_->stats().responses_delivered, 1u);
}

TEST_F(ProxyTest, SharedRequestIdAnsweredOncePerHostInHostIdOrder) {
  boot_and_start();
  // Two hosts present the same request id. "late" is attached first, so it
  // holds the smaller HostId although its copy reaches the proxy second.
  ClientEndpoint late(net_, "late");
  ClientEndpoint early(net_, "early");
  ASSERT_LT(late.id(), early.id());
  std::vector<net::HostId> arrivals;
  late.arrivals = &arrivals;
  early.arrivals = &arrivals;
  early.send_request({"shared", 1}, "PUT a 1", proxy_machine_->id());
  late.send_request({"shared", 1}, "PUT a 1", proxy_machine_->id());
  sim_.run_until(sim_.now() + 40.0);
  // One over-signed response per host, sent in ascending HostId order.
  EXPECT_EQ(late.responses.size(), 1u);
  EXPECT_EQ(early.responses.size(), 1u);
  EXPECT_EQ(arrivals, (std::vector<net::HostId>{late.id(), early.id()}));
  EXPECT_EQ(proxy_->stats().responses_delivered, 2u);
}

TEST_F(ProxyTest, MalformedRequestsAreLoggedNotForwarded) {
  boot_and_start();
  ClientEndpoint attacker(net_, "attacker");
  std::uint64_t forwarded_before = proxy_->stats().requests_forwarded;
  net_.send(attacker.id(), proxy_machine_->id(), bytes_of("garbage-bytes"));
  sim_.run_until(sim_.now() + 5.0);
  EXPECT_EQ(proxy_->stats().malformed_requests, 1u);
  EXPECT_EQ(proxy_->stats().requests_forwarded, forwarded_before);
  EXPECT_EQ(proxy_->probe_log().score(net_.id_of("attacker"), sim_.now()), 1u);
}

TEST_F(ProxyTest, EmbeddedProbeCrashesServerChildAndProxyObserves) {
  boot_and_start();
  ClientEndpoint attacker(net_, "attacker");
  Message msg;
  msg.type = MsgType::Request;
  msg.request_id = RequestId{"attacker", 1};
  msg.requester = "attacker";
  msg.payload = osl::encode_probe(999);  // wrong key (server key is 10)
  net_.send(attacker.id(), proxy_machine_->id(), msg.encode());
  sim_.run_until(sim_.now() + 10.0);

  // Every server child serving the forwarded copies crashed...
  for (auto& m : server_machines_) {
    EXPECT_EQ(m->child_crashes(), 1u);
  }
  // ...the PROXY observed it and attributed it to the attacker...
  EXPECT_GE(proxy_->stats().server_crashes_observed, 1u);
  EXPECT_GE(proxy_->probe_log().score(net_.id_of("attacker"), sim_.now()), 1u);
  // ...and the attacker got no response at all.
  EXPECT_TRUE(attacker.responses.empty());
}

TEST_F(ProxyTest, RepeatedProbesGetSourceBlacklisted) {
  boot_and_start();
  ClientEndpoint attacker(net_, "attacker");
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = RequestId{"attacker", i};
    msg.requester = "attacker";
    msg.payload = osl::encode_probe(500 + i);
    net_.send(attacker.id(), proxy_machine_->id(), msg.encode());
    sim_.run_until(sim_.now() + 10.0);
  }
  EXPECT_TRUE(proxy_->blacklisted("attacker"));
  // Further requests (even well-formed ones) are dropped.
  std::uint64_t forwarded = proxy_->stats().requests_forwarded;
  attacker.send_request({"attacker", 99}, "GET a", proxy_machine_->id());
  sim_.run_until(sim_.now() + 10.0);
  EXPECT_EQ(proxy_->stats().requests_forwarded, forwarded);
  EXPECT_GE(proxy_->stats().requests_from_blacklisted, 1u);
}

TEST_F(ProxyTest, LegitimateClientNotBlacklistedAlongsideAttacker) {
  boot_and_start();
  ClientEndpoint attacker(net_, "attacker");
  ClientEndpoint honest(net_, "honest");
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = RequestId{"attacker", i};
    msg.requester = "attacker";
    msg.payload = osl::encode_probe(600 + i);
    net_.send(attacker.id(), proxy_machine_->id(), msg.encode());
    sim_.run_until(sim_.now() + 5.0);
    honest.send_request({"honest", i}, "PUT k v", proxy_machine_->id());
    sim_.run_until(sim_.now() + 5.0);
  }
  EXPECT_TRUE(proxy_->blacklisted("attacker"));
  EXPECT_FALSE(proxy_->blacklisted("honest"));
  EXPECT_FALSE(honest.responses.empty());
}

TEST_F(ProxyTest, ReconnectsAfterServerReboot) {
  boot_and_start();
  server_machines_[0]->rerandomize(30);
  sim_.run_until(sim_.now() + 10.0);  // the reconnect delay passes
  ClientEndpoint client(net_, "client");
  client.send_request({"client", 1}, "PUT a 1", proxy_machine_->id());
  sim_.run_until(sim_.now() + 30.0);
  EXPECT_FALSE(client.responses.empty());
}

TEST_F(ProxyTest, UnsolicitedServerResponseIgnored) {
  boot_and_start();
  // A (compromised) server sends a response for a request the proxy never
  // forwarded; the proxy must not deliver it to anyone.
  Message fake;
  fake.type = MsgType::Response;
  fake.request_id = RequestId{"nobody", 1};
  fake.payload = bytes_of("bogus");
  net_.send(server_machines_[0]->id(), proxy_machine_->id(), fake.encode());
  sim_.run_until(sim_.now() + 5.0);
  EXPECT_EQ(proxy_->stats().responses_delivered, 0u);
}

TEST_F(ProxyTest, ForgedResponsesGetSourceBlacklisted) {
  boot_and_start();
  ClientEndpoint client(net_, "client");
  client.send_request({"client", 1}, "GET a", proxy_machine_->id());
  sim_.run_until(sim_.now() + 30.0);
  ASSERT_EQ(client.responses.size(), 1u);

  // A host that is no server answers the pending request with responses it
  // signed itself, as many times as the detection threshold (3).
  ClientEndpoint forger(net_, "forger");
  const crypto::SigningKey forger_key = registry_.enroll("forger");
  for (int i = 0; i < 3; ++i) {
    Message fake;
    fake.type = MsgType::Response;
    fake.request_id = RequestId{"client", 1};
    fake.requester = "proxy-0";
    fake.payload = bytes_of("bogus");
    replication::sign_message(fake, forger_key);
    net_.send(forger.id(), proxy_machine_->id(), fake.encode());
    sim_.run_until(sim_.now() + 5.0);
  }
  EXPECT_EQ(proxy_->stats().invalid_signatures, 3u);
  EXPECT_EQ(client.responses.size(), 1u);
  EXPECT_TRUE(proxy_->blacklisted("forger"));

  // Its next request is dropped, not forwarded.
  const std::uint64_t forwarded = proxy_->stats().requests_forwarded;
  forger.send_request({"forger", 1}, "GET a", proxy_machine_->id());
  sim_.run_until(sim_.now() + 10.0);
  EXPECT_EQ(proxy_->stats().requests_from_blacklisted, 1u);
  EXPECT_EQ(proxy_->stats().requests_forwarded, forwarded);
}

TEST_F(ProxyOverloadTest, QueuedResponsesVerifiedAtDispatch) {
  start(net::OverloadPolicy::DropTail, 0, 12);
  // One burst: every response waits in the queue, every third is forged.
  for (std::uint64_t seq = 1; seq <= 12; ++seq) respond(seq, seq % 3 == 0);
  sim_.run_until(sim_.now() + 30.0);
  EXPECT_EQ(machine_->overload().shed, 0u);
  EXPECT_EQ(proxy_->stats().invalid_signatures, 4u);
  EXPECT_EQ(proxy_->stats().degraded_responses, 0u);
  EXPECT_EQ(proxy_->stats().responses_delivered, 8u);
  EXPECT_EQ(client_.responses.size(), 8u);
}

TEST_F(ProxyOverloadTest, DegradedResponsesSkipVerification) {
  start(net::OverloadPolicy::DegradeUnsigned, 2, 4);
  // Four forged responses in one burst. Depth at admission: 0, 1, 2, 3 —
  // the first two are checked and rejected; the last two cross the
  // watermark and are trusted unchecked.
  for (std::uint64_t seq = 1; seq <= 4; ++seq) respond(seq, true);
  sim_.run_until(sim_.now() + 30.0);
  EXPECT_EQ(proxy_->stats().invalid_signatures, 2u);
  EXPECT_EQ(proxy_->stats().degraded_responses, 2u);
  EXPECT_EQ(proxy_->stats().responses_delivered, 2u);
}

}  // namespace
}  // namespace fortress::proxy
