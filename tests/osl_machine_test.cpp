#include "osl/machine.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "net/network.hpp"
#include "osl/probe.hpp"
#include "sim/simulator.hpp"

namespace fortress::osl {
namespace {

class RecordingApp : public Application {
 public:
  void handle_message(const net::Envelope& env) override {
    payloads.push_back(Bytes(env.payload.begin(), env.payload.end()));
  }
  void handle_connection_closed(net::ConnectionId, net::HostId,
                                net::CloseReason reason) override {
    close_reasons.push_back(reason);
  }
  void handle_reboot() override { ++reboots; }

  std::vector<Bytes> payloads;
  std::vector<net::CloseReason> close_reasons;
  int reboots = 0;
};

class AttackerHandler : public net::Handler {
 public:
  void on_message(const net::Envelope& env) override {
    if (is_owned_ack(env.payload)) ++owned_acks;
  }
  void on_connection_closed(net::ConnectionId, net::HostId,
                            net::CloseReason reason) override {
    if (reason == net::CloseReason::PeerCrashed) ++crashes_observed;
    ++closures;
  }
  int owned_acks = 0;
  int crashes_observed = 0;
  int closures = 0;
};

class MachineTest : public ::testing::Test {
 protected:
  MachineTest()
      : net_(sim_, {.latency = net::LatencySpec::fixed(1.0)}),
        machine_(net_, MachineConfig{"target", 16}) {
    machine_.set_application(&app_);
    attacker_id_ = net_.attach("attacker", attacker_);
  }

  sim::Simulator sim_;
  net::Network net_;
  Machine machine_;
  RecordingApp app_;
  AttackerHandler attacker_;
  net::HostId attacker_id_ = net::kInvalidHost;
};

TEST(ProbeCodecTest, RoundTrip) {
  auto decoded = decode_probe(encode_probe(1234));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, 1234u);
}

TEST(ProbeCodecTest, NonProbeRejected) {
  EXPECT_FALSE(decode_probe(bytes_of("hello")).has_value());
  EXPECT_FALSE(decode_probe(Bytes{}).has_value());
  Bytes wrong_magic = encode_probe(5);
  wrong_magic[0] ^= 0xff;
  EXPECT_FALSE(decode_probe(wrong_magic).has_value());
}

TEST(ProbeCodecTest, OwnedAck) {
  Bytes ack = bytes_of("stale contents");
  encode_owned_ack_into(ack, 7);
  EXPECT_EQ(ack.size(), 12u);  // the buffer's old contents are replaced
  EXPECT_TRUE(is_owned_ack(ack));
  EXPECT_FALSE(is_owned_ack(encode_probe(7)));
  EXPECT_FALSE(decode_probe(ack).has_value());
}

TEST_F(MachineTest, BootAttachesToNetwork) {
  machine_.boot(3);
  EXPECT_TRUE(net_.attached(machine_.id()));
  EXPECT_EQ(machine_.key(), 3u);
  EXPECT_FALSE(machine_.compromised());
}

TEST_F(MachineTest, BootWithOutOfRangeKeyViolatesContract) {
  EXPECT_THROW(machine_.boot(16), ContractViolation);
}

TEST_F(MachineTest, DoubleBootViolatesContract) {
  machine_.boot(0);
  EXPECT_THROW(machine_.boot(1), ContractViolation);
}

TEST_F(MachineTest, WrongProbeOnConnectionCrashesChild) {
  machine_.boot(5);
  auto conn = net_.connect(attacker_id_, machine_.id());
  sim_.run();
  ASSERT_TRUE(conn.has_value());
  net_.send_on(*conn, attacker_id_, encode_probe(4));  // wrong key
  sim_.run();
  EXPECT_EQ(machine_.child_crashes(), 1u);
  EXPECT_FALSE(machine_.compromised());
  // The attacker observes the crash through the connection closure.
  EXPECT_EQ(attacker_.crashes_observed, 1);
  EXPECT_EQ(attacker_.owned_acks, 0);
}

TEST_F(MachineTest, CorrectProbeCompromises) {
  machine_.boot(5);
  bool fired = false;
  machine_.add_compromise_listener([&](Machine& m) {
    fired = true;
    EXPECT_EQ(&m, &machine_);
  });
  auto conn = net_.connect(attacker_id_, machine_.id());
  sim_.run();
  net_.send_on(*conn, attacker_id_, encode_probe(5));  // correct key
  sim_.run();
  EXPECT_TRUE(machine_.compromised());
  EXPECT_TRUE(fired);
  EXPECT_EQ(machine_.times_compromised(), 1u);
  EXPECT_EQ(attacker_.owned_acks, 1);
  EXPECT_EQ(attacker_.crashes_observed, 0);
}

TEST_F(MachineTest, DatagramProbeGivesNoObservableCrash) {
  machine_.boot(5);
  net_.send(attacker_id_, machine_.id(), encode_probe(4));
  sim_.run();
  EXPECT_EQ(machine_.child_crashes(), 1u);
  EXPECT_EQ(attacker_.closures, 0);
  EXPECT_EQ(attacker_.owned_acks, 0);
}

TEST_F(MachineTest, DatagramProbeWithCorrectKeyAcksBack) {
  machine_.boot(5);
  net_.send(attacker_id_, machine_.id(), encode_probe(5));
  sim_.run();
  EXPECT_TRUE(machine_.compromised());
  EXPECT_EQ(attacker_.owned_acks, 1);
}

TEST_F(MachineTest, ProbesNeverReachApplication) {
  machine_.boot(5);
  net_.send(attacker_id_, machine_.id(), encode_probe(4));
  net_.send(attacker_id_, machine_.id(), encode_probe(5));
  sim_.run();
  EXPECT_TRUE(app_.payloads.empty());
}

TEST_F(MachineTest, NonProbeTrafficReachesApplication) {
  machine_.boot(5);
  net_.send(attacker_id_, machine_.id(), bytes_of("legit request"));
  sim_.run();
  ASSERT_EQ(app_.payloads.size(), 1u);
  EXPECT_EQ(string_of(app_.payloads[0]), "legit request");
}

TEST_F(MachineTest, OtherConnectionsSurviveChildCrash) {
  // A probe crash kills only the child serving that connection (forking
  // daemon model): a second client's connection stays open.
  machine_.boot(5);
  AttackerHandler other;
  const net::HostId client2 = net_.attach("client2", other);
  auto c1 = net_.connect(attacker_id_, machine_.id());
  auto c2 = net_.connect(client2, machine_.id());
  sim_.run();
  net_.send_on(*c1, attacker_id_, encode_probe(4));
  sim_.run();
  EXPECT_EQ(attacker_.crashes_observed, 1);
  EXPECT_EQ(other.closures, 0);
  EXPECT_TRUE(net_.send_on(*c2, client2, bytes_of("still here")));
}

TEST_F(MachineTest, RerandomizeCleansesCompromise) {
  machine_.boot(5);
  net_.send(attacker_id_, machine_.id(), encode_probe(5));
  sim_.run();
  ASSERT_TRUE(machine_.compromised());
  machine_.rerandomize(9);
  EXPECT_FALSE(machine_.compromised());
  EXPECT_EQ(machine_.key(), 9u);
  EXPECT_EQ(app_.reboots, 1);
  // Old key no longer works.
  net_.send(attacker_id_, machine_.id(), encode_probe(5));
  sim_.run();
  EXPECT_FALSE(machine_.compromised());
}

TEST_F(MachineTest, RecoverKeepsKeySoAttackerRecompromises) {
  machine_.boot(5);
  net_.send(attacker_id_, machine_.id(), encode_probe(5));
  sim_.run();
  ASSERT_TRUE(machine_.compromised());
  machine_.recover();
  EXPECT_FALSE(machine_.compromised());
  EXPECT_EQ(machine_.key(), 5u);
  // The attacker still knows the key: instant re-compromise.
  net_.send(attacker_id_, machine_.id(), encode_probe(5));
  sim_.run();
  EXPECT_TRUE(machine_.compromised());
  EXPECT_EQ(machine_.times_compromised(), 2u);
}

TEST_F(MachineTest, RebootDropsConnections) {
  machine_.boot(5);
  auto conn = net_.connect(attacker_id_, machine_.id());
  sim_.run();
  ASSERT_TRUE(conn.has_value());
  machine_.rerandomize(1);
  sim_.run();
  EXPECT_EQ(attacker_.closures, 1);
  EXPECT_FALSE(net_.send_on(*conn, attacker_id_, Bytes{1}));
}

TEST_F(MachineTest, AttackerCapabilitiesRequireCompromise) {
  machine_.boot(5);
  const net::HostId anywhere = net_.intern("anywhere");
  EXPECT_THROW(machine_.attacker_connect(anywhere), ContractViolation);
  auto conn = net_.connect(attacker_id_, machine_.id());
  ASSERT_TRUE(conn.has_value());
  EXPECT_THROW(machine_.attacker_send_on(*conn, Bytes{}), ContractViolation);
}

TEST_F(MachineTest, CompromisedMachineActsWithItsIdentity) {
  AttackerHandler server;
  net_.attach("server", server);
  machine_.boot(5);
  net_.send(attacker_id_, machine_.id(), encode_probe(5));
  sim_.run();
  ASSERT_TRUE(machine_.compromised());
  auto conn = machine_.attacker_connect(net_.id_of("server"));
  ASSERT_TRUE(conn.has_value());
  sim_.run();
  EXPECT_TRUE(machine_.attacker_send_on(*conn, bytes_of("from proxy")));
}

TEST_F(MachineTest, ShutdownDetaches) {
  machine_.boot(5);
  machine_.shutdown();
  EXPECT_FALSE(net_.attached(machine_.id()));
}

}  // namespace
}  // namespace fortress::osl
