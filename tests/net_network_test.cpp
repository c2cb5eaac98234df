#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.hpp"

namespace fortress::net {
namespace {

/// Records every callback it receives. Envelopes carry dense HostIds and a
/// payload view into a recycled buffer, so the recorder resolves ids back to
/// addresses and copies the payload out while the callback is live.
class RecordingHandler : public Handler {
 public:
  explicit RecordingHandler(Network& net) : net_(net) {}

  void on_message(const Envelope& env) override {
    messages.push_back({net_.address_of(env.from), net_.address_of(env.to),
                        Bytes(env.payload.begin(), env.payload.end()),
                        env.connection});
  }
  void on_connection_closed(ConnectionId id, HostId peer,
                            CloseReason reason) override {
    closed.push_back({id, net_.address_of(peer), reason});
  }
  void on_connection_opened(ConnectionId id, HostId peer) override {
    opened.push_back({id, net_.address_of(peer)});
  }

  struct Received {
    Address from;
    Address to;
    Bytes payload;
    std::optional<ConnectionId> connection;
  };
  struct Closed {
    ConnectionId id;
    Address peer;
    CloseReason reason;
  };
  std::vector<Received> messages;
  std::vector<Closed> closed;
  std::vector<std::pair<ConnectionId, Address>> opened;

 private:
  Network& net_;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() {
    ida_ = net_.attach("a", a_);
    idb_ = net_.attach("b", b_);
  }

  sim::Simulator sim_;
  Network net_{sim_, {.latency = LatencySpec::fixed(1.0)}};
  RecordingHandler a_{net_}, b_{net_};
  HostId ida_ = kInvalidHost, idb_ = kInvalidHost;
};

TEST_F(NetworkTest, DatagramDelivery) {
  net_.send(ida_, idb_, Bytes{1, 2, 3});
  sim_.run();
  ASSERT_EQ(b_.messages.size(), 1u);
  EXPECT_EQ(b_.messages[0].from, "a");
  EXPECT_EQ(b_.messages[0].to, "b");
  EXPECT_EQ(b_.messages[0].payload, (Bytes{1, 2, 3}));
  EXPECT_FALSE(b_.messages[0].connection.has_value());
}

TEST_F(NetworkTest, DeliveryTakesLatency) {
  net_.send(ida_, idb_, Bytes{9});
  sim_.run_until(0.5);
  EXPECT_TRUE(b_.messages.empty());
  sim_.run_until(1.0);
  EXPECT_EQ(b_.messages.size(), 1u);
}

TEST_F(NetworkTest, SendToUnknownAddressIsDropped) {
  net_.send(ida_, net_.intern("ghost"), Bytes{1});
  sim_.run();
  EXPECT_EQ(net_.delivered_count(), 0u);
}

TEST_F(NetworkTest, DetachDropsInFlightMessages) {
  net_.send(ida_, idb_, Bytes{1});
  net_.detach(idb_);
  sim_.run();
  EXPECT_TRUE(b_.messages.empty());
}

TEST_F(NetworkTest, ConnectNotifiesAcceptor) {
  auto conn = net_.connect(ida_, idb_);
  ASSERT_TRUE(conn.has_value());
  sim_.run();
  ASSERT_EQ(b_.opened.size(), 1u);
  EXPECT_EQ(b_.opened[0].first, *conn);
  EXPECT_EQ(b_.opened[0].second, "a");
}

TEST_F(NetworkTest, ConnectToUnknownRefused) {
  EXPECT_FALSE(net_.connect(ida_, net_.intern("nobody")).has_value());
}

TEST_F(NetworkTest, ConnectionMessagesFlowBothWays) {
  auto conn = net_.connect(ida_, idb_);
  ASSERT_TRUE(conn.has_value());
  sim_.run();
  EXPECT_TRUE(net_.send_on(*conn, ida_, Bytes{1}));
  EXPECT_TRUE(net_.send_on(*conn, idb_, Bytes{2}));
  sim_.run();
  ASSERT_EQ(b_.messages.size(), 1u);
  ASSERT_EQ(a_.messages.size(), 1u);
  EXPECT_EQ(b_.messages[0].connection, conn);
  EXPECT_EQ(a_.messages[0].connection, conn);
}

TEST_F(NetworkTest, SendOnByNonEndpointRejected) {
  RecordingHandler c{net_};
  const HostId idc = net_.attach("c", c);
  auto conn = net_.connect(ida_, idb_);
  ASSERT_TRUE(conn.has_value());
  sim_.run();
  EXPECT_FALSE(net_.send_on(*conn, idc, Bytes{1}));
}

TEST_F(NetworkTest, CloseNotifiesPeerWithPeerClosed) {
  auto conn = net_.connect(ida_, idb_);
  sim_.run();
  net_.close(*conn, ida_);
  sim_.run();
  ASSERT_EQ(b_.closed.size(), 1u);
  EXPECT_EQ(b_.closed[0].reason, CloseReason::PeerClosed);
  EXPECT_EQ(b_.closed[0].peer, "a");
  EXPECT_EQ(net_.open_connections(), 0u);
}

TEST_F(NetworkTest, AbortNotifiesPeerWithPeerCrashed) {
  auto conn = net_.connect(ida_, idb_);
  sim_.run();
  net_.abort(*conn, idb_);
  sim_.run();
  ASSERT_EQ(a_.closed.size(), 1u);
  EXPECT_EQ(a_.closed[0].reason, CloseReason::PeerCrashed);
}

TEST_F(NetworkTest, SendOnClosedConnectionFails) {
  auto conn = net_.connect(ida_, idb_);
  sim_.run();
  net_.close(*conn, ida_);
  EXPECT_FALSE(net_.send_on(*conn, ida_, Bytes{1}));
}

TEST_F(NetworkTest, MessageInFlightWhenConnectionDiesIsDropped) {
  auto conn = net_.connect(ida_, idb_);
  sim_.run();
  net_.send_on(*conn, ida_, Bytes{1});
  net_.close(*conn, ida_);  // closes before the 1-unit delivery latency
  sim_.run();
  EXPECT_TRUE(b_.messages.empty());
}

TEST_F(NetworkTest, DetachClosesAllConnectionsWithReason) {
  RecordingHandler c{net_};
  const HostId idc = net_.attach("c", c);
  auto c1 = net_.connect(ida_, idb_);
  auto c2 = net_.connect(idc, idb_);
  sim_.run();
  ASSERT_TRUE(c1 && c2);
  net_.detach(idb_, CloseReason::PeerCrashed);
  sim_.run();
  ASSERT_EQ(a_.closed.size(), 1u);
  ASSERT_EQ(c.closed.size(), 1u);
  EXPECT_EQ(a_.closed[0].reason, CloseReason::PeerCrashed);
  EXPECT_EQ(c.closed[0].reason, CloseReason::PeerCrashed);
}

TEST_F(NetworkTest, AttachTwiceViolatesContract) {
  RecordingHandler dup{net_};
  EXPECT_THROW(net_.attach("a", dup), ContractViolation);
}

TEST_F(NetworkTest, DetachUnknownIsNoop) {
  net_.detach(net_.id_of("ghost"));  // must not throw
}

TEST_F(NetworkTest, ReattachAfterDetach) {
  net_.detach(idb_);
  RecordingHandler b2{net_};
  net_.attach("b", b2);
  net_.send(ida_, idb_, Bytes{5});
  sim_.run();
  EXPECT_EQ(b2.messages.size(), 1u);
}

TEST(NetworkDropTest, DropProbabilityOneDropsEverything) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.drop_probability = 1.0;
  cfg.latency = LatencySpec::fixed(1.0);
  Network net(sim, cfg);
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  for (int i = 0; i < 50; ++i) net.send(ida, idb, Bytes{1});
  sim.run();
  EXPECT_TRUE(b.messages.empty());
}

TEST(NetworkDropTest, ConnectionsAreReliableDespiteDrops) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.drop_probability = 1.0;  // drops apply to datagrams only
  cfg.latency = LatencySpec::fixed(1.0);
  Network net(sim, cfg);
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  auto conn = net.connect(ida, idb);
  sim.run();
  ASSERT_TRUE(conn.has_value());
  net.send_on(*conn, ida, Bytes{1});
  sim.run();
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST_F(NetworkTest, DetachLocalDetachReasonReachesPeer) {
  // The reboot/teardown path (osl::Machine) detaches with an explicit
  // reason; the surviving peer must see exactly that reason so it can
  // distinguish an orderly restart from a crash side channel.
  auto conn = net_.connect(ida_, idb_);
  sim_.run();
  ASSERT_TRUE(conn.has_value());
  net_.detach(idb_, CloseReason::LocalDetach);
  sim_.run();
  ASSERT_EQ(a_.closed.size(), 1u);
  EXPECT_EQ(a_.closed[0].reason, CloseReason::LocalDetach);
  EXPECT_EQ(a_.closed[0].peer, "b");
  // The detached endpoint itself is never called back: it is gone.
  EXPECT_TRUE(b_.closed.empty());
}

TEST_F(NetworkTest, DetachDefaultReasonIsPeerClosed) {
  auto conn = net_.connect(ida_, idb_);
  sim_.run();
  ASSERT_TRUE(conn.has_value());
  net_.detach(idb_);
  sim_.run();
  ASSERT_EQ(a_.closed.size(), 1u);
  EXPECT_EQ(a_.closed[0].reason, CloseReason::PeerClosed);
}

// --- send_batch: the population plane's framed batch delivery -------------

Bytes make_frames(std::initializer_list<Bytes> frames) {
  Bytes out;
  for (const Bytes& f : frames) {
    append_u32_be(out, static_cast<std::uint32_t>(f.size()));
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

TEST_F(NetworkTest, SendBatchDeliversFramesInOrderAtOneTime) {
  const HostId a = net_.id_of("a");
  const HostId b = net_.id_of("b");
  net_.send_batch(a, b, make_frames({{1}, {2, 2}, {3, 3, 3}}), 3);
  // One scheduled delivery: nothing before the (single) latency sample...
  sim_.run_until(0.5);
  EXPECT_TRUE(b_.messages.empty());
  // ...then every frame, in frame order, as separate envelopes.
  sim_.run();
  ASSERT_EQ(b_.messages.size(), 3u);
  EXPECT_EQ(b_.messages[0].payload, (Bytes{1}));
  EXPECT_EQ(b_.messages[1].payload, (Bytes{2, 2}));
  EXPECT_EQ(b_.messages[2].payload, (Bytes{3, 3, 3}));
  EXPECT_EQ(b_.messages[0].from, "a");
  EXPECT_EQ(net_.delivered_count(), 3u);
}

TEST_F(NetworkTest, SendBatchZeroCountIsNoEvent) {
  net_.send_batch(net_.id_of("a"), net_.id_of("b"), Bytes{}, 0);
  EXPECT_TRUE(sim_.idle());
}

TEST_F(NetworkTest, SendBatchToDetachedHostIsDropped) {
  const HostId a = net_.id_of("a");
  const HostId b = net_.id_of("b");
  net_.send_batch(a, b, make_frames({{7}, {8}}), 2);
  net_.detach(idb_);
  sim_.run();
  EXPECT_TRUE(b_.messages.empty());
  EXPECT_EQ(net_.delivered_count(), 0u);
}

TEST(NetworkBatchDropTest, DropCoinsApplyPerFrame) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.drop_probability = 1.0;
  cfg.latency = LatencySpec::fixed(1.0);
  Network net(sim, cfg);
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  net.send_batch(ida, idb, make_frames({{1}, {2}, {3}}), 3);
  sim.run();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(net.delivered_count(), 0u);
}

TEST(NetworkDupTest, DuplicateProbabilityOneDeliversDatagramTwice) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;
  cfg.latency = LatencySpec::fixed(1.0);
  Network net(sim, cfg);
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  net.send(ida, idb, Bytes{7});
  sim.run();
  ASSERT_EQ(b.messages.size(), 2u);
  EXPECT_EQ(b.messages[0].payload, (Bytes{7}));
  EXPECT_EQ(b.messages[1].payload, (Bytes{7}));
}

TEST(NetworkDupTest, ConnectionsNeverDuplicate) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;  // duplication applies to datagrams only
  cfg.latency = LatencySpec::fixed(1.0);
  Network net(sim, cfg);
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  auto conn = net.connect(ida, idb);
  sim.run();
  ASSERT_TRUE(conn.has_value());
  net.send_on(*conn, ida, Bytes{1});
  sim.run();
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST(NetworkPartitionTest, ActiveWindowBlocksBothDirections) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.partitions.push_back(PartitionWindow{0.0, 10.0, {"a"}});
  cfg.latency = LatencySpec::fixed(1.0);
  Network net(sim, cfg);
  RecordingHandler a{net}, b{net}, c{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  const HostId idc = net.attach("c", c);
  net.send(ida, idb, Bytes{1});  // crosses the island boundary: lost
  net.send(idb, ida, Bytes{2});  // lost
  net.send(idb, idc, Bytes{3});  // both outside the island: delivered
  sim.run();
  EXPECT_TRUE(a.messages.empty());
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(c.messages.size(), 1u);
}

TEST(NetworkPartitionTest, TrafficFlowsAfterWindowEnds) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.partitions.push_back(PartitionWindow{0.0, 10.0, {"a"}});
  cfg.latency = LatencySpec::fixed(1.0);
  Network net(sim, cfg);
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  // Partition loss is evaluated at SEND time, so heal the window first.
  sim.schedule_at(10.0, [] {});
  sim.run();
  net.send(ida, idb, Bytes{1});
  sim.run();
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST(NetworkPartitionTest, ConnectionMessageSentDuringWindowIsLost) {
  // Connections are exempt from datagram drops but NOT from partitions: a
  // send_on during an active window is lost at send time (send_on still
  // returns true — the connection itself survives the window).
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.partitions.push_back(PartitionWindow{5.0, 10.0, {"a"}});
  cfg.latency = LatencySpec::fixed(1.0);
  Network net(sim, cfg);
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  auto conn = net.connect(ida, idb);  // established before the window
  sim.run();
  ASSERT_TRUE(conn.has_value());
  sim.schedule_at(6.0, [] {});
  sim.run();
  EXPECT_TRUE(net.send_on(*conn, ida, Bytes{1}));  // inside the window: lost
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_TRUE(net.send_on(*conn, ida, Bytes{2}));  // window over: delivered
  sim.run();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].payload, (Bytes{2}));
}

TEST(NetworkPartitionTest, ConnectRefusedAcrossActivePartition) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.partitions.push_back(PartitionWindow{0.0, 10.0, {"a"}});
  cfg.latency = LatencySpec::fixed(1.0);
  Network net(sim, cfg);
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  EXPECT_FALSE(net.connect(ida, idb).has_value());
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_TRUE(net.connect(ida, idb).has_value());
}

TEST(NetworkScenarioTest, PlanConstructedNetworkHonorsLatencySpec) {
  sim::Simulator sim;
  ScenarioPlan plan;
  plan.latency = LatencySpec::uniform(2.0, 4.0);
  Network net(sim, NetworkConfig::from_plan(plan, /*rng_seed=*/5));
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  for (int i = 0; i < 20; ++i) net.send(ida, idb, Bytes{1});
  sim.run_until(1.99);
  EXPECT_TRUE(b.messages.empty());
  sim.run_until(4.01);
  EXPECT_EQ(b.messages.size(), 20u);
}

TEST(NetworkLatencyTest, UniformSpecWithinBounds) {
  sim::Simulator sim;
  Network net(sim, {.latency = LatencySpec::uniform(2.0, 4.0)});
  RecordingHandler a{net}, b{net};
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  for (int i = 0; i < 20; ++i) net.send(ida, idb, Bytes{1});
  sim.run_until(1.99);
  EXPECT_TRUE(b.messages.empty());
  sim.run_until(4.01);
  EXPECT_EQ(b.messages.size(), 20u);
}

TEST(NetworkLatencyTest, InvalidLatencyRejectedAtConstructionAndReset) {
  sim::Simulator sim;
  EXPECT_THROW(Network(sim, {.latency = LatencySpec::uniform(2.0, 1.0)}),
               PlanValidationError);
  Network net(sim, {.latency = LatencySpec::fixed(1.0)});
  EXPECT_THROW(net.reset({.latency = LatencySpec::fixed(-1.0)}),
               PlanValidationError);
}

}  // namespace
}  // namespace fortress::net
