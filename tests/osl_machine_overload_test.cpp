// Unit tests of the bounded service queue on osl::Machine: admission,
// policy behaviour at a full queue, degraded marking, control-plane bypass,
// probe absorption ahead of the queue, and reboot semantics.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/network.hpp"
#include "osl/machine.hpp"
#include "osl/probe.hpp"
#include "replication/message.hpp"
#include "sim/simulator.hpp"

namespace fortress::osl {
namespace {

Bytes request_wire(const std::string& body, std::uint64_t seq) {
  replication::Message m;
  m.type = replication::MsgType::Request;
  m.request_id = replication::RequestId{"c", seq};
  m.requester = "c";
  m.payload = bytes_of(body);
  return m.encode();
}

Bytes heartbeat_wire() {
  replication::Message m;
  m.type = replication::MsgType::Heartbeat;
  return m.encode();
}

/// Records each dispatch's arrival time, payload and degraded flag.
class ServiceApp : public Application {
 public:
  explicit ServiceApp(sim::Simulator& sim) : sim_(sim) {}

  void handle_message(const net::Envelope& env) override {
    payloads.push_back(Bytes(env.payload.begin(), env.payload.end()));
    times.push_back(sim_.now());
    degraded_flags.push_back(env.degraded);
  }
  void handle_reboot() override { ++reboots; }

  std::vector<Bytes> payloads;
  std::vector<sim::Time> times;
  std::vector<bool> degraded_flags;
  int reboots = 0;

 private:
  sim::Simulator& sim_;
};

class NullHandler : public net::Handler {
 public:
  void on_message(const net::Envelope&) override {}
};

class MachineOverloadTest : public ::testing::Test {
 protected:
  MachineOverloadTest()
      : net_(sim_, std::make_unique<net::FixedLatency>(1.0)),
        machine_(net_, MachineConfig{"target", 16}),
        app_(sim_) {
    machine_.set_application(&app_);
    machine_.boot(5);
    net_.attach("sender", sender_);
  }

  net::ServiceModel model(net::OverloadPolicy policy,
                          std::uint32_t capacity) const {
    net::ServiceModel m;
    m.enabled = true;
    m.request_service = net::LatencySpec::fixed(1.0);
    m.response_service = net::LatencySpec::fixed(1.0);
    m.other_service = net::LatencySpec::fixed(1.0);
    m.queue_capacity = capacity;
    m.policy = policy;
    return m;
  }

  void send_requests(int n) {
    for (int i = 0; i < n; ++i) {
      net_.send("sender", "target",
                request_wire("GET k" + std::to_string(i),
                             static_cast<std::uint64_t>(i) + 1));
    }
  }

  sim::Simulator sim_;
  net::Network net_;
  Machine machine_;
  ServiceApp app_;
  NullHandler sender_;
};

TEST_F(MachineOverloadTest, DisabledModelDispatchesSynchronously) {
  send_requests(3);
  sim_.run_until(1.0);  // delivery instant; no service delay at all
  EXPECT_EQ(app_.payloads.size(), 3u);
  EXPECT_EQ(machine_.overload().enqueued, 0u);
  EXPECT_EQ(machine_.overload().served, 0u);
  EXPECT_EQ(machine_.service_depth(), 0u);
}

TEST_F(MachineOverloadTest, QueueSerializesDispatches) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  send_requests(3);  // all delivered at t = 1
  sim_.run_until(10.0);
  ASSERT_EQ(app_.times.size(), 3u);
  // One unit of service each, back to back: dispatches at 2, 3, 4.
  EXPECT_DOUBLE_EQ(app_.times[0], 2.0);
  EXPECT_DOUBLE_EQ(app_.times[1], 3.0);
  EXPECT_DOUBLE_EQ(app_.times[2], 4.0);
  EXPECT_EQ(machine_.overload().enqueued, 3u);
  EXPECT_EQ(machine_.overload().served, 3u);
  EXPECT_EQ(machine_.overload().max_depth, 3u);
  EXPECT_EQ(machine_.service_depth(), 0u);
}

TEST_F(MachineOverloadTest, DropTailShedsArrivalsAtFullQueue) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 2), 1);
  send_requests(5);  // 1 enters service, 2 wait, 2 shed
  sim_.run_until(20.0);
  EXPECT_EQ(app_.payloads.size(), 3u);
  EXPECT_EQ(machine_.overload().shed, 2u);
  EXPECT_EQ(machine_.overload().served, 3u);
  // FIFO: the three OLDEST arrivals survive.
  EXPECT_EQ(app_.payloads[0], request_wire("GET k0", 1));
  EXPECT_EQ(app_.payloads[1], request_wire("GET k1", 2));
  EXPECT_EQ(app_.payloads[2], request_wire("GET k2", 3));
}

TEST_F(MachineOverloadTest, ShedNewestEvictsYoungestQueuedEntry) {
  machine_.configure_service(model(net::OverloadPolicy::ShedNewest, 2), 1);
  send_requests(5);
  sim_.run_until(20.0);
  // 1 in service; 2,3 queued; 4 evicts 3; 5 evicts 4 => served 1, 2, 5.
  ASSERT_EQ(app_.payloads.size(), 3u);
  EXPECT_EQ(machine_.overload().shed, 2u);
  EXPECT_EQ(app_.payloads[0], request_wire("GET k0", 1));
  EXPECT_EQ(app_.payloads[1], request_wire("GET k1", 2));
  EXPECT_EQ(app_.payloads[2], request_wire("GET k4", 5));
}

TEST_F(MachineOverloadTest, BackpressureParksAndRedelivers) {
  net::ServiceModel m = model(net::OverloadPolicy::Backpressure, 1);
  m.pushback_delay = 5.0;
  machine_.configure_service(m, 1);
  send_requests(3);  // 1 in service, 2 waits, 3 parked
  sim_.run_until(30.0);
  EXPECT_EQ(app_.payloads.size(), 3u);  // nothing lost
  EXPECT_EQ(machine_.overload().backpressured, 1u);
  EXPECT_EQ(machine_.overload().shed, 0u);
  // The parked arrival re-offers at t = 6 (delivery 1 + pushback 5), after
  // both earlier requests finished (t = 2, 3), and serves at t = 7.
  EXPECT_DOUBLE_EQ(app_.times[2], 7.0);
}

TEST_F(MachineOverloadTest, DegradeUnsignedMarksDispatchesAboveWatermark) {
  net::ServiceModel m = model(net::OverloadPolicy::DegradeUnsigned, 8);
  m.degrade_watermark = 2;
  m.verify_cost = 0.5;
  machine_.configure_service(m, 1);
  send_requests(4);
  sim_.run_until(30.0);
  ASSERT_EQ(app_.degraded_flags.size(), 4u);
  // Depth at admission: 0, 1, 2, 3 — the last two cross the watermark.
  EXPECT_FALSE(app_.degraded_flags[0]);
  EXPECT_FALSE(app_.degraded_flags[1]);
  EXPECT_TRUE(app_.degraded_flags[2]);
  EXPECT_TRUE(app_.degraded_flags[3]);
  EXPECT_EQ(machine_.overload().degraded, 2u);
  // Degraded dispatches skip verify_cost: 1.5 + 1.5 + 1.0 + 1.0.
  EXPECT_DOUBLE_EQ(app_.times[0], 2.5);
  EXPECT_DOUBLE_EQ(app_.times[1], 4.0);
  EXPECT_DOUBLE_EQ(app_.times[2], 5.0);
  EXPECT_DOUBLE_EQ(app_.times[3], 6.0);
}

TEST_F(MachineOverloadTest, ControlPlaneBypassesQueueByDefault) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  send_requests(2);
  net_.send("sender", "target", heartbeat_wire());
  sim_.run_until(1.0);  // delivery instant
  // The heartbeat was dispatched synchronously at delivery; both requests
  // are still queued/in service.
  ASSERT_EQ(app_.payloads.size(), 1u);
  EXPECT_EQ(app_.payloads[0], heartbeat_wire());
  sim_.run_until(10.0);
  EXPECT_EQ(app_.payloads.size(), 3u);
}

TEST_F(MachineOverloadTest, ControlPlaneQueuesWhenConfigured) {
  net::ServiceModel m = model(net::OverloadPolicy::DropTail, 8);
  m.queue_control = true;
  machine_.configure_service(m, 1);
  net_.send("sender", "target", heartbeat_wire());
  sim_.run_until(1.0);
  EXPECT_EQ(app_.payloads.size(), 0u);  // queued, not yet served
  sim_.run_until(10.0);
  EXPECT_EQ(app_.payloads.size(), 1u);
  EXPECT_EQ(machine_.overload().enqueued, 1u);
}

TEST_F(MachineOverloadTest, ProbesAbsorbedBeforeQueue) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  net_.send("sender", "target", encode_probe(4));  // wrong key: child crash
  sim_.run_until(5.0);
  EXPECT_EQ(machine_.child_crashes(), 1u);
  EXPECT_EQ(machine_.overload().enqueued, 0u);
  EXPECT_TRUE(app_.payloads.empty());
}

TEST_F(MachineOverloadTest, RebootDropsQueuedWork) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  send_requests(4);
  sim_.schedule_at(1.5, [this] { machine_.recover(); });
  sim_.run_until(30.0);
  // At t = 1.5 one request is in service (finishes at 2) and three wait;
  // all four die with the reboot.
  EXPECT_EQ(app_.payloads.size(), 0u);
  EXPECT_EQ(machine_.overload().dropped_on_reboot, 4u);
  EXPECT_EQ(machine_.service_depth(), 0u);
  // The machine still serves fresh work after the reboot.
  send_requests(1);
  sim_.run_until(60.0);
  EXPECT_EQ(app_.payloads.size(), 1u);
  EXPECT_EQ(machine_.overload().served, 1u);
}

TEST_F(MachineOverloadTest, RebootInvalidatesParkedBackpressureWork) {
  net::ServiceModel m = model(net::OverloadPolicy::Backpressure, 1);
  m.pushback_delay = 5.0;
  machine_.configure_service(m, 1);
  send_requests(3);  // third is parked until t = 6
  sim_.schedule_at(4.0, [this] { machine_.recover(); });
  sim_.run_until(30.0);
  // Served before the reboot: requests 1 (t=2) and 2 (t=3). The parked
  // third belongs to the dead incarnation and is dropped at its re-offer.
  EXPECT_EQ(app_.payloads.size(), 2u);
  EXPECT_EQ(machine_.overload().backpressured, 1u);
  EXPECT_EQ(machine_.overload().dropped_on_reboot, 1u);
}

TEST_F(MachineOverloadTest, ResetClearsServiceState) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  send_requests(3);
  sim_.run_until(2.5);  // one served, two pending
  machine_.reset(16);
  EXPECT_EQ(machine_.service_depth(), 0u);
  EXPECT_EQ(machine_.overload().enqueued, 0u);
  EXPECT_EQ(machine_.overload().served, 0u);
}

}  // namespace
}  // namespace fortress::osl
