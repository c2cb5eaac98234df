// Tests for the dense-id message plane: interner determinism, flat-table
// attachment, connection-slot reuse, and payload-buffer pooling.
#include "net/interner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace fortress::net {
namespace {

class NullHandler : public Handler {
 public:
  void on_message(const Envelope&) override { ++messages; }
  int messages = 0;
};

TEST(AddressInternerTest, IdsAssignedInRegistrationOrder) {
  AddressInterner interner;
  EXPECT_EQ(interner.intern("alpha"), 0u);
  EXPECT_EQ(interner.intern("beta"), 1u);
  EXPECT_EQ(interner.intern("gamma"), 2u);
  // Idempotent: re-interning returns the original id.
  EXPECT_EQ(interner.intern("alpha"), 0u);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.name(1), "beta");
  EXPECT_EQ(interner.find("gamma"), 2u);
  EXPECT_EQ(interner.find("never-seen"), kInvalidHost);
}

TEST(AddressInternerTest, NameReferencesStayStableAcrossGrowth) {
  AddressInterner interner;
  interner.intern("first");
  const Address& first = interner.name(0);
  for (int i = 0; i < 1000; ++i) {
    interner.intern("host-" + std::to_string(i));
  }
  EXPECT_EQ(first, "first");  // deque storage: no reallocation moved it
  EXPECT_EQ(&first, &interner.name(0));
}

TEST(NetworkInternerTest, AttachOrderAssignsDenseIds) {
  sim::Simulator sim;
  Network net(sim, {.latency = LatencySpec::fixed(1.0)});
  NullHandler a, b, c;
  EXPECT_EQ(net.attach("a", a), 0u);
  EXPECT_EQ(net.attach("b", b), 1u);
  EXPECT_EQ(net.attach("c", c), 2u);
  EXPECT_EQ(net.address_of(1), "b");
}

TEST(NetworkInternerTest, IdsStableAcrossReset) {
  // The arena-reuse contract: a Network::reset forgets attachments but NOT
  // the interner, so a rebuilt deployment that re-registers the same
  // addresses in the same order sees the same ids — and a deployment
  // rebuilt in a DIFFERENT order still resolves existing names to their
  // original ids.
  sim::Simulator sim;
  Network net(sim, {.latency = LatencySpec::fixed(1.0)});
  NullHandler a, b;
  const HostId ida = net.attach("a", a);
  const HostId idb = net.attach("b", b);
  net.reset({.latency = LatencySpec::fixed(1.0)});
  EXPECT_FALSE(net.attached(ida));
  EXPECT_EQ(net.id_of("a"), ida);
  EXPECT_EQ(net.id_of("b"), idb);
  // Re-attach in swapped order: interned ids do not change.
  EXPECT_EQ(net.attach("b", b), idb);
  EXPECT_EQ(net.attach("a", a), ida);
}

TEST(NetworkInternerTest, DetachFreesTheSlotForReattach) {
  sim::Simulator sim;
  Network net(sim, {.latency = LatencySpec::fixed(1.0)});
  NullHandler a, a2;
  const HostId id = net.attach("a", a);
  net.detach(id);
  EXPECT_FALSE(net.attached(id));
  // Same address, same slot, new handler.
  EXPECT_EQ(net.attach("a", a2), id);
  net.send(id, id, Bytes{1});
  sim.run();
  EXPECT_EQ(a2.messages, 1);
  EXPECT_EQ(a.messages, 0);
}

TEST(NetworkConnSlotTest, SlotsAreReusedAfterTeardown) {
  sim::Simulator sim;
  Network net(sim, {.latency = LatencySpec::fixed(1.0)});
  NullHandler a, b;
  const HostId ha = net.attach("a", a);
  const HostId hb = net.attach("b", b);

  auto c1 = net.connect(ha, hb);
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(net.open_connections(), 1u);
  net.close(*c1, ha);
  EXPECT_EQ(net.open_connections(), 0u);

  // The freed slot is reused; the generation bump makes the new id distinct
  // so the stale handle stays dead (no ABA).
  auto c2 = net.connect(ha, hb);
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(net.open_connections(), 1u);
  EXPECT_NE(*c2, *c1);
  EXPECT_FALSE(net.send_on(*c1, ha, Bytes{1}));  // stale id: rejected
  EXPECT_TRUE(net.send_on(*c2, ha, Bytes{2}));
  sim.run();
  EXPECT_EQ(b.messages, 1);

  // Churn: repeated connect/close cycles do not grow the slot table
  // unboundedly (the free list recycles; open count stays exact).
  for (int i = 0; i < 100; ++i) {
    auto c = net.connect(ha, hb);
    ASSERT_TRUE(c.has_value());
    net.close(*c, ha);
  }
  EXPECT_EQ(net.open_connections(), 1u);  // only c2 remains
}

TEST(NetworkConnSlotTest, InFlightMessageDiesWithSlotReuse) {
  // A message in flight on a torn-down connection must NOT be delivered on
  // the connection that reused its slot.
  sim::Simulator sim;
  Network net(sim, {.latency = LatencySpec::fixed(1.0)});
  NullHandler a, b;
  const HostId ha = net.attach("a", a);
  const HostId hb = net.attach("b", b);
  auto c1 = net.connect(ha, hb);
  sim.run();
  net.send_on(*c1, ha, Bytes{1});  // in flight for 1 time unit
  net.close(*c1, ha);              // torn down before delivery
  auto c2 = net.connect(ha, hb);   // reuses the slot
  ASSERT_TRUE(c2.has_value());
  sim.run();
  EXPECT_EQ(b.messages, 0);
}

TEST(NetworkPoolTest, PayloadBuffersAreRecycled) {
  sim::Simulator sim;
  Network net(sim, {.latency = LatencySpec::fixed(0.0)});
  NullHandler a, b;
  const HostId ha = net.attach("a", a);
  const HostId hb = net.attach("b", b);

  // Prime: one send puts a buffer into the pool after delivery.
  net.send(ha, hb, Bytes(64, 0xAA));
  sim.run();

  // The recycled buffer comes back with its capacity intact.
  Bytes buf = net.acquire_buffer();
  EXPECT_TRUE(buf.empty());
  EXPECT_GE(buf.capacity(), 64u);
  const std::uint8_t* data = buf.data();
  buf.assign(32, 0xBB);
  EXPECT_EQ(buf.data(), data);  // no reallocation at steady-state sizes
  net.send(ha, hb, std::move(buf));
  sim.run();
  EXPECT_EQ(b.messages, 2);
}

}  // namespace
}  // namespace fortress::net
