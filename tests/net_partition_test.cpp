// Partition-window membership bitsets: link_blocked used to resolve both
// endpoints to address strings and scan each window's island by string
// comparison per message. The network now classifies each interned id into
// per-window bitsets (built lazily, since hosts intern at any time) and the
// per-message check is two bit tests. This test pins the refactor to the
// declarative semantics: across a many-window plan, hosts interned before
// AND after the first check, and times inside/outside/on window edges, the
// blocking decision must equal the string-matching reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace fortress::net {
namespace {

// The pre-bitset semantics, straight off the plan's vocabulary.
bool reference_blocked(const std::vector<PartitionWindow>& windows,
                       const Address& ax, const Address& ay, sim::Time t) {
  for (const PartitionWindow& w : windows) {
    if (!(t >= w.start && t < w.end)) continue;
    if (w.contains(ax) != w.contains(ay)) return true;
  }
  return false;
}

class NullHandler final : public Handler {
 public:
  void on_message(const Envelope&) override {}
};

std::vector<PartitionWindow> many_windows() {
  std::vector<PartitionWindow> windows;
  // 12 windows: overlapping times, nested/disjoint islands, an island
  // naming a host that is never interned, and an empty island.
  for (int w = 0; w < 10; ++w) {
    PartitionWindow win;
    win.start = 10.0 * w;
    win.end = win.start + 15.0;  // overlaps the next window
    for (int h = 0; h < 40; ++h) {
      if ((h + w) % 3 == 0) win.island.push_back("host-" + std::to_string(h));
    }
    if (w == 4) win.island.push_back("never-interned");
    windows.push_back(win);
  }
  windows.push_back({33.0, 34.0, {}});  // empty island blocks nothing
  windows.push_back({0.0, 200.0, {"late-0", "late-1", "host-0"}});
  return windows;
}

TEST(NetPartitionTest, BitsetDecisionsMatchStringReference) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.partitions = many_windows();
  cfg.latency = LatencySpec::fixed(0.0);
  Network net(sim, cfg);

  NullHandler handler;
  std::vector<HostId> ids;
  for (int h = 0; h < 40; ++h) {
    ids.push_back(net.attach("host-" + std::to_string(h), handler));
  }

  const std::vector<sim::Time> sample_times = {0.0,  5.0,  9.999, 10.0, 14.0,
                                               15.0, 33.5, 60.0,  95.0, 104.9,
                                               105.0, 150.0, 250.0};
  std::size_t checks = 0;
  auto check_all_pairs = [&](sim::Time t) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = 0; j < ids.size(); ++j) {
        const bool expected =
            reference_blocked(cfg.partitions, net.address_of(ids[i]),
                              net.address_of(ids[j]), t);
        ASSERT_EQ(net.partitioned(ids[i], ids[j]), expected)
            << "t=" << t << " i=" << i << " j=" << j;
        ++checks;
      }
    }
  };

  // Walk the schedule via simulator events so sim.now() is the decision
  // time the network sees; intern two LATE hosts mid-schedule to exercise
  // the lazy bitset extension.
  for (sim::Time t : sample_times) {
    sim.schedule_at(t, [&, t] {
      check_all_pairs(t);
      if (t == 15.0) {
        ids.push_back(net.attach("late-0", handler));
        ids.push_back(net.attach("late-1", handler));
        check_all_pairs(t);
      }
    });
  }
  sim.run();
  EXPECT_GT(checks, 20000u);
}

TEST(NetPartitionTest, ResetRebuildsBitsetsForNewWindows) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.partitions = {{0.0, 100.0, {"a"}}};
  cfg.latency = LatencySpec::fixed(0.0);
  Network net(sim, cfg);
  NullHandler handler;
  const HostId a = net.attach("a", handler);
  const HostId b = net.attach("b", handler);
  const HostId c = net.attach("c", handler);
  EXPECT_TRUE(net.partitioned(a, b));
  EXPECT_FALSE(net.partitioned(b, c));

  // Same window COUNT, different membership: stale bitsets would keep
  // blocking (a, b).
  NetworkConfig next;
  next.partitions = {{0.0, 100.0, {"b"}}};
  next.latency = LatencySpec::fixed(0.0);
  net.reset(next);
  net.attach(a, handler);
  net.attach(b, handler);
  net.attach(c, handler);
  EXPECT_TRUE(net.partitioned(a, b));
  EXPECT_TRUE(net.partitioned(b, c));
  EXPECT_FALSE(net.partitioned(a, c));

  // And dropping the windows entirely unblocks everything.
  net.reset({.latency = LatencySpec::fixed(0.0)});
  net.attach(a, handler);
  net.attach(b, handler);
  EXPECT_FALSE(net.partitioned(a, b));
}

}  // namespace
}  // namespace fortress::net
