// request_alloc_test.cpp — the allocation budget of one client request in
// steady state, through each replication plane: a primary-backup write
// (S1), an SMR write (S0) and a write proxied to a PB tier (S2).
//
// This binary replaces the global operator new/delete with a counting
// version (plain malloc/free underneath), so it lives apart from
// fortress_tests. The counter is only read inside one measured scope; the
// rest of the binary pays one branch per allocation.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <functional>

#include "net/network.hpp"
#include "osl/machine.hpp"
#include "proxy/proxy_node.hpp"
#include "replication/pb_replica.hpp"
#include "replication/service.hpp"
#include "replication/smr_replica.hpp"
#include "sim/simulator.hpp"

namespace {

bool g_counting = false;
std::size_t g_news = 0;

void* counted_new(std::size_t size) {
  if (g_counting) ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fortress::replication {
namespace {

constexpr int kWarmup = 64;
constexpr int kMeasured = 256;
constexpr int kKeys = 16;

/// A client endpoint that only counts the responses it receives.
class CountingClient : public net::Handler {
 public:
  CountingClient(net::Network& net, const net::Address& addr)
      : net_(net), id_(net_.attach(addr, *this)) {}
  ~CountingClient() override { net_.detach(id_); }
  void on_message(const net::Envelope&) override { ++responses; }
  net::HostId id() const { return id_; }

  std::size_t responses = 0;

 private:
  net::Network& net_;
  net::HostId id_;
};

/// Every write's request, encoded once per destination before any
/// counting: only the replicas' (and proxy's) work is measured. Delivered
/// requests join the network's buffer pool, so each buffer is given the
/// room a warmed pool buffer has; a small one would grow the first time
/// it carried a bigger message, which measures the harness, not the
/// replicas.
std::vector<Bytes> encode_writes(int copies) {
  std::vector<Bytes> wires;
  for (int w = 0; w < kWarmup + kMeasured; ++w) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = {"client", static_cast<std::uint64_t>(w + 1)};
    msg.requester = "client";
    msg.payload = bytes_of("PUT k" + std::to_string(w % kKeys) + " v" +
                           std::to_string(w));
    for (int c = 0; c < copies; ++c) {
      Bytes& wire = wires.emplace_back();
      wire.reserve(1024);
      msg.encode_into(wire);
    }
  }
  return wires;
}

/// Run kWarmup writes, then kMeasured counted ones; operator new calls per
/// measured write.
double news_per_write(const std::function<void()>& write) {
  for (int w = 0; w < kWarmup; ++w) write();
  g_news = 0;
  g_counting = true;
  for (int w = 0; w < kMeasured; ++w) write();
  g_counting = false;
  return static_cast<double>(g_news) / kMeasured;
}

void report(const char* plane, double per_write, double budget) {
  ::testing::Test::RecordProperty("allocations_per_write",
                                  std::to_string(per_write));
  std::printf("%s: operator new calls per write: %.2f (budget %.0f)\n",
              plane, per_write, budget);
}

std::vector<net::Address> addresses(const char* prefix, int n) {
  std::vector<net::Address> addrs;
  for (int i = 0; i < n; ++i) addrs.push_back(prefix + std::to_string(i));
  return addrs;
}

// Global operator new calls per steady-state write through a PB trio: the
// primary executes and snapshots, broadcasts the StateUpdate, each backup
// restores it, and all three sign and send their responses. Replica state
// (records, responses, requester sets, execute/snapshot output) lives in
// storage each table reuses; what is left is that storage's amortized
// growth as records accumulate within the run.
constexpr double kPbBudgetPerWrite = 1.0;

TEST(PbWriteAllocTest, SteadyStateWriteStaysWithinBudget) {
  constexpr int kReplicas = 3;

  sim::Simulator sim;
  net::Network net(sim, {.latency = net::LatencySpec::fixed(0.5)});
  crypto::KeyRegistry registry(123);
  const std::vector<net::Address> addrs = addresses("server-", kReplicas);
  PbConfig cfg;
  cfg.replicas = addrs;
  std::vector<std::unique_ptr<osl::Machine>> machines;
  std::vector<std::unique_ptr<PbReplica>> replicas;
  for (int i = 0; i < kReplicas; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    machines.push_back(std::make_unique<osl::Machine>(
        net, osl::MachineConfig{addrs[idx], 1 << 10}));
    cfg.index = static_cast<std::uint32_t>(i);
    replicas.push_back(std::make_unique<PbReplica>(
        sim, net, registry, std::make_unique<KvService>(), cfg));
    machines.back()->set_application(replicas.back().get());
    machines.back()->boot(static_cast<osl::RandKey>(i));
    replicas.back()->start();
  }
  CountingClient client(net, "client");

  std::vector<Bytes> wires = encode_writes(kReplicas);
  std::size_t next = 0;
  const double per_write = news_per_write([&] {
    for (int r = 0; r < kReplicas; ++r) {
      net.send(client.id(), net.id_of(addrs[static_cast<std::size_t>(r)]),
               std::move(wires[next++]));
    }
    sim.run_until(sim.now() + 10.0);
  });

  // Every write executed once, reached both backups and was answered by all
  // three replicas.
  EXPECT_EQ(replicas[0]->executed_requests(),
            static_cast<std::uint64_t>(kWarmup + kMeasured));
  for (const auto& r : replicas) {
    EXPECT_EQ(r->applied_seq(), static_cast<std::uint64_t>(kWarmup + kMeasured));
  }
  EXPECT_EQ(client.responses,
            static_cast<std::size_t>(kReplicas * (kWarmup + kMeasured)));

  report("PB", per_write, kPbBudgetPerWrite);
  EXPECT_LE(per_write, kPbBudgetPerWrite);
}

// Global operator new calls per steady-state write through an SMR tier of
// 3f+1 = 4: the leader signs and broadcasts the PrePrepare, every replica
// signs and broadcasts its PrepareAck, executes on quorum and signs its
// response. Slots, acks, records and every signed message come from reused
// storage; what is left is the amortized growth of the tables and the
// ordering log, as above.
constexpr double kSmrBudgetPerWrite = 1.0;

TEST(SmrWriteAllocTest, SteadyStateWriteStaysWithinBudget) {
  constexpr int kReplicas = 4;

  sim::Simulator sim;
  net::Network net(sim, {.latency = net::LatencySpec::fixed(0.5)});
  crypto::KeyRegistry registry(321);
  const std::vector<net::Address> addrs = addresses("replica-", kReplicas);
  SmrConfig cfg;
  cfg.f = 1;
  cfg.replicas = addrs;
  std::vector<std::unique_ptr<osl::Machine>> machines;
  std::vector<std::unique_ptr<SmrReplica>> replicas;
  for (int i = 0; i < kReplicas; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    machines.push_back(std::make_unique<osl::Machine>(
        net, osl::MachineConfig{addrs[idx], 1 << 10}));
    cfg.index = static_cast<std::uint32_t>(i);
    replicas.push_back(std::make_unique<SmrReplica>(
        sim, net, registry, std::make_unique<KvService>(), cfg));
    machines.back()->set_application(replicas.back().get());
    machines.back()->boot(static_cast<osl::RandKey>(i));
    replicas.back()->start();
  }
  CountingClient client(net, "client");

  std::vector<Bytes> wires = encode_writes(kReplicas);
  std::size_t next = 0;
  const double per_write = news_per_write([&] {
    for (int r = 0; r < kReplicas; ++r) {
      net.send(client.id(), net.id_of(addrs[static_cast<std::size_t>(r)]),
               std::move(wires[next++]));
    }
    sim.run_until(sim.now() + 10.0);
  });

  // Every replica executed every write and answered it.
  for (const auto& r : replicas) {
    EXPECT_EQ(r->executed_seq(), static_cast<std::uint64_t>(kWarmup + kMeasured));
  }
  EXPECT_EQ(client.responses,
            static_cast<std::size_t>(kReplicas * (kWarmup + kMeasured)));

  report("SMR", per_write, kSmrBudgetPerWrite);
  EXPECT_LE(per_write, kSmrBudgetPerWrite);
}

// Global operator new calls per steady-state request a client sends to one
// proxy in front of a PB trio (S2): the proxy forwards it to every server,
// the trio executes, replicates and answers the proxy three times, and the
// proxy verifies the first response, over-signs it and delivers it. The
// proxy's pending records and over-signature come from reused storage;
// what is left is amortized table growth, as above.
constexpr double kProxiedBudgetPerWrite = 1.0;

TEST(ProxiedWriteAllocTest, SteadyStateRequestStaysWithinBudget) {
  constexpr int kServers = 3;

  sim::Simulator sim;
  net::Network net(sim, {.latency = net::LatencySpec::fixed(0.5)});
  crypto::KeyRegistry registry(77);
  const std::vector<net::Address> addrs = addresses("server-", kServers);
  PbConfig cfg;
  cfg.replicas = addrs;
  std::vector<std::unique_ptr<osl::Machine>> machines;
  std::vector<std::unique_ptr<PbReplica>> replicas;
  for (int i = 0; i < kServers; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    machines.push_back(std::make_unique<osl::Machine>(
        net, osl::MachineConfig{addrs[idx], 1 << 10}));
    cfg.index = static_cast<std::uint32_t>(i);
    replicas.push_back(std::make_unique<PbReplica>(
        sim, net, registry, std::make_unique<KvService>(), cfg));
    machines.back()->set_application(replicas.back().get());
    machines.back()->boot(10);
    replicas.back()->start();
  }
  proxy::ProxyConfig pcfg;
  pcfg.address = "proxy-0";
  pcfg.servers = addrs;
  osl::MachineConfig mc{"proxy-0", 1 << 10};
  mc.processes_request_payloads = false;
  osl::Machine proxy_machine(net, mc);
  proxy::ProxyNode proxy(sim, net, registry, pcfg);
  proxy_machine.set_application(&proxy);
  proxy_machine.boot(20);
  proxy.start();
  sim.run_until(5.0);  // connections established
  CountingClient client(net, "client");

  std::vector<Bytes> wires = encode_writes(1);
  std::size_t next = 0;
  const double per_write = news_per_write([&] {
    net.send(client.id(), proxy_machine.id(), std::move(wires[next++]));
    sim.run_until(sim.now() + 10.0);
  });

  // Every request executed once and came back over-signed, once.
  EXPECT_EQ(replicas[0]->executed_requests(),
            static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(proxy.stats().responses_delivered,
            static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(proxy.stats().invalid_signatures, 0u);
  EXPECT_EQ(client.responses, static_cast<std::size_t>(kWarmup + kMeasured));

  report("S2 proxied", per_write, kProxiedBudgetPerWrite);
  EXPECT_LE(per_write, kProxiedBudgetPerWrite);
}

}  // namespace
}  // namespace fortress::replication
