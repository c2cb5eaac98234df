// pb_write_alloc_test.cpp — the allocation budget of one primary-backup
// write in steady state.
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

#include "net/network.hpp"
#include "osl/machine.hpp"
#include "replication/pb_replica.hpp"
#include "replication/service.hpp"
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

// Global operator new calls per steady-state write through a PB trio:
// the primary executes and snapshots, broadcasts the StateUpdate, each
// backup restores it, and all three sign and send their responses. What
// is left is per-request state that outlives the write: the response body
// the service returns, its copy in each backup's reply cache, each
// replica's record of who asked, and the primary's snapshot buffer.
constexpr double kBudgetPerWrite = 12.0;

TEST(PbWriteAllocTest, SteadyStateWriteStaysWithinBudget) {
  constexpr int kReplicas = 3;
  constexpr int kWarmup = 64;
  constexpr int kMeasured = 256;
  constexpr int kKeys = 16;

  sim::Simulator sim;
  net::Network net(sim, {.latency = net::LatencySpec::fixed(0.5)});
  crypto::KeyRegistry registry(123);
  std::vector<net::Address> addrs;
  for (int i = 0; i < kReplicas; ++i) {
    addrs.push_back("server-" + std::to_string(i));
  }
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

  // Every request is encoded before the measured scope: only the replicas'
  // work is counted.
  std::vector<Bytes> wires;
  for (int w = 0; w < kWarmup + kMeasured; ++w) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = {"client", static_cast<std::uint64_t>(w + 1)};
    msg.requester = "client";
    msg.payload = bytes_of("PUT k" + std::to_string(w % kKeys) + " v" +
                           std::to_string(w));
    for (int r = 0; r < kReplicas; ++r) wires.push_back(msg.encode());
  }

  std::size_t next = 0;
  auto write = [&] {
    for (int r = 0; r < kReplicas; ++r) {
      net.send(client.id(), net.id_of(addrs[static_cast<std::size_t>(r)]),
               std::move(wires[next++]));
    }
    sim.run_until(sim.now() + 10.0);
  };
  for (int w = 0; w < kWarmup; ++w) write();
  const std::size_t warm_responses = client.responses;

  g_news = 0;
  g_counting = true;
  for (int w = 0; w < kMeasured; ++w) write();
  g_counting = false;
  const double per_write = static_cast<double>(g_news) / kMeasured;

  // Every write executed once, reached both backups and was answered by all
  // three replicas.
  EXPECT_EQ(replicas[0]->executed_requests(),
            static_cast<std::uint64_t>(kWarmup + kMeasured));
  for (const auto& r : replicas) {
    EXPECT_EQ(r->applied_seq(), static_cast<std::uint64_t>(kWarmup + kMeasured));
  }
  EXPECT_EQ(client.responses - warm_responses,
            static_cast<std::size_t>(kReplicas * kMeasured));

  RecordProperty("allocations_per_write", std::to_string(per_write));
  std::printf("operator new calls per write: %.2f (budget %.0f)\n", per_write,
              kBudgetPerWrite);
  EXPECT_LE(per_write, kBudgetPerWrite);
}

}  // namespace
}  // namespace fortress::replication
