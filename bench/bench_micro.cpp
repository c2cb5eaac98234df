// bench_micro — E12: google-benchmark microbenchmarks for the computational
// kernels: SHA-256, HMAC, message codec, Markov-chain solving, Monte-Carlo
// trial rates and the discrete-event simulator core.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>

#include "analysis/markov.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernel.hpp"
#include "model/lifetime_sim.hpp"
#include "montecarlo/engine.hpp"
#include "replication/message.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace fortress;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = bytes_of("principal-secret");
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(256)->Arg(4096);

void BM_MessageEncodeDecode(benchmark::State& state) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey key = registry.enroll("server-0");
  replication::Message msg;
  msg.type = replication::MsgType::Response;
  msg.request_id = {"client", 42};
  msg.payload = Bytes(256, 0x11);
  replication::sign_message(msg, key);
  for (auto _ : state) {
    Bytes wire = msg.encode();
    auto decoded = replication::MessageView::decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_MessageEncodeDecode);

void BM_SignVerify(benchmark::State& state) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey key = registry.enroll("server-0");
  replication::Message msg;
  msg.payload = Bytes(256, 0x22);
  Bytes wire;
  for (auto _ : state) {
    // Sign, put on the wire, verify the received view: the verifiers
    // take only a decoded MessageView.
    replication::sign_message(msg, key);
    msg.encode_into(wire);
    auto view = replication::MessageView::decode(wire);
    benchmark::DoNotOptimize(replication::verify_message(*view, registry));
  }
}
BENCHMARK(BM_SignVerify);

void BM_MarkovChainSolve(benchmark::State& state) {
  model::AttackParams p;
  p.alpha = 1e-3;
  p.kappa = 0.5;
  p.period = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::expected_lifetime_markov(model::SystemShape::s2(), p));
  }
}
BENCHMARK(BM_MarkovChainSolve)->Arg(1)->Arg(16)->Arg(128);

void BM_LifetimeTrialSo(benchmark::State& state) {
  model::AttackParams p;
  p.alpha = 1e-4;
  p.kappa = 0.5;
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::TrialKernel(model::SystemShape::s2(), p,
                           model::Obfuscation::StartupOnly,
                           model::Granularity::Step)
            .run(rng, 1ull << 40));
  }
}
BENCHMARK(BM_LifetimeTrialSo);

void BM_LifetimeTrialPoProbe(benchmark::State& state) {
  model::AttackParams p;
  p.alpha = 1e-3;
  p.kappa = 0.5;
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::TrialKernel(model::SystemShape::s2(), p,
                           model::Obfuscation::Proactive,
                           model::Granularity::Probe)
            .run(rng, 1ull << 40));
  }
}
BENCHMARK(BM_LifetimeTrialPoProbe);

void BM_McEstimateLifetime(benchmark::State& state) {
  // End-to-end Monte-Carlo engine throughput (trials/sec in the items/sec
  // counter): chunked dynamic scheduling + allocation-free trial kernel.
  model::AttackParams p;
  p.alpha = 1e-3;
  p.kappa = 0.5;
  montecarlo::McConfig cfg;
  cfg.trials = 50000;
  cfg.seed = 7;
  cfg.threads = static_cast<unsigned>(state.range(0));
  cfg.max_steps = 1ull << 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(montecarlo::estimate_lifetime(
        model::SystemShape::s2(), p, model::Obfuscation::Proactive,
        model::Granularity::Step, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.trials));
}
BENCHMARK(BM_McEstimateLifetime)->Arg(1)->Arg(4);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // A chain of 1000 self-scheduling events, the idiomatic way callbacks are
  // scheduled since the slab/EventFn rework: a plain callable moved into the
  // simulator, no std::function wrapper on the hot path.
  struct Chain {
    sim::Simulator* sim;
    int* count;
    void operator()() const {
      if (++*count < 1000) sim->schedule_after(1.0, Chain{sim, count});
    }
  };
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    sim.schedule_after(1.0, Chain{&sim, &count});
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_SimulatorEventThroughputStdFunction(benchmark::State& state) {
  // Legacy shape of the bench above: the chained handler is copied through a
  // std::function per event, as the pre-slab schedule_at(std::function)
  // signature forced. Kept to show what the EventFn conversion costs when a
  // caller still routes through std::function.
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 1000) sim.schedule_after(1.0, chain);
    };
    sim.schedule_after(1.0, chain);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SimulatorEventThroughputStdFunction);

void BM_SimulatorScheduleCancel(benchmark::State& state) {
  // Schedule + cancel churn: exercises the slab free list and the O(1)
  // generation-checked cancel with heap tombstone reclamation.
  sim::Simulator sim;
  for (auto _ : state) {
    sim::EventId ids[64];
    for (int i = 0; i < 64; ++i) {
      ids[i] = sim.schedule_after(1.0 + i, [] {});
    }
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(sim.cancel(ids[i]));
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SimulatorScheduleCancel);

void BM_RngGeometric(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.geometric(1e-6));
  }
}
BENCHMARK(BM_RngGeometric);

template <typename Fn>
double time_ns(int iters, Fn&& fn) {
  fn();  // warm caches before the timed loop
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() *
         1e9 / iters;
}

// BenchRecorder-schema kernel records, written next to the google-benchmark
// JSON: unlike that output (informational), these entries are diffed by the
// bench_diff target against bench/baseline.json. Each crypto record carries
// the numeric SHA-256 dispatch tier (0 = scalar, 2 = sha-ni) so a
// perf number is always explicable by the kernel that produced it.
//
// The two codec records time what decoding one protocol message costs at
// the two depths a handler can choose from, over a signed StateUpdate-sized
// record (every field populated — the shape replicas exchange):
//  * codec_header_peek — MessageView::peek: magic + fixed header only (the
//    cheapest route/drop decision);
//  * codec_view_decode — MessageView::decode: full structural validation
//    with every field borrowed from the wire (what every handler
//    dispatches on).
// Each is ns per batch of kCodecBatch decodes; items/sec counts messages.
bool write_crypto_records(const std::string& path) {
  bench::BenchRecorder rec;
  const double tier =
      static_cast<double>(static_cast<int>(crypto::kernel::active_tier()));
  const bench::BenchRecorder::Extras extras = {{"dispatch_tier", tier}};

  {
    Bytes data(1024, 0xab);
    double ns = time_ns(30000, [&] {
      crypto::Digest d = crypto::Sha256::hash(data);
      benchmark::DoNotOptimize(d);
    });
    rec.add("micro.sha256_1k", ns, 1e9 / ns * 1024.0, extras);
  }
  {
    crypto::HmacKey schedule(bytes_of("principal-secret"));
    Bytes data(256, 0x5c);
    double ns = time_ns(30000, [&] {
      crypto::Digest d = schedule.mac(data);
      benchmark::DoNotOptimize(d);
    });
    rec.add("micro.hmac_sign", ns, 1e9 / ns, extras);
  }
  {
    crypto::KeyRegistry registry(7);
    crypto::SigningKey key = registry.enroll("s1-server-0");
    replication::Message msg;
    msg.type = replication::MsgType::StateUpdate;
    msg.view = 3;
    msg.seq = 1234;
    msg.sender_index = 0;
    msg.request_id = {"client-17", 42};
    msg.requester = "s2-proxy-1";
    msg.payload = bytes_of("VALUE some-kv-response-body");
    msg.aux = Bytes(96, 0xa5);  // snapshot-ish blob
    replication::sign_message(msg, key);
    const Bytes wire = msg.encode();

    constexpr int kCodecBatch = 10000;
    // Sink the decoded bits so the optimizer cannot drop the decode.
    std::uint64_t sink = 0;
    double ns = time_ns(2000, [&] {
      for (int i = 0; i < kCodecBatch; ++i) {
        auto h = replication::MessageView::peek(wire);
        sink += static_cast<std::uint64_t>(h->type) + h->seq;
      }
    });
    rec.add("codec_header_peek", ns, 1e9 / ns * kCodecBatch);
    ns = time_ns(500, [&] {
      for (int i = 0; i < kCodecBatch; ++i) {
        auto v = replication::MessageView::decode(wire);
        sink += v->payload().size() + v->request_client().size();
      }
    });
    rec.add("codec_view_decode", ns, 1e9 / ns * kCodecBatch);
    benchmark::DoNotOptimize(sink);
  }
  return rec.write_json(path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // Everything google-benchmark did not consume is the BenchRecorder output
  // path for the gated crypto and codec records.
  const std::string out =
      argc > 1 ? argv[argc - 1] : "BENCH_micro_crypto.json";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_crypto_records(out) ? 0 : 1;
}
