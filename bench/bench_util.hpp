// bench_util.hpp — shared helpers for the reproduction benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/evaluator.hpp"
#include "exec/thread_pool.hpp"
#include "model/params.hpp"
#include "montecarlo/engine.hpp"

namespace fortress::bench {

/// Collects benchmark measurements and writes them as machine-readable JSON
/// (BENCH_results.json) so the perf trajectory can be tracked across PRs.
/// Schema: [{"name": str, "ns_per_op": num, "items_per_sec": num}, ...]
/// where items_per_sec is 0 when a bench has no natural item rate. A record
/// may carry further numeric keys (e.g. bench_micro's SHA-256
/// dispatch_tier); tools/bench_diff.py gates only ns_per_op and renders the
/// extras in its --report table.
class BenchRecorder {
 public:
  using Extras = std::vector<std::pair<std::string, double>>;

  void add(const std::string& name, double ns_per_op,
           double items_per_sec = 0.0, Extras extras = {}) {
    records_.push_back({name, ns_per_op, items_per_sec, std::move(extras)});
  }

  /// Time fn() called `iters` times and record mean ns/op. `items_per_op`
  /// scales the derived items/sec rate (e.g. trials per call).
  template <typename Fn>
  double time_and_add(const std::string& name, int iters, double items_per_op,
                      Fn&& fn) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    double ns_per_op = sec * 1e9 / iters;
    double items_per_sec =
        sec > 0.0 ? items_per_op * iters / sec : 0.0;
    add(name, ns_per_op, items_per_sec);
    return ns_per_op;
  }

  /// Write all records to `path`; returns false (and prints to stderr) on
  /// I/O failure.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "BenchRecorder: cannot open %s\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                   "\"items_per_sec\": %.3f",
                   r.name.c_str(), r.ns_per_op, r.items_per_sec);
      for (const auto& [key, value] : r.extras) {
        std::fprintf(f, ", \"%s\": %.6f", key.c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return true;
  }

 private:
  struct Record {
    std::string name;
    double ns_per_op;
    double items_per_sec;
    Extras extras;
  };
  std::vector<Record> records_;
};

/// Evaluate EL with the best available method, mirroring §5: analytic
/// (closed form / Markov) when it exists, Monte-Carlo otherwise. Returns the
/// EL and the method label.
struct ElResult {
  double el = 0.0;
  std::string method;
  bool censored = false;
};

inline model::SystemShape shape_of(model::SystemKind kind, int n_proxies = 3) {
  switch (kind) {
    case model::SystemKind::S0: return model::SystemShape::s0();
    case model::SystemKind::S1: return model::SystemShape::s1();
    case model::SystemKind::S2: return model::SystemShape::s2(n_proxies);
  }
  return model::SystemShape::s1();
}

inline ElResult evaluate_el(const model::SystemShape& shape,
                            const model::AttackParams& params,
                            model::Obfuscation obf,
                            std::uint64_t mc_trials = 200000,
                            std::uint64_t seed = 2026,
                            unsigned mc_threads = 4) {
  if (auto analytic = analysis::analytic_lifetime(shape, params, obf)) {
    return {analytic->expected_lifetime,
            analysis::to_string(analytic->method), false};
  }
  montecarlo::McConfig cfg;
  cfg.trials = mc_trials;
  cfg.seed = seed;
  cfg.max_steps = 1ull << 40;
  cfg.threads = mc_threads;
  auto mc = montecarlo::estimate_lifetime(shape, params, obf,
                                          model::Granularity::Step, cfg);
  return {mc.expected_lifetime(), "monte-carlo", mc.any_censored()};
}

/// Run `n` independent parameter-grid cells over the shared thread pool (one
/// cell per chunk, dynamically scheduled). Cells must write results into
/// their own index slot and the caller must print AFTER the sweep, in index
/// order — output is then identical to the sequential sweep for any thread
/// count. Cells execute on pool workers, so they must not re-enter the pool:
/// inside a grid, call evaluate_el with mc_threads = 1 (the sequential MC
/// path never touches the pool; MC results are bit-identical either way).
template <typename Fn>
inline void parallel_grid(std::size_t n, Fn&& cell) {
  exec::ThreadPool::shared().parallel_chunks(
      n, /*chunk_size=*/1, /*parallelism=*/0,
      [&](std::uint64_t idx, std::uint64_t, std::uint64_t) {
        cell(static_cast<std::size_t>(idx));
      });
}

/// Print a horizontal rule sized to `width`.
inline void rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline const char* pass(bool ok) { return ok ? "PASS" : "FAIL"; }

}  // namespace fortress::bench
