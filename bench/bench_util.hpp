// bench_util.hpp — BenchRecorder, the record writer the kernel benches share.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace fortress::bench
