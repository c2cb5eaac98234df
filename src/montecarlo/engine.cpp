#include "montecarlo/engine.hpp"

#include <vector>

#include "common/check.hpp"
#include "exec/thread_pool.hpp"

namespace fortress::montecarlo {

double McResult::route_fraction(model::CompromiseRoute route) const {
  if (route == model::CompromiseRoute::None) return 0.0;
  std::uint64_t total = route_counts.compromised_total();
  if (total == 0) return 0.0;
  return static_cast<double>(route_counts[route]) /
         static_cast<double>(total);
}

namespace {

// Trials per scheduling chunk. Small enough that heavy-tailed trial lengths
// balance across workers (a censored trial stalls at most one chunk), large
// enough that the per-chunk accumulator merge is noise. The DETERMINISM
// contract lives here: the chunk grid depends only on `trials`, never on the
// thread count, and chunk partials are merged in index order below.
constexpr std::uint64_t kTrialChunk = 1024;

// Per-chunk partial reduction; one slot per chunk, written by whichever
// worker claims the chunk's ticket.
struct ChunkAccum {
  RunningStats stats;
  std::uint64_t censored = 0;
  RouteCounts routes;
};

}  // namespace

McResult estimate_lifetime(const model::SystemShape& shape,
                           const model::AttackParams& params,
                           model::Obfuscation obf, model::Granularity gran,
                           const McConfig& config) {
  FORTRESS_EXPECTS(config.trials >= 2);
  FORTRESS_EXPECTS(config.threads >= 1);
  // Validates (shape, params) and precomputes all per-run constants once:
  // the per-trial loop below is allocation-free.
  const model::TrialKernel kernel(shape, params, obf, gran);

  unsigned threads = config.threads;
  if (threads > config.trials) {
    threads = static_cast<unsigned>(config.trials);
  }

  const std::uint64_t n_chunks =
      exec::ThreadPool::chunk_count(config.trials, kTrialChunk);
  std::vector<ChunkAccum> chunks(n_chunks);

  auto run_chunk = [&](std::uint64_t chunk_index, std::uint64_t begin,
                       std::uint64_t end) {
    ChunkAccum& acc = chunks[chunk_index];
    Rng rng;  // re-pointed at each trial's substream in place
    for (std::uint64_t t = begin; t < end; ++t) {
      rng.reset_substream(config.seed, t);
      model::LifetimeResult r = kernel.run(rng, config.max_steps);
      acc.stats.add(static_cast<double>(r.whole_steps));
      if (r.censored) ++acc.censored;
      ++acc.routes[r.route];
    }
  };

  if (threads <= 1 || n_chunks <= 1) {
    // Sequential: same chunk grid, same reduction order, and the shared
    // worker pool is never spun up for callers that don't parallelize.
    for (std::uint64_t c = 0; c < n_chunks; ++c) {
      std::uint64_t begin = c * kTrialChunk;
      std::uint64_t end = begin + kTrialChunk;
      if (end > config.trials) end = config.trials;
      run_chunk(c, begin, end);
    }
  } else {
    exec::ThreadPool::shared().parallel_chunks(config.trials, kTrialChunk,
                                               threads, run_chunk);
  }

  // Deterministic reduction: chunk-index order, independent of which worker
  // produced each partial and of the thread count.
  McResult result;
  for (const ChunkAccum& c : chunks) {
    result.stats.merge(c.stats);
    result.censored += c.censored;
    result.route_counts.merge(c.routes);
  }
  result.ci = normal_ci(result.stats, config.ci_level);
  return result;
}

}  // namespace fortress::montecarlo
