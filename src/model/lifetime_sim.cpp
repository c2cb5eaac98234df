#include "model/lifetime_sim.hpp"

#include <algorithm>
#include <bit>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "model/step_model.hpp"

namespace fortress::model {

const char* to_string(CompromiseRoute route) {
  switch (route) {
    case CompromiseRoute::None: return "none";
    case CompromiseRoute::SharedKey: return "shared-key";
    case CompromiseRoute::SmrQuorum: return "smr-quorum";
    case CompromiseRoute::ServerIndirect: return "server-indirect";
    case CompromiseRoute::ServerViaProxy: return "server-via-proxy";
    case CompromiseRoute::AllProxies: return "all-proxies";
  }
  return "?";
}

namespace {

constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

TrialKernel::TrialKernel(const SystemShape& shape, const AttackParams& params,
                         Obfuscation obf, Granularity gran)
    : shape_(shape), params_(params), obf_(obf), gran_(gran) {
  shape_.validate();
  params_.validate();
  omega_ = params_.omega();

  // Only the paths that use fixed-size stack buffers bound the node counts;
  // Proactive/Step places no limit.
  if (obf_ == Obfuscation::StartupOnly) {
    FORTRESS_EXPECTS(shape_.n_servers <= kMaxChannels);
    FORTRESS_EXPECTS(shape_.n_proxies <= kMaxChannels);
  }

  if (obf_ == Obfuscation::Proactive && gran_ == Granularity::Step) {
    p_step_ = per_step_compromise_probability(shape_, params_);
    if (p_step_ > 0.0) inv_log_step_ = Rng::geometric_inv_log(p_step_);
    if (shape_.kind == SystemKind::S2) {
      // Exact conditional route distribution at the compromise step; the
      // three terms are the route-wise decomposition of p_step_ (same pmf
      // accumulation order as per_step_compromise_probability).
      const double a = params_.alpha;
      const double ka = params_.kappa * a;
      const int np = shape_.n_proxies;
      double p_all = binomial_pmf(np, a, np);
      double p_indirect = 0.0;
      double p_via = 0.0;
      for (int j = 0; j < np; ++j) {
        double pj = binomial_pmf(np, a, j);
        p_indirect += pj * ka;
        if (j >= 1) p_via += pj * (1.0 - ka) * a;
      }
      cut_all_ = p_all;
      cut_indirect_ = p_all + p_indirect;
      route_mass_ = p_all + p_indirect + p_via;
    }
  }

  if (obf_ == Obfuscation::Proactive && gran_ == Granularity::Probe) {
    const double q =
        static_cast<double>(omega_) / static_cast<double>(params_.chi);
    const int nchan = (shape_.kind == SystemKind::S2)
                          ? shape_.n_proxies + 1  // proxies + server
                          : shape_.n_servers;     // S0 nodes / S1 channel
    eff_nchan_ = (shape_.kind == SystemKind::S1) ? 1 : nchan;
    FORTRESS_EXPECTS(eff_nchan_ <= kMaxChannels);
    const double p_quiet = std::pow(1.0 - q, eff_nchan_);
    p_event_ = 1.0 - p_quiet;
    // Truncated event-count pmf P(K = k | K >= 1), K ~ Bin(n, q), as alias-
    // table weights over k-1 (sampling is O(1) regardless of n).
    std::vector<double> weights(static_cast<std::size_t>(eff_nchan_));
    for (int k = 1; k <= eff_nchan_; ++k) {
      weights[static_cast<std::size_t>(k - 1)] =
          binomial_pmf(eff_nchan_, q, k);
    }
    event_count_alias_ = AliasTable(weights);
    if (p_event_ > 0.0) inv_log_quiet_ = Rng::geometric_inv_log(p_event_);
    if (shape_.kind == SystemKind::S2) {
      // All size-k channel subsets, bucketed by popcount into one flat array
      // (counting sort over the 2^n - 1 non-empty masks): a uniformly random
      // k-subset is then one uniform index into bucket k. Only S2 cares
      // WHICH channels fired (proxies vs the server channel); S0 needs just
      // the count and S1 compromises on any event, so the table (and the
      // per-event-step subset draw) exists only for S2.
      const std::uint32_t n_masks = 1u << eff_nchan_;
      subset_masks_.resize(n_masks - 1);
      std::array<std::uint32_t, kMaxChannels + 2> fill{};
      for (std::uint32_t mask = 1; mask < n_masks; ++mask) {
        ++fill[static_cast<std::size_t>(std::popcount(mask)) + 1];
      }
      for (std::size_t k = 1; k < fill.size(); ++k) fill[k] += fill[k - 1];
      subset_begin_ = fill;
      for (std::uint32_t mask = 1; mask < n_masks; ++mask) {
        std::uint32_t& slot =
            fill[static_cast<std::size_t>(std::popcount(mask))];
        subset_masks_[slot++] = static_cast<std::uint16_t>(mask);
      }
    }
  }
}

LifetimeResult TrialKernel::run(Rng& rng, std::uint64_t max_steps) const {
  FORTRESS_EXPECTS(max_steps > 0);
  if (obf_ == Obfuscation::StartupOnly) return run_so(rng, max_steps);
  if (gran_ == Granularity::Step) return run_po_step(rng, max_steps);
  return run_po_probe(rng, max_steps);
}

// ---------------------------------------------------------------------------
// Startup-only obfuscation: keys sit at fixed positions in the attacker's
// candidate order; lifetimes are order-statistic arithmetic.
// ---------------------------------------------------------------------------

LifetimeResult TrialKernel::run_so(Rng& rng, std::uint64_t max_steps) const {
  const std::uint64_t chi = params_.chi;
  const std::uint64_t omega = omega_;
  LifetimeResult out;

  switch (shape_.kind) {
    case SystemKind::S1: {
      std::uint64_t pos = rng.below(chi) + 1;  // 1..chi
      std::uint64_t t = ceil_div(pos, omega);
      if (t - 1 >= max_steps) {
        out.censored = true;
        out.whole_steps = max_steps;
      } else {
        out.whole_steps = t - 1;
        out.route = CompromiseRoute::SharedKey;
      }
      return out;
    }
    case SystemKind::S0: {
      std::array<std::uint64_t, kMaxChannels> positions;
      const auto ns = static_cast<std::uint64_t>(shape_.n_servers);
      rng.sample_without_replacement_into(chi, ns, positions.data());
      std::sort(positions.begin(), positions.begin() + ns);
      // smr_compromise-th smallest position, 1-based candidates.
      std::uint64_t pos = positions[static_cast<std::size_t>(
                              shape_.smr_compromise - 1)] + 1;
      std::uint64_t t = ceil_div(pos, omega);
      if (t - 1 >= max_steps) {
        out.censored = true;
        out.whole_steps = max_steps;
      } else {
        out.whole_steps = t - 1;
        out.route = CompromiseRoute::SmrQuorum;
      }
      return out;
    }
    case SystemKind::S2: {
      // Proxy keys: distinct positions in the shared direct candidate order.
      std::array<std::uint64_t, kMaxChannels> proxy_pos;
      const auto np = static_cast<std::uint64_t>(shape_.n_proxies);
      rng.sample_without_replacement_into(chi, np, proxy_pos.data());
      std::sort(proxy_pos.begin(), proxy_pos.begin() + np);
      const double first_proxy = static_cast<double>(proxy_pos[0] + 1);
      const std::uint64_t t_all =
          ceil_div(proxy_pos[np - 1] + 1, omega);  // all-proxies route

      // Server key position in its own candidate order.
      const double v = static_cast<double>(rng.below(chi) + 1);

      // Coverage of the server keyspace over continuous step time s:
      // indirect at rate κω until τ* (first proxy falls), then direct at ω.
      const double w = static_cast<double>(omega);
      const double kw = params_.kappa * w;
      const double tau_star = first_proxy / w;  // in step units

      double t_server_real;
      if (kw > 0.0 && v <= kw * tau_star) {
        t_server_real = v / kw;  // found during the indirect phase
      } else {
        // Needs the direct phase: coverage(s) = kw*tau* + w*(s - tau*).
        t_server_real = tau_star + (v - kw * tau_star) / w;
      }
      std::uint64_t t_server =
          static_cast<std::uint64_t>(std::ceil(t_server_real - 1e-12));
      if (t_server == 0) t_server = 1;

      std::uint64_t t;
      CompromiseRoute route;
      if (t_all <= t_server) {
        t = t_all;
        route = CompromiseRoute::AllProxies;
      } else {
        t = t_server;
        route = (t_server_real <= tau_star + 1e-12)
                    ? CompromiseRoute::ServerIndirect
                    : CompromiseRoute::ServerViaProxy;
      }
      if (params_.kappa == 0.0 && route == CompromiseRoute::ServerIndirect) {
        route = CompromiseRoute::ServerViaProxy;
      }
      if (t - 1 >= max_steps) {
        out.censored = true;
        out.whole_steps = max_steps;
      } else {
        out.whole_steps = t - 1;
        out.route = route;
      }
      return out;
    }
  }
  FORTRESS_CHECK(false);
  return out;
}

// ---------------------------------------------------------------------------
// Proactive obfuscation, step granularity: geometric fast-forward with the
// closed-form per-step probability; the compromise-step route is then drawn
// from the exact conditional route distribution (one uniform draw — the
// seed's rejection sampler spun ~1/p_step iterations per trial).
// ---------------------------------------------------------------------------

LifetimeResult TrialKernel::run_po_step(Rng& rng,
                                        std::uint64_t max_steps) const {
  LifetimeResult out;
  if (p_step_ <= 0.0) {
    out.censored = true;
    out.whole_steps = max_steps;
    return out;
  }
  std::uint64_t steps = rng.geometric_scaled(inv_log_step_);
  if (steps >= max_steps) {
    out.censored = true;
    out.whole_steps = max_steps;
    return out;
  }
  out.whole_steps = steps;
  switch (shape_.kind) {
    case SystemKind::S0: out.route = CompromiseRoute::SmrQuorum; break;
    case SystemKind::S1: out.route = CompromiseRoute::SharedKey; break;
    case SystemKind::S2: {
      double u = rng.uniform01() * route_mass_;
      out.route = u < cut_all_        ? CompromiseRoute::AllProxies
                  : u < cut_indirect_ ? CompromiseRoute::ServerIndirect
                                      : CompromiseRoute::ServerViaProxy;
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Proactive obfuscation, probe granularity: exact skip-ahead simulation.
// ---------------------------------------------------------------------------

// Per-channel event probabilities within one step:
//  * proxy / S0-node channel:  q  = omega / chi  (key among first ω candidates)
//  * server channel (S2):      qs = omega / chi  (coverage can reach ω when a
//    launch pad appears; whether the key is actually reached depends on the
//    realized coverage C <= ω, checked per event step).
LifetimeResult TrialKernel::run_po_probe(Rng& rng,
                                         std::uint64_t max_steps) const {
  const std::uint64_t omega = omega_;
  LifetimeResult out;

  if (p_event_ <= 0.0) {
    out.censored = true;
    out.whole_steps = max_steps;
    return out;
  }

  std::uint64_t steps_elapsed = 0;
  while (true) {
    // Skip quiet steps.
    std::uint64_t quiet = rng.geometric_scaled(inv_log_quiet_);
    if (steps_elapsed + quiet >= max_steps) {
      out.censored = true;
      out.whole_steps = max_steps;
      return out;
    }
    steps_elapsed += quiet;
    // This step has at least one channel event. Sample the event pattern
    // conditioned on "not all channels quiet" in O(1): the number of events
    // k ~ Bin(n, q) | k >= 1 from the alias table; S2 additionally draws a
    // uniformly random k-subset of channels as one index into the
    // precomputed mask bucket (S0/S1 only need the count).
    const int k = static_cast<int>(event_count_alias_.sample(rng)) + 1;

    switch (shape_.kind) {
      case SystemKind::S1:
        out.whole_steps = steps_elapsed;
        out.route = CompromiseRoute::SharedKey;
        return out;
      case SystemKind::S0: {
        // Every channel is a node; the event count IS the fallen count.
        if (k >= shape_.smr_compromise) {
          out.whole_steps = steps_elapsed;
          out.route = CompromiseRoute::SmrQuorum;
          return out;
        }
        break;  // not enough hits; PO resets — continue
      }
      case SystemKind::S2: {
        const std::uint32_t lo = subset_begin_[static_cast<std::size_t>(k)];
        const std::uint32_t n_subsets =
            subset_begin_[static_cast<std::size_t>(k) + 1] - lo;
        const std::uint32_t hit_mask = subset_masks_[lo + rng.below(n_subsets)];
        const int np = shape_.n_proxies;
        int fallen = 0;
        double first_fraction = 2.0;  // > 1 means "no proxy fell"
        for (int c = 0; c < np; ++c) {
          if ((hit_mask & (1u << c)) == 0) continue;
          ++fallen;
          // Find position within the step: uniform over {1..ω} given a hit.
          double f = (static_cast<double>(rng.below(omega)) + 1.0) /
                     static_cast<double>(omega);
          first_fraction = std::min(first_fraction, f);
        }
        if (fallen == np) {
          out.whole_steps = steps_elapsed;
          out.route = CompromiseRoute::AllProxies;
          return out;
        }
        const bool server_channel_event = (hit_mask & (1u << np)) != 0;
        if (server_channel_event) {
          // Server key lies among the first ω candidates; realized coverage
          // this step: κω alone, or κω·f* + ω·(1-f*) with a launch pad.
          const double w = static_cast<double>(omega);
          const double kw = params_.kappa * w;
          double coverage = kw;
          if (first_fraction <= 1.0) {
            coverage = kw * first_fraction + w * (1.0 - first_fraction);
          }
          const double v = static_cast<double>(rng.below(omega)) + 1.0;
          if (v <= coverage) {
            out.whole_steps = steps_elapsed;
            // Attribute: reached during the indirect phase iff v <= κω·f*
            // (no pad: iff v <= κω).
            const double indirect_cap =
                (first_fraction <= 1.0) ? kw * first_fraction : kw;
            out.route = (v <= indirect_cap)
                            ? CompromiseRoute::ServerIndirect
                            : CompromiseRoute::ServerViaProxy;
            if (first_fraction > 1.0) out.route = CompromiseRoute::ServerIndirect;
            return out;
          }
        }
        break;  // survived the event step; PO resets
      }
    }

    ++steps_elapsed;  // the event step itself elapsed without compromise
    if (steps_elapsed >= max_steps) {
      out.censored = true;
      out.whole_steps = max_steps;
      return out;
    }
  }
}

LifetimeResult simulate_lifetime_po_period_naive(const SystemShape& shape,
                                                 const AttackParams& params,
                                                 Rng& rng,
                                                 std::uint64_t max_steps) {
  shape.validate();
  params.validate();
  const double a = params.alpha;
  const std::uint32_t period = params.period;
  LifetimeResult out;

  // Persistent compromise state between re-randomization boundaries.
  int fallen_servers = 0;  // S0
  int fallen_proxies = 0;  // S2

  for (std::uint64_t step = 0; step < max_steps; ++step) {
    // Boundary BEFORE this step's attacks when step is a multiple of P
    // (step 0 starts freshly randomized).
    if (step % period == 0) {
      fallen_servers = 0;
      fallen_proxies = 0;
    }
    switch (shape.kind) {
      case SystemKind::S1:
        // One shared memoryless channel; persistence does not apply (any
        // hit is immediate compromise).
        if (rng.bernoulli(a)) {
          out.whole_steps = step;
          out.route = CompromiseRoute::SharedKey;
          return out;
        }
        break;
      case SystemKind::S0: {
        int intact = shape.n_servers - fallen_servers;
        for (int n = 0; n < intact; ++n) {
          if (rng.bernoulli(a)) ++fallen_servers;
        }
        if (fallen_servers >= shape.smr_compromise) {
          out.whole_steps = step;
          out.route = CompromiseRoute::SmrQuorum;
          return out;
        }
        break;
      }
      case SystemKind::S2: {
        int intact = shape.n_proxies - fallen_proxies;
        for (int n = 0; n < intact; ++n) {
          if (rng.bernoulli(a)) ++fallen_proxies;
        }
        if (fallen_proxies == shape.n_proxies) {
          out.whole_steps = step;
          out.route = CompromiseRoute::AllProxies;
          return out;
        }
        if (rng.bernoulli(params.kappa * a)) {
          out.whole_steps = step;
          out.route = CompromiseRoute::ServerIndirect;
          return out;
        }
        if (fallen_proxies >= 1 && rng.bernoulli(a)) {
          out.whole_steps = step;
          out.route = CompromiseRoute::ServerViaProxy;
          return out;
        }
        break;
      }
    }
  }
  out.censored = true;
  out.whole_steps = max_steps;
  return out;
}

}  // namespace fortress::model
