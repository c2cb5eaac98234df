// bench_ablation_proxies — proxy-count ablation (E11).
//
// The paper fixes np = 3 and notes (§4.2) that κ is independent of the
// number of proxies. This ablation shows what np actually buys: the
// all-proxies route decays like α^np while the launch-pad route GROWS with
// np (more proxies = more chances one falls and opens the direct channel).
// A lone proxy buys nothing: it falls as easily as the S1 server and then
// opens the direct channel, so np = 1 never beats S1PO. The second proxy is
// the big step. Beyond np = 2 the net effect at realistic α is mildly
// negative — the architectural value of proxies is the κ reduction, not
// proxy redundancy — exactly why the paper keeps κ as the central parameter.
//
// Checked (exit code): every np >= 2 cell beats S1PO at every κ < 1, and EL
// is non-increasing in np for np >= 2 at each κ.
#include <cstdio>

#include "bench_util.hpp"
#include "model/step_model.hpp"

using namespace fortress;
using namespace fortress::bench;

int main() {
  const std::vector<double> kappas = {0.0, 0.25, 0.5, 0.9};
  const double alpha = 1e-3;

  std::printf("Proxy-count ablation: S2PO expected lifetime, alpha = %g, "
              "chi = 2^16\n\n", alpha);
  std::printf("%6s", "np");
  for (double k : kappas) std::printf("  %14s", ("kappa=" + std::to_string(k)).substr(0, 11).c_str());
  std::printf("\n");
  rule(6 + 16 * static_cast<int>(kappas.size()));

  // Flattened (np x kappa) grid over the shared pool; printed from slots in
  // index order afterward, identical to the sequential sweep.
  constexpr int kMaxNp = 6;
  std::vector<double> el(kMaxNp * kappas.size(), 0.0);
  parallel_grid(el.size(), [&](std::size_t idx) {
    const int np = 1 + static_cast<int>(idx / kappas.size());
    model::AttackParams p;
    p.alpha = alpha;
    p.kappa = kappas[idx % kappas.size()];
    p.chi = 1ull << 16;
    el[idx] = model::expected_lifetime_po(model::SystemShape::s2(np), p);
  });
  auto cell = [&](int np, std::size_t ki) {
    return el[(np - 1) * kappas.size() + ki];
  };
  for (int np = 1; np <= kMaxNp; ++np) {
    std::printf("%6d", np);
    for (std::size_t ki = 0; ki < kappas.size(); ++ki) {
      std::printf("  %14.5g", cell(np, ki));
    }
    std::printf("\n");
  }
  rule(6 + 16 * static_cast<int>(kappas.size()));

  // Reference: S1PO (no proxies at all).
  model::AttackParams p;
  p.alpha = alpha;
  p.chi = 1ull << 16;
  const double s1po = model::expected_lifetime_po(model::SystemShape::s1(), p);

  // np = 2 and np = 3 give the same per-step probability in exact
  // arithmetic; their computed ELs differ in the last bits, so "non-
  // increasing" allows rounding-sized growth.
  constexpr double kRoundingSlack = 1e-12;
  bool beats_s1po = true;
  bool non_increasing = true;
  for (int np = 2; np <= kMaxNp; ++np) {
    for (std::size_t ki = 0; ki < kappas.size(); ++ki) {
      if (kappas[ki] < 1.0) beats_s1po = beats_s1po && cell(np, ki) > s1po;
      if (np > 2) {
        non_increasing = non_increasing &&
                         cell(np, ki) <= cell(np - 1, ki) * (1 + kRoundingSlack);
      }
    }
  }

  std::printf("\nS1PO reference (no proxy tier): %.5g\n", s1po);
  std::printf("Observation: np = 1 never beats S1PO (equal at kappa = 0, "
              "below it for kappa > 0: a lone proxy falls as easily as the "
              "S1 server, then opens the direct channel). The second proxy "
              "raises EL several-fold. Past np = 2, more proxies only add "
              "launch pads: the kappa reduction, not redundancy, carries the "
              "benefit (and kappa is np-independent, Definition 5).\n");
  std::printf("  every np >= 2 beats S1PO at kappa < 1: %s\n",
              pass(beats_s1po));
  std::printf("  EL non-increasing in np for np >= 2:   %s\n",
              pass(non_increasing));
  return (beats_s1po && non_increasing) ? 0 : 1;
}
