#include "analysis/so_numeric.hpp"

#include <array>
#include <cmath>

#include "common/check.hpp"

namespace fortress::analysis {

namespace {

// Panels per integration region, and the survival probability below which
// the sum over steps stops.
constexpr int kPanels = 8;
constexpr double kSurvivalCutoff = 1e-12;

// 16-point Gauss-Legendre nodes/weights on [-1, 1] (abscissae symmetric).
constexpr int kGlPoints = 16;
constexpr std::array<double, kGlPoints> kGlNodes = {
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.7554044083550030, -0.6178762444026438, -0.4580167776572274,
    -0.2816035507792589, -0.0950125098376374, 0.0950125098376374,
    0.2816035507792589,  0.4580167776572274,  0.6178762444026438,
    0.7554044083550030,  0.8656312023878318,  0.9445750230732326,
    0.9894009349916499};
constexpr std::array<double, kGlPoints> kGlWeights = {
    0.0271524594117541, 0.0622535239386479, 0.0951585116824928,
    0.1246289712555339, 0.1495959888165767, 0.1691565193950025,
    0.1826034150449236, 0.1894506104550685, 0.1894506104550685,
    0.1826034150449236, 0.1691565193950025, 0.1495959888165767,
    0.1246289712555339, 0.0951585116824928, 0.0622535239386479,
    0.0271524594117541};

}  // namespace

double expected_lifetime_s2_so_numeric(const model::SystemShape& shape,
                                       const model::AttackParams& params) {
  shape.validate();
  params.validate();
  FORTRESS_EXPECTS(shape.kind == model::SystemKind::S2);

  const double chi = static_cast<double>(params.chi);
  const double omega = static_cast<double>(params.omega());
  const double kappa = params.kappa;
  const int np = shape.n_proxies;

  // A1 density (minimum of np uniform positions on (0, chi]).
  auto density_a1 = [&](double a) {
    return static_cast<double>(np) *
           std::pow(1.0 - a / chi, np - 1) / chi;
  };
  // P(max position > m | min position = a1), a1 <= m < chi.
  auto all_proxies_survive = [&](double m, double a1) {
    if (np == 1) return 0.0;  // the only proxy fell at a1 <= m
    double frac = (m - a1) / (chi - a1);
    return 1.0 - std::pow(frac, np - 1);
  };
  // Server-candidate coverage by proxy-stream coverage m, pad at a1.
  auto coverage = [&](double m, double a1) {
    if (a1 >= m) return kappa * m;  // no pad yet: indirect only
    return kappa * a1 + (m - a1);
  };
  auto server_survives = [&](double c) {
    double p = 1.0 - c / chi;
    return p < 0.0 ? 0.0 : p;
  };

  const std::uint64_t s_max =
      static_cast<std::uint64_t>(std::ceil(chi / omega)) + 1;

  double el = 0.0;
  for (std::uint64_t s = 1; s <= s_max; ++s) {
    const double m = std::min(static_cast<double>(s) * omega, chi);

    // Split [0, chi] at m (the integrand kinks there), then into panels.
    double survival = 0.0;
    auto integrate = [&](double lo, double hi, bool below_m) {
      if (hi <= lo) return;
      double panel_width = (hi - lo) / kPanels;
      for (int panel = 0; panel < kPanels; ++panel) {
        double a = lo + panel * panel_width;
        double b = a + panel_width;
        double mid = 0.5 * (a + b);
        double half = 0.5 * (b - a);
        for (int i = 0; i < kGlPoints; ++i) {
          double a1 = mid + half * kGlNodes[i];
          double w = half * kGlWeights[i];
          double term = density_a1(a1) * server_survives(coverage(m, a1));
          if (below_m) term *= all_proxies_survive(m, a1);
          survival += w * term;
        }
      }
    };
    integrate(0.0, m, /*below_m=*/true);    // pad exists; A3 may still be > m
    integrate(m, chi, /*below_m=*/false);   // no proxy fallen yet
    el += survival;
    if (survival < kSurvivalCutoff) break;
  }
  return el;
}

}  // namespace fortress::analysis
