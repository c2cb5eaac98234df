// so_numeric.hpp — exact-up-to-quadrature evaluation of the S2SO lifetime.
//
// S2 under startup-only obfuscation has no closed form: the server-channel
// coverage process switches from the indirect rate κω to the direct rate ω
// at the random instant the first proxy falls (launch pad), and the
// all-proxies route couples to the same order statistics. It does, however,
// factor conditionally on the FIRST proxy key position A1:
//
//   P(T > s) = E_{A1}[ P(A3 > m | A1) * P(V > C_s(A1)) ]
//
// where m = s·ω is the candidate coverage on the proxy stream by step s,
// A3 is the largest of the three proxy positions, V the (independent)
// server key position, and C_s(a1) = κ·min(m, a1) + max(0, m - a1) the
// server-candidate coverage given the pad appeared at position a1.
// Both conditional factors are elementary:
//   P(A3 > m | A1 = a1) = 1 - ((m - a1)/(χ - a1))²   for a1 <= m, else 1
//   P(V > c)            = max(0, 1 - c/χ)
// and A1 has density 3(1 - a/χ)²/χ (minimum of 3 uniform draws; we use the
// continuous approximation of the without-replacement order statistics,
// exact to O(1/χ)).
//
// EL = Σ_{s>=1} P(T > s), evaluated with Gauss-Legendre quadrature per
// step. Used to cross-check the Monte-Carlo estimator and to fill the
// "no closed form" cell of the evaluation matrix.
#pragma once

#include "model/params.hpp"

namespace fortress::analysis {

/// Numeric EL of S2SO (whole steps before the compromise step). Each
/// integration region (the A1 range split at the kink a1 = m) is cut into 8
/// panels of 16-point Gauss-Legendre; the sum stops once P(T > s) < 1e-12.
double expected_lifetime_s2_so_numeric(const model::SystemShape& shape,
                                       const model::AttackParams& params);

}  // namespace fortress::analysis
