// evaluator.hpp — unified analytic expected-lifetime evaluation.
//
// Dispatches every (system, policy) combination the paper evaluates to its
// exact analytic treatment:
//   S0PO/S1PO/S2PO  -> closed form (period 1) or absorbing Markov chain
//                      (general period); the two agree for period 1.
//   S0SO/S1SO       -> exact order-statistic sums.
//   S2SO            -> numeric survival-sum integration (so_numeric.hpp);
//                      exact up to quadrature and the O(1/χ) continuous
//                      order-statistic approximation.
#pragma once

#include "model/params.hpp"

namespace fortress::analysis {

/// Which analytic method produced a number.
enum class Method { ClosedForm, MarkovChain, NumericIntegration };

const char* to_string(Method method);

struct Evaluation {
  double expected_lifetime = 0.0;
  Method method = Method::ClosedForm;
};

/// Exact analytic EL; every (system, policy) combination has one.
/// For Proactive systems with period > 1 the Markov chain is used; with
/// period == 1 the closed form is used (and the chain agrees — see tests).
Evaluation analytic_lifetime(const model::SystemShape& shape,
                              const model::AttackParams& params,
                              model::Obfuscation obf);

}  // namespace fortress::analysis
