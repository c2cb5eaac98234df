#include "analysis/evaluator.hpp"

#include "analysis/markov.hpp"
#include "analysis/so_numeric.hpp"
#include "common/check.hpp"
#include "model/step_model.hpp"

namespace fortress::analysis {

const char* to_string(Method method) {
  switch (method) {
    case Method::ClosedForm: return "closed-form";
    case Method::MarkovChain: return "markov-chain";
    case Method::NumericIntegration: return "numeric-integration";
  }
  return "?";
}

Evaluation analytic_lifetime(const model::SystemShape& shape,
                              const model::AttackParams& params,
                              model::Obfuscation obf) {
  shape.validate();
  params.validate();

  Evaluation out;
  if (obf == model::Obfuscation::Proactive) {
    if (params.period == 1) {
      out.expected_lifetime = model::expected_lifetime_po(shape, params);
      out.method = Method::ClosedForm;
    } else {
      out.expected_lifetime = expected_lifetime_markov(shape, params);
      out.method = Method::MarkovChain;
    }
    return out;
  }

  // Startup-only obfuscation.
  switch (shape.kind) {
    case model::SystemKind::S1:
      out.expected_lifetime = model::expected_lifetime_s1_so(params);
      out.method = Method::ClosedForm;
      return out;
    case model::SystemKind::S0:
      out.expected_lifetime = model::expected_lifetime_s0_so(shape, params);
      out.method = Method::ClosedForm;
      return out;
    case model::SystemKind::S2:
      out.expected_lifetime = expected_lifetime_s2_so_numeric(shape, params);
      out.method = Method::NumericIntegration;
      return out;
  }
  FORTRESS_CHECK(false);
  return out;
}

}  // namespace fortress::analysis
