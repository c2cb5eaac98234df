#include "model/params.hpp"

#include <cmath>

#include "common/check.hpp"

namespace fortress::model {

std::string to_string(SystemKind kind) {
  return kSystemKindNames.names[static_cast<std::size_t>(kind)];
}

std::string to_string(Obfuscation obf) {
  switch (obf) {
    case Obfuscation::StartupOnly: return "SO";
    case Obfuscation::Proactive: return "PO";
  }
  return "?";
}

std::string system_label(SystemKind kind, Obfuscation obf) {
  return to_string(kind) + to_string(obf);
}

void AttackParams::validate() const {
  FORTRESS_EXPECTS(alpha > 0.0 && alpha <= 1.0);
  FORTRESS_EXPECTS(kappa >= 0.0 && kappa <= 1.0);
  FORTRESS_EXPECTS(chi >= 2);
  FORTRESS_EXPECTS(period >= 1);
}

std::uint64_t AttackParams::omega() const {
  double w = std::round(alpha * static_cast<double>(chi));
  if (w < 1.0) return 1;
  if (w > static_cast<double>(chi)) return chi;
  return static_cast<std::uint64_t>(w);
}

void SystemShape::validate() const {
  FORTRESS_EXPECTS(n_servers >= 1);
  switch (kind) {
    case SystemKind::S0:
      FORTRESS_EXPECTS(n_proxies == 0);
      FORTRESS_EXPECTS(smr_compromise >= 1 && smr_compromise <= n_servers);
      break;
    case SystemKind::S1:
      FORTRESS_EXPECTS(n_proxies == 0);
      break;
    case SystemKind::S2:
      FORTRESS_EXPECTS(n_proxies >= 1);
      break;
  }
}

}  // namespace fortress::model
