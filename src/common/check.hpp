// check.hpp — precondition/postcondition/invariant checking.
//
// Following the C++ Core Guidelines (I.5/I.7), interface contracts are
// expressed as executable checks. Violations throw ContractViolation so tests
// can assert on them; they are never compiled out (the library is a research
// artifact where catching logic errors early outweighs the branch cost).
#pragma once

#include <stdexcept>
#include <string>

namespace fortress {

/// Thrown when a FORTRESS_EXPECTS / FORTRESS_ENSURES / FORTRESS_CHECK fails.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line) {
  throw ContractViolation(std::string(kind) + " failed: " + expr + " at " +
                          file + ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace fortress

/// The shared body: throws ContractViolation("<kind> failed: <text> at
/// <file>:<line>") when `cond` is false. Each macro stringifies its own
/// argument, so `text` is the condition as written, unexpanded.
#define FORTRESS_CONTRACT(kind, cond, text)                                  \
  do {                                                                       \
    if (!(cond))                                                             \
      ::fortress::detail::contract_fail(kind, text, __FILE__, __LINE__);     \
  } while (false)

/// Precondition check: argument/state requirements at function entry.
#define FORTRESS_EXPECTS(cond) FORTRESS_CONTRACT("Precondition", cond, #cond)

/// Postcondition check: guarantees at function exit.
#define FORTRESS_ENSURES(cond) FORTRESS_CONTRACT("Postcondition", cond, #cond)

/// Internal invariant check.
#define FORTRESS_CHECK(cond) FORTRESS_CONTRACT("Invariant", cond, #cond)
