// The test side of the determinism harness. Campaigns are compared whole by
// scenario::report_divergences; expect_no_divergences fails once per mode
// it names. Two TrialOutcomes are the same result when their field-table
// encodings match byte for byte, doubles compared by bit pattern: a field
// added to TrialOutcome's table is compared with no edit here, and on a
// mismatch gtest prints the diff of the two encodings.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fields.hpp"
#include "scenario/campaign.hpp"

namespace fortress::scenario {

inline void expect_no_divergences(const std::vector<std::string>& messages) {
  for (const std::string& m : messages) ADD_FAILURE() << m;
}

inline std::string outcome_json(const TrialOutcome& outcome) {
  json::Writer w(/*compact=*/false);
  w.begin_object();
  fields::write_members(w, outcome, fields::Doubles::Bits);
  w.end_object();
  return w.str();
}

inline void expect_same_outcome(const TrialOutcome& want,
                                const TrialOutcome& got) {
  EXPECT_EQ(outcome_json(want), outcome_json(got));
}

}  // namespace fortress::scenario
