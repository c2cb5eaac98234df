// scheduler_test.hpp — run one test body under both event schedulers.
//
// The timer wheel is the production scheduler and the binary heap its
// reference; a test that owns a Simulator should pass on both.
//
//   SCHEDULER_TEST(Suite, Name) { sim::Simulator sim(scheduler); ... }
//   SCHEDULER_TEST_F(Fixture, Name) { ... }
//
// each register the body twice: as Suite.Name on the wheel and as
// Suite.Name/heap on the heap. SCHEDULER_TEST's body reads the kind under
// test as `scheduler`; SCHEDULER_TEST_F's fixture takes it as its
// constructor argument and builds its simulator with it.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.hpp"

namespace fortress {

/// The fixture of a SCHEDULER_TEST: only the kind under test.
class SchedulerTest : public ::testing::Test {
 protected:
  explicit SchedulerTest(sim::SchedulerKind kind) : scheduler(kind) {}
  const sim::SchedulerKind scheduler;
};

template <typename Fixture, template <sim::SchedulerKind> class Test>
bool register_on_both_schedulers(const char* suite, const char* name,
                                 const char* file, int line) {
  ::testing::RegisterTest(suite, name, nullptr, nullptr, file, line,
                          []() -> Fixture* {
                            return new Test<sim::SchedulerKind::Wheel>;
                          });
  ::testing::RegisterTest(suite, (std::string(name) + "/heap").c_str(),
                          nullptr, nullptr, file, line, []() -> Fixture* {
                            return new Test<sim::SchedulerKind::Heap>;
                          });
  return true;
}

}  // namespace fortress

#define FORTRESS_SCHEDULER_TEST_(suite, fixture, name)                   \
  template <::fortress::sim::SchedulerKind Kind>                         \
  class suite##_##name##_Test : public fixture {                         \
   public:                                                               \
    suite##_##name##_Test() : fixture(Kind) {}                           \
    void TestBody() override;                                            \
  };                                                                     \
  [[maybe_unused]] const bool suite##_##name##_registered =              \
      ::fortress::register_on_both_schedulers<fixture,                   \
                                              suite##_##name##_Test>(    \
          #suite, #name, __FILE__, __LINE__);                            \
  template <::fortress::sim::SchedulerKind Kind>                         \
  void suite##_##name##_Test<Kind>::TestBody()

#define SCHEDULER_TEST(suite, name) \
  FORTRESS_SCHEDULER_TEST_(suite, ::fortress::SchedulerTest, name)
#define SCHEDULER_TEST_F(fixture, name) \
  FORTRESS_SCHEDULER_TEST_(fixture, fixture, name)
