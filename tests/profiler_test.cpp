#include "sim/profiler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace frugal::sim {
namespace {

std::vector<std::string> names_of(const Profiler& profiler) {
  std::vector<std::string> names;
  for (const auto& entry : profiler.sections()) names.push_back(entry.first);
  return names;
}

TEST(ProfilerTest, SectionsKeepFirstEntryOrderAndCounts) {
  Profiler profiler;
  for (int i = 0; i < 3; ++i) {
    ProfileScope<"test.outer"> outer{&profiler};
    ProfileScope<"test.inner"> inner{&profiler};
  }
  { ProfileScope<"test.later"> later{&profiler}; }
  { ProfileScope<"test.outer"> again{&profiler}; }
  EXPECT_EQ(names_of(profiler),
            (std::vector<std::string>{"test.outer", "test.inner",
                                      "test.later"}));
  EXPECT_EQ(profiler.sections()[0].second.count, 4);
  EXPECT_EQ(profiler.sections()[1].second.count, 3);
  EXPECT_EQ(profiler.sections()[2].second.count, 1);
}

TEST(ProfilerTest, EachProfilerOrdersItsOwnSections) {
  Profiler first;
  Profiler second;
  { ProfileScope<"test.b"> scope{&first}; }
  { ProfileScope<"test.a"> scope{&first}; }
  { ProfileScope<"test.a"> scope{&second}; }
  { ProfileScope<"test.b"> scope{&second}; }
  EXPECT_EQ(names_of(first), (std::vector<std::string>{"test.b", "test.a"}));
  EXPECT_EQ(names_of(second), (std::vector<std::string>{"test.a", "test.b"}));
}

TEST(ProfilerTest, MergedSectionsAreTheScopesSections) {
  Profiler job;
  { ProfileScope<"test.merged"> scope{&job}; }
  Profiler total;
  total.merge(job);
  { ProfileScope<"test.merged"> scope{&total}; }
  ASSERT_EQ(names_of(total), (std::vector<std::string>{"test.merged"}));
  EXPECT_EQ(total.sections()[0].second.count, 2);
  EXPECT_EQ(total.section_index("test.merged"), 0u);
}

TEST(ProfilerTest, NullProfilerIsANoOp) {
  ProfileScope<"test.null"> scope{nullptr};
  Profiler untouched;
  EXPECT_TRUE(untouched.sections().empty());
}

}  // namespace
}  // namespace frugal::sim
