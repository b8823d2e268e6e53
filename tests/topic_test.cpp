#include "topics/topic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "topics/subscription_set.hpp"
#include "util/rng.hpp"

namespace frugal::topics {
namespace {

TEST(TopicTest, RootProperties) {
  const Topic root;
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.depth(), 0u);
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(root.parent(), root);
  EXPECT_TRUE(root.segments().empty());
}

TEST(TopicTest, ParseWithAndWithoutLeadingDot) {
  EXPECT_EQ(Topic::parse("a.b"), Topic::parse(".a.b"));
  EXPECT_EQ(Topic::parse("."), Topic{});
}

TEST(TopicTest, ParseCanonicalForm) {
  EXPECT_EQ(Topic::parse("grenoble.conferences.middleware").to_string(),
            ".grenoble.conferences.middleware");
}

TEST(TopicTest, Validity) {
  EXPECT_TRUE(Topic::valid("."));
  EXPECT_TRUE(Topic::valid("a"));
  EXPECT_TRUE(Topic::valid(".a.b.c"));
  EXPECT_FALSE(Topic::valid(""));  // empty string is not the root spelling
  EXPECT_FALSE(Topic::valid("a..b"));
  EXPECT_FALSE(Topic::valid(".a."));
  EXPECT_FALSE(Topic::valid("a b"));
  EXPECT_FALSE(Topic::valid(".."));
}

TEST(TopicTest, Depth) {
  EXPECT_EQ(Topic::parse(".a").depth(), 1u);
  EXPECT_EQ(Topic::parse(".a.b").depth(), 2u);
  EXPECT_EQ(Topic::parse(".a.b.c").depth(), 3u);
}

TEST(TopicTest, ParentChain) {
  const Topic t = Topic::parse(".a.b.c");
  EXPECT_EQ(t.parent(), Topic::parse(".a.b"));
  EXPECT_EQ(t.parent().parent(), Topic::parse(".a"));
  EXPECT_EQ(t.parent().parent().parent(), Topic{});
}

TEST(TopicTest, Child) {
  EXPECT_EQ(Topic{}.child("a"), Topic::parse(".a"));
  EXPECT_EQ(Topic::parse(".a").child("b"), Topic::parse(".a.b"));
}

TEST(TopicTest, CoversSelf) {
  const Topic t = Topic::parse(".a.b");
  EXPECT_TRUE(t.covers(t));
}

TEST(TopicTest, CoversDescendants) {
  const Topic t = Topic::parse(".a.b");
  EXPECT_TRUE(t.covers(Topic::parse(".a.b.c")));
  EXPECT_TRUE(t.covers(Topic::parse(".a.b.c.d")));
}

TEST(TopicTest, DoesNotCoverAncestorsOrSiblings) {
  const Topic t = Topic::parse(".a.b");
  EXPECT_FALSE(t.covers(Topic::parse(".a")));
  EXPECT_FALSE(t.covers(Topic::parse(".a.c")));
  EXPECT_FALSE(t.covers(Topic{}));
}

TEST(TopicTest, CoversRequiresSegmentBoundary) {
  // ".a.b" must not cover ".a.bc" (prefix of the string, not of the path).
  EXPECT_FALSE(Topic::parse(".a.b").covers(Topic::parse(".a.bc")));
  EXPECT_FALSE(Topic::parse(".ab").covers(Topic::parse(".abc")));
}

TEST(TopicTest, RootCoversEverything) {
  const Topic root;
  EXPECT_TRUE(root.covers(root));
  EXPECT_TRUE(root.covers(Topic::parse(".x")));
  EXPECT_TRUE(root.covers(Topic::parse(".x.y.z")));
}

TEST(TopicTest, Segments) {
  const auto segs = Topic::parse(".alpha.beta.gamma").segments();
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], "alpha");
  EXPECT_EQ(segs[1], "beta");
  EXPECT_EQ(segs[2], "gamma");
}

TEST(TopicTest, OrderingIsDeterministic) {
  EXPECT_LT(Topic::parse(".a"), Topic::parse(".b"));
  EXPECT_EQ(Topic::parse(".a"), Topic::parse("a"));
}

// Property sweep: for every (ancestor, descendant) pair built from a chain,
// covers() holds exactly in the ancestor direction.
class TopicChainProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TopicChainProperty, CoversIffAncestor) {
  const auto [i, j] = GetParam();
  // Segment names are appended, not "s" + std::to_string(k): GCC 12's -O3
  // raises a false -Werror=restrict on the prepending operator+.
  const auto chain = [](int depth) {
    Topic topic;
    for (int k = 0; k < depth; ++k) {
      std::string name = "s";
      name += std::to_string(k);
      topic = topic.child(name);
    }
    return topic;
  };
  const Topic a = chain(i);
  const Topic b = chain(j);
  EXPECT_EQ(a.covers(b), i <= j);
  EXPECT_EQ(b.covers(a), j <= i);
}

INSTANTIATE_TEST_SUITE_P(Depths, TopicChainProperty,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(0, 6)));

// -- SubscriptionSet ---------------------------------------------------------

TEST(SubscriptionSetTest, EmptyCoversNothing) {
  const SubscriptionSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.covers(Topic::parse(".a")));
  EXPECT_FALSE(set.covers(Topic{}));
}

TEST(SubscriptionSetTest, AddRemove) {
  SubscriptionSet set;
  set.add(Topic::parse(".a"));
  EXPECT_EQ(set.size(), 1u);
  set.add(Topic::parse(".a"));  // duplicate ignored
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.remove(Topic::parse(".a")));
  EXPECT_FALSE(set.remove(Topic::parse(".a")));
  EXPECT_TRUE(set.empty());
}

TEST(SubscriptionSetTest, CoversSubtopics) {
  SubscriptionSet set;
  set.add(Topic::parse(".conf"));
  EXPECT_TRUE(set.covers(Topic::parse(".conf")));
  EXPECT_TRUE(set.covers(Topic::parse(".conf.mw")));
  EXPECT_FALSE(set.covers(Topic::parse(".news")));
}

TEST(SubscriptionSetTest, RedundantSubscriptionSurvivesBroadRemoval) {
  SubscriptionSet set;
  set.add(Topic::parse(".a"));
  set.add(Topic::parse(".a.b"));  // redundant while .a is present
  EXPECT_TRUE(set.remove(Topic::parse(".a")));
  EXPECT_TRUE(set.covers(Topic::parse(".a.b.c")));
  EXPECT_FALSE(set.covers(Topic::parse(".a.x")));
}

TEST(SubscriptionSetTest, OverlapsIsSymmetricHierarchyAware) {
  // The paper's Figure 1: p1 -> .T0.T1, p2 -> .T0.T1.T2, p3 -> .T0.
  SubscriptionSet p1{{Topic::parse(".T0.T1")}};
  SubscriptionSet p2{{Topic::parse(".T0.T1.T2")}};
  SubscriptionSet p3{{Topic::parse(".T0")}};
  EXPECT_TRUE(p1.overlaps(p2));
  EXPECT_TRUE(p2.overlaps(p1));
  EXPECT_TRUE(p1.overlaps(p3));
  EXPECT_TRUE(p2.overlaps(p3));
}

TEST(SubscriptionSetTest, DisjointBranchesDoNotOverlap) {
  SubscriptionSet a{{Topic::parse(".x.y")}};
  SubscriptionSet b{{Topic::parse(".x.z")}};
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_FALSE(b.overlaps(a));
}

TEST(SubscriptionSetTest, EmptySetOverlapsNothing) {
  SubscriptionSet empty;
  SubscriptionSet a{{Topic::parse(".x")}};
  EXPECT_FALSE(empty.overlaps(a));
  EXPECT_FALSE(a.overlaps(empty));
  EXPECT_FALSE(empty.overlaps(empty));
}

TEST(SubscriptionSetTest, RootSubscriptionOverlapsEveryone) {
  SubscriptionSet root{{Topic{}}};
  SubscriptionSet a{{Topic::parse(".deep.branch.leaf")}};
  EXPECT_TRUE(root.overlaps(a));
  EXPECT_TRUE(a.overlaps(root));
}

TEST(SubscriptionSetTest, Equality) {
  SubscriptionSet a{{Topic::parse(".x"), Topic::parse(".y")}};
  SubscriptionSet b{{Topic::parse(".x"), Topic::parse(".y")}};
  SubscriptionSet c{{Topic::parse(".y"), Topic::parse(".x")}};
  EXPECT_EQ(a, b);
  // Order matters for equality (it is an ordered list, as in the paper's
  // heartbeat payload); semantic equivalence is not required here.
  EXPECT_FALSE(a == c);
}

TEST(TopicTest, CompleteTreeLevelEnumeratesLexicographically) {
  const Topic root = Topic::parse(".t");
  EXPECT_EQ(complete_tree_level(root, 3, 0), (std::vector<Topic>{root}));
  EXPECT_EQ(complete_tree_level(root, 2, 1),
            (std::vector<Topic>{Topic::parse(".t.b0"),
                                Topic::parse(".t.b1")}));
  const auto leaves = complete_tree_level(root, 3, 4);
  EXPECT_EQ(leaves.size(), 81u);  // 3^4
  EXPECT_EQ(leaves.front(), Topic::parse(".t.b0.b0.b0.b0"));
  EXPECT_EQ(leaves.back(), Topic::parse(".t.b2.b2.b2.b2"));
  EXPECT_TRUE(std::is_sorted(leaves.begin(), leaves.end()));
  for (const Topic& leaf : leaves) {
    EXPECT_EQ(leaf.depth(), 5u);
    EXPECT_TRUE(root.covers(leaf));
  }
}

TEST(SubscriptionSetTest, SiblingPrefixIsNotAnAncestorInLargeSets) {
  // ".a.b" vs ".a.bc": the sorted-path index must respect the segment
  // boundary exactly like Topic::covers does. Grow the set past the linear
  // fallback so the indexed path is the one under test.
  SubscriptionSet set;
  set.add(Topic::parse(".a.b"));
  for (int i = 0; i < 10; ++i) {
    set.add(Topic::parse(".filler.t" + std::to_string(i)));
  }
  EXPECT_TRUE(set.covers(Topic::parse(".a.b.c")));
  EXPECT_FALSE(set.covers(Topic::parse(".a.bc")));
  SubscriptionSet sibling{{Topic::parse(".a.bc.d")}};
  EXPECT_FALSE(set.overlaps(sibling));
  SubscriptionSet nested{{Topic::parse(".a.b.deep.leaf")}};
  EXPECT_TRUE(set.overlaps(nested));
}

// Property: the sorted-path index used above the small-set threshold gives
// exactly the flat-scan semantics, for covers() and both overlap
// directions, across set sizes straddling the threshold.
class SubscriptionSetProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubscriptionSetProperty, IndexedMatchesBruteForce) {
  frugal::Rng rng{GetParam()};
  const char* segments[] = {"a", "b", "ab", "c"};
  const auto random_topic = [&](std::uint64_t max_depth) {
    Topic topic;
    const auto depth = rng.uniform_u64(max_depth + 1);
    for (std::uint64_t d = 0; d < depth; ++d) {
      topic = topic.child(segments[rng.uniform_u64(4)]);
    }
    return topic;
  };
  for (const std::size_t size_a : {2u, 7u, 9u, 24u}) {
    for (const std::size_t size_b : {1u, 8u, 20u}) {
      std::vector<Topic> list_a;
      std::vector<Topic> list_b;
      for (std::size_t i = 0; i < size_a; ++i) {
        list_a.push_back(random_topic(4));
      }
      for (std::size_t i = 0; i < size_b; ++i) {
        list_b.push_back(random_topic(4));
      }
      const SubscriptionSet a{list_a};
      const SubscriptionSet b{list_b};

      for (int probe = 0; probe < 20; ++probe) {
        const Topic topic = random_topic(5);
        const bool brute = std::any_of(
            list_a.begin(), list_a.end(),
            [&](const Topic& s) { return s.covers(topic); });
        ASSERT_EQ(a.covers(topic), brute)
            << "covers mismatch for " << topic.to_string();
      }

      bool brute_overlap = false;
      for (const Topic& ta : list_a) {
        for (const Topic& tb : list_b) {
          if (ta.covers(tb) || tb.covers(ta)) brute_overlap = true;
        }
      }
      ASSERT_EQ(a.overlaps(b), brute_overlap);
      ASSERT_EQ(b.overlaps(a), brute_overlap);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubscriptionSetProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace frugal::topics
