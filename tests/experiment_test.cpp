// Integration tests: full simulations through the experiment runner.
// These use scaled-down worlds (fewer nodes, smaller areas, shorter warmup)
// so the whole suite stays fast while still exercising the complete stack:
// scheduler + medium + mobility + protocol + metrics.

#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "protocol/registry.hpp"

namespace frugal::core {
namespace {

ExperimentConfig small_rwp(std::uint64_t seed = 1) {
  ExperimentConfig config;
  config.node_count = 40;
  config.interest_fraction = 0.8;
  RandomWaypointSetup rwp;
  rwp.config.width_m = 1500;
  rwp.config.height_m = 1500;
  rwp.config.speed_min_mps = 10;
  rwp.config.speed_max_mps = 10;
  config.mobility = rwp;
  config.warmup = SimDuration::from_seconds(30);
  config.event_validity = SimDuration::from_seconds(60);
  config.seed = seed;
  return config;
}

ExperimentConfig small_city(std::uint64_t seed = 1) {
  ExperimentConfig config;
  config.node_count = 15;
  config.interest_fraction = 1.0;
  CitySetup city;
  config.mobility = city;
  net::MediumConfig medium;
  medium.range_m = 44.0;  // paper's city radio range
  config.medium = medium;
  config.warmup = SimDuration::from_seconds(10);
  config.event_validity = SimDuration::from_seconds(60);
  config.seed = seed;
  return config;
}

TEST(ExperimentTest, FlatWorkloadRecordsTopicsAndSubscriptions) {
  const RunResult result = run_experiment(small_rwp());
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].topic, topics::Topic::parse(".news.local"));
  for (const NodeOutcome& node : result.nodes) {
    EXPECT_EQ(node.subscriptions.empty(), !node.subscribed);
    if (node.subscribed) {
      EXPECT_TRUE(node.subscriptions.covers(result.events[0].topic));
    }
  }
}

TEST(ExperimentTest, TopicWorkloadDrawsHierarchicalInterests) {
  ExperimentConfig config = small_rwp();
  TopicHierarchyWorkload workload;
  workload.depth = 3;
  workload.branching = 3;
  workload.broad_fraction = 0.5;
  workload.subscriptions_per_node = 2;
  config.topic_workload = workload;
  config.event_count = 6;
  const RunResult result = run_experiment(config);

  ASSERT_EQ(result.events.size(), 6u);
  const topics::Topic root = topics::Topic::parse(".t");
  for (const PublishedEventRecord& event : result.events) {
    EXPECT_EQ(event.topic.depth(), 4u);  // ".t" + 3 hierarchy levels
    EXPECT_TRUE(root.covers(event.topic));
  }
  std::size_t broad = 0;
  std::size_t narrow = 0;
  for (const NodeOutcome& node : result.nodes) {
    if (!node.subscribed) {
      EXPECT_TRUE(node.subscriptions.empty());
      continue;
    }
    ASSERT_FALSE(node.subscriptions.empty());
    EXPECT_LE(node.subscriptions.size(), 2u);
    for (const topics::Topic& topic : node.subscriptions.topics()) {
      EXPECT_TRUE(root.covers(topic));
      if (topic.depth() == 2) {
        ++broad;
      } else {
        EXPECT_EQ(topic.depth(), 4u);
        ++narrow;
      }
    }
  }
  // With broad_fraction 0.5 and 32 subscribers x 2 draws, both kinds occur.
  EXPECT_GT(broad, 0u);
  EXPECT_GT(narrow, 0u);
  const double reliability = result.reliability();
  EXPECT_GE(reliability, 0.0);
  EXPECT_LE(reliability, 1.0);
}

TEST(ExperimentTest, TopicWorkloadIsDeterministicInSeed) {
  ExperimentConfig config = small_rwp(11);
  TopicHierarchyWorkload workload;
  workload.zipf_s = 1.2;
  config.topic_workload = workload;
  config.event_count = 4;
  const RunResult a = run_experiment(config);
  const RunResult b = run_experiment(config);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t e = 0; e < a.events.size(); ++e) {
    EXPECT_EQ(a.events[e].topic, b.events[e].topic);
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].subscriptions, b.nodes[i].subscriptions);
    EXPECT_EQ(a.nodes[i].traffic.bytes_sent, b.nodes[i].traffic.bytes_sent);
  }
  EXPECT_DOUBLE_EQ(a.reliability(), b.reliability());
}

TEST(ExperimentTest, BroadOnlyMixMatchesFlatEligibility) {
  // broad_fraction 1 with depth 1 means every subscriber holds a depth-1
  // branch: every event (published on a depth-1 "leaf" of the same level)
  // is eligible exactly for the subscribers holding its branch.
  ExperimentConfig config = small_rwp();
  TopicHierarchyWorkload workload;
  workload.depth = 1;
  workload.branching = 2;
  workload.broad_fraction = 1.0;
  config.topic_workload = workload;
  config.event_count = 4;
  const RunResult result = run_experiment(config);
  for (const NodeOutcome& node : result.nodes) {
    if (!node.subscribed) continue;
    for (const topics::Topic& topic : node.subscriptions.topics()) {
      EXPECT_EQ(topic.depth(), 2u);  // ".t.bX"
    }
  }
  const double reliability = result.reliability();
  EXPECT_GE(reliability, 0.0);
  EXPECT_LE(reliability, 1.0);
}

TEST(ExperimentTest, FrugalRwpDisseminates) {
  const RunResult result = run_experiment(small_rwp());
  EXPECT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.nodes.size(), 40u);
  EXPECT_EQ(result.subscriber_count(), 32u);
  EXPECT_GT(result.reliability(), 0.5);
  EXPECT_GT(result.mean_bytes_sent_per_node(), 0.0);
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  const RunResult a = run_experiment(small_rwp(5));
  const RunResult b = run_experiment(small_rwp(5));
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_EQ(a.publisher, b.publisher);
  EXPECT_DOUBLE_EQ(a.reliability(), b.reliability());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].traffic.bytes_sent, b.nodes[i].traffic.bytes_sent);
    EXPECT_EQ(a.nodes[i].duplicates, b.nodes[i].duplicates);
    EXPECT_EQ(a.nodes[i].delivered_at[0], b.nodes[i].delivered_at[0]);
  }
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  const RunResult a = run_experiment(small_rwp(1));
  const RunResult b = run_experiment(small_rwp(2));
  bool any_difference = a.publisher != b.publisher;
  for (std::size_t i = 0; i < a.nodes.size() && !any_difference; ++i) {
    any_difference = a.nodes[i].traffic.bytes_sent !=
                     b.nodes[i].traffic.bytes_sent;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ExperimentTest, PublisherIsCountedAsDelivered) {
  const RunResult result = run_experiment(small_rwp());
  const NodeOutcome& publisher = result.nodes[result.publisher];
  EXPECT_TRUE(publisher.subscribed);
  ASSERT_TRUE(publisher.delivered_at[0].has_value());
  EXPECT_EQ(*publisher.delivered_at[0], result.events[0].published_at);
}

TEST(ExperimentTest, ReliabilityMonotoneInProbeValidity) {
  const RunResult result = run_experiment(small_rwp());
  double previous = 0.0;
  for (int v = 10; v <= 60; v += 10) {
    const double r =
        result.reliability_within(SimDuration::from_seconds(v));
    EXPECT_GE(r, previous);
    previous = r;
  }
  EXPECT_DOUBLE_EQ(result.reliability(),
                   result.reliability_within(SimDuration::from_seconds(60)));
}

TEST(ExperimentTest, OnlySubscribersDeliver) {
  const RunResult result = run_experiment(small_rwp());
  for (const NodeOutcome& node : result.nodes) {
    if (!node.subscribed) {
      EXPECT_FALSE(node.delivered_at[0].has_value());
    }
  }
}

TEST(ExperimentTest, DeliveriesWithinEventLifetime) {
  const RunResult result = run_experiment(small_rwp());
  const SimTime published = result.events[0].published_at;
  const SimTime expiry = published + result.events[0].validity;
  for (const NodeOutcome& node : result.nodes) {
    if (node.delivered_at[0].has_value()) {
      EXPECT_GE(*node.delivered_at[0], published);
      EXPECT_LE(*node.delivered_at[0], expiry);
    }
  }
}

TEST(ExperimentTest, StaticNodesStillReachNeighbors) {
  ExperimentConfig config = small_rwp();
  config.mobility = StaticSetup{800, 800};  // dense enough to be connected
  config.node_count = 30;
  const RunResult result = run_experiment(config);
  EXPECT_GT(result.reliability(), 0.3);
}

TEST(ExperimentTest, SparseStaticNetworkIsUnreliable) {
  ExperimentConfig config = small_rwp();
  config.mobility = StaticSetup{20000, 20000};  // hopeless sparsity
  const RunResult result = run_experiment(config);
  EXPECT_LT(result.reliability(), 0.3);
}

TEST(ExperimentTest, MobilityImprovesOverStaticSparse) {
  // The paper's core claim: mobility is exploited for dissemination.
  ExperimentConfig sparse_static = small_rwp();
  sparse_static.mobility = StaticSetup{3000, 3000};
  sparse_static.event_validity = SimDuration::from_seconds(120);

  ExperimentConfig sparse_mobile = small_rwp();
  RandomWaypointSetup rwp;
  rwp.config.width_m = 3000;
  rwp.config.height_m = 3000;
  rwp.config.speed_min_mps = 20;
  rwp.config.speed_max_mps = 20;
  sparse_mobile.mobility = rwp;
  sparse_mobile.event_validity = SimDuration::from_seconds(120);

  double static_total = 0;
  double mobile_total = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sparse_static.seed = seed;
    sparse_mobile.seed = seed;
    static_total += run_experiment(sparse_static).reliability();
    mobile_total += run_experiment(sparse_mobile).reliability();
  }
  EXPECT_GT(mobile_total, static_total);
}

TEST(ExperimentTest, CitySectionRuns) {
  const RunResult result = run_experiment(small_city());
  EXPECT_EQ(result.nodes.size(), 15u);
  EXPECT_EQ(result.subscriber_count(), 15u);
  EXPECT_GT(result.reliability(), 0.0);
}

TEST(ExperimentTest, ExplicitPublisherIsUsed) {
  ExperimentConfig config = small_city();
  config.publisher = 7;
  const RunResult result = run_experiment(config);
  EXPECT_EQ(result.publisher, 7u);
  ASSERT_TRUE(result.nodes[7].delivered_at[0].has_value());
}

TEST(ExperimentTest, NonSubscribedPublisherStillDisseminates) {
  ExperimentConfig config = small_rwp();
  config.interest_fraction = 0.5;
  // Find a non-subscriber deterministically: run once, pick one, re-run.
  const RunResult probe = run_experiment(config);
  NodeId outsider = kInvalidNode;
  for (NodeId id = 0; id < probe.nodes.size(); ++id) {
    if (!probe.nodes[id].subscribed) {
      outsider = id;
      break;
    }
  }
  ASSERT_NE(outsider, kInvalidNode);
  config.publisher = outsider;
  const RunResult result = run_experiment(config);
  EXPECT_GT(result.reliability(), 0.2);
  // Its own event is off-topic for it: no delivery to the publisher.
  EXPECT_FALSE(result.nodes[outsider].delivered_at[0].has_value());
}

TEST(ExperimentTest, MultipleEventsAllTracked) {
  ExperimentConfig config = small_rwp();
  config.event_count = 5;
  const RunResult result = run_experiment(config);
  ASSERT_EQ(result.events.size(), 5u);
  for (std::size_t e = 0; e < 5; ++e) {
    EXPECT_EQ(result.events[e].id.seq, e);
    EXPECT_EQ(result.events[e].id.publisher, result.publisher);
  }
  EXPECT_GT(result.reliability(), 0.5);
}

TEST(ExperimentTest, AllProtocolsComplete) {
  // Every registered protocol — paper baselines and adaptive variants alike
  // — must drive a run to completion through the registry factory path.
  protocol::register_builtin_protocols();
  for (const protocol::ProtocolSpec* spec : protocol::all_protocols()) {
    ExperimentConfig config = small_rwp();
    config.node_count = 20;
    config.protocol = spec->name;
    const RunResult result = run_experiment(config);
    EXPECT_GE(result.reliability(), 0.0) << spec->name;
    EXPECT_GT(result.mean_bytes_sent_per_node(), 0.0) << spec->name;
  }
}

TEST(ExperimentTest, FrugalUsesLessBandwidthThanSimpleFlooding) {
  ExperimentConfig config = small_rwp();
  config.event_count = 5;
  config.publish_spacing = SimDuration::from_seconds(1);
  const RunResult frugal = run_experiment(config);
  config.protocol = "simple-flooding";
  const RunResult flooding = run_experiment(config);
  EXPECT_LT(frugal.mean_bytes_sent_per_node(),
            flooding.mean_bytes_sent_per_node());
  EXPECT_LT(frugal.mean_events_sent_per_node(),
            flooding.mean_events_sent_per_node());
  EXPECT_LT(frugal.mean_duplicates_per_node(),
            flooding.mean_duplicates_per_node());
}

TEST(ExperimentTest, InterestZeroMeansNoSubscribers) {
  ExperimentConfig config = small_rwp();
  config.interest_fraction = 0.0;
  config.publisher = 0;
  const RunResult result = run_experiment(config);
  EXPECT_EQ(result.subscriber_count(), 0u);
  EXPECT_EQ(result.reliability(), 0.0);
}

// Property sweep across seeds: protocol-level invariants that must hold for
// every run regardless of topology randomness.
class ExperimentInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExperimentInvariants, FrugalRunInvariants) {
  ExperimentConfig config = small_rwp(GetParam());
  config.node_count = 25;
  const RunResult result = run_experiment(config);

  std::size_t delivered = 0;
  for (const NodeOutcome& node : result.nodes) {
    // 1. Deliveries only at subscribers.
    if (!node.subscribed) {
      ASSERT_FALSE(node.delivered_at[0].has_value());
    }
    // 2. Delivery times inside [publish, expiry].
    if (node.delivered_at[0].has_value()) {
      ++delivered;
      ASSERT_GE(*node.delivered_at[0], result.events[0].published_at);
      ASSERT_LE(*node.delivered_at[0],
                result.events[0].published_at + result.events[0].validity);
    }
  }
  // 3. Reliability equals delivered / subscribers.
  EXPECT_NEAR(result.reliability(),
              static_cast<double>(delivered) /
                  static_cast<double>(result.subscriber_count()),
              1e-12);
  // 4. The publisher (a subscriber here) always has its own event.
  EXPECT_TRUE(result.nodes[result.publisher].delivered_at[0].has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExperimentInvariants,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace frugal::core
