#include "core/frugal_node.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mobility/static_mobility.hpp"
#include "net/medium.hpp"
#include "sim/scheduler.hpp"

namespace frugal::core {
namespace {

using namespace frugal::time_literals;
using topics::Topic;

/// A small wireless world of FrugalNodes on a static topology.
struct World {
  explicit World(std::vector<Vec2> positions, FrugalConfig config = fast())
      : mobility{std::move(positions)},
        medium{scheduler, mobility, radio(), Rng{7}} {
    for (NodeId id = 0; id < mobility.node_count(); ++id) {
      nodes.push_back(std::make_unique<FrugalNode>(id, scheduler, medium,
                                                   config, nullptr));
    }
  }

  static FrugalConfig fast() {
    FrugalConfig config;
    config.hb_upper = SimDuration::from_seconds(1.0);
    return config;
  }

  static net::MediumConfig radio() {
    net::MediumConfig config;
    config.range_m = 100.0;
    config.max_jitter = SimDuration::from_ms(2);
    return config;
  }

  FrugalNode& node(NodeId id) { return *nodes[id]; }

  void run_for(SimDuration d) { scheduler.run_until(scheduler.now() + d); }

  Event make_event(const char* topic, double validity_s = 300.0) {
    Event e;
    e.topic = Topic::parse(topic);
    e.validity = SimDuration::from_seconds(validity_s);
    return e;
  }

  sim::Scheduler scheduler;
  mobility::StaticMobility mobility;
  net::Medium medium;
  std::vector<std::unique_ptr<FrugalNode>> nodes;
};

// -- subscription lifecycle (Fig. 5) -----------------------------------------

TEST(FrugalNodeTest, SubscribeStartsTasks) {
  World w{{{0, 0}}};
  EXPECT_FALSE(w.node(0).heartbeat_running());
  w.node(0).subscribe(Topic::parse(".a"));
  EXPECT_TRUE(w.node(0).heartbeat_running());
}

TEST(FrugalNodeTest, UnsubscribeLastTopicStopsTasks) {
  World w{{{0, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(0).subscribe(Topic::parse(".b"));
  w.node(0).unsubscribe(Topic::parse(".a"));
  EXPECT_TRUE(w.node(0).heartbeat_running());
  w.node(0).unsubscribe(Topic::parse(".b"));
  EXPECT_FALSE(w.node(0).heartbeat_running());
}

TEST(FrugalNodeTest, ResubscribeAfterFullUnsubscribeRestartsMachinery) {
  // Regression: a process that unsubscribes its last topic and later
  // subscribes again must come back fully — heartbeats, neighborhood GC and
  // the retrieve path all restart, so events published after the
  // re-subscription reach it.
  World w{{{0, 0}, {50, 0}}};
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(1).unsubscribe(Topic::parse(".a"));
  EXPECT_FALSE(w.node(1).heartbeat_running());
  w.run_for(3_sec);  // fully quiesced while unsubscribed
  w.node(1).subscribe(Topic::parse(".a"));
  EXPECT_TRUE(w.node(1).heartbeat_running());
  w.run_for(3_sec);  // let the revived heartbeats rebuild the neighborhood
  w.node(0).publish(w.make_event(".a.x"));
  w.run_for(5_sec);
  EXPECT_EQ(w.node(1).metrics().deliveries.size(), 1u);
}

TEST(FrugalNodeTest, DuplicateSubscribeIsIdempotent) {
  // Subscriptions are a set: subscribing the same topic twice needs no
  // matching second unsubscribe, and one unsubscribe winds the tasks down.
  World w{{{0, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(0).subscribe(Topic::parse(".a"));
  EXPECT_TRUE(w.node(0).heartbeat_running());
  w.node(0).unsubscribe(Topic::parse(".a"));
  EXPECT_FALSE(w.node(0).heartbeat_running());
}

TEST(FrugalNodeTest, SpuriousUnsubscribeLeavesPublisherMachineryArmed) {
  // Regression: unsubscribing a topic that was never subscribed used to
  // fall through into the empty-subscriptions teardown and cancel a pure
  // publisher's armed back-off — silently killing its dissemination.
  World w{{{0, 0}, {50, 0}}};
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(0).publish(w.make_event(".a.x"));
  for (int step = 0; step < 300 && !w.node(0).backoff_pending(); ++step) {
    w.run_for(10_ms);
  }
  ASSERT_TRUE(w.node(0).backoff_pending());
  w.node(0).unsubscribe(Topic::parse(".never.subscribed"));
  EXPECT_TRUE(w.node(0).backoff_pending());
  w.run_for(10_sec);
  EXPECT_EQ(w.node(1).metrics().deliveries.size(), 1u);
}

TEST(FrugalNodeTest, UnsubscribeCancelsPendingRetrieve) {
  // Regression: with id exchange off, a freshly admitted neighbor arms the
  // deferred RETRIEVEEVENTSTOSEND. Unsubscribing the last topic must cancel
  // it — a fully-unsubscribed process may not broadcast bundles later.
  FrugalConfig config = World::fast();
  config.exchange_event_ids = false;
  World w{{{0, 0}, {50, 0}}, config};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(0).publish(w.make_event(".a.x"));
  // Step until node 0 admits node 1 and defers the retrieve.
  for (int step = 0; step < 300 && !w.node(0).retrieve_pending(); ++step) {
    w.run_for(10_ms);
  }
  ASSERT_TRUE(w.node(0).retrieve_pending());
  w.node(0).unsubscribe(Topic::parse(".a"));
  EXPECT_FALSE(w.node(0).retrieve_pending());
  EXPECT_FALSE(w.node(0).backoff_pending());
  w.run_for(10_sec);
  EXPECT_EQ(w.node(0).metrics().events_sent, 0u);
  EXPECT_TRUE(w.node(1).metrics().deliveries.empty());
}

TEST(FrugalNodeTest, UnsubscribeCancelsArmedBackoff) {
  // Regression: an armed back-off timer survived full unsubscription and
  // still sent the bundle when it expired.
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(0).publish(w.make_event(".a.x"));
  // The id exchange triggers retrieve; catch the 0.5 s back-off window.
  for (int step = 0; step < 300 && !w.node(0).backoff_pending(); ++step) {
    w.run_for(10_ms);
  }
  ASSERT_TRUE(w.node(0).backoff_pending());
  w.node(0).unsubscribe(Topic::parse(".a"));
  EXPECT_FALSE(w.node(0).backoff_pending());
  EXPECT_FALSE(w.node(0).retrieve_pending());
  EXPECT_FALSE(w.node(0).heartbeat_running());
  w.run_for(10_sec);
  EXPECT_EQ(w.node(0).metrics().events_sent, 0u);
  EXPECT_TRUE(w.node(1).metrics().deliveries.empty());
}

TEST(FrugalNodeTest, RejectedNewcomerDoesNotDisturbPendingSend) {
  // Under memory pressure the GC would reject an incoming event that is
  // the strictly worst candidate (expired on arrival). Such an event is
  // neither delivered nor stored — and its receipt must NOT cancel an armed
  // back-off: repeated receipts of a stale copy would otherwise defer a
  // pending transmission indefinitely.
  FrugalConfig config = World::fast();
  config.event_table_capacity = 1;
  World w{{{0, 0}, {500, 0}, {60, 0}}, config};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  // Node 2 never subscribes; it only sources crafted bundles.
  const auto inject = [&](EventId id, const char* topic, SimTime published,
                          double validity_s) {
    Event e;
    e.id = id;
    e.topic = Topic::parse(topic);
    e.published_at = published;
    e.validity = SimDuration::from_seconds(validity_s);
    EventBundle bundle;
    bundle.sender = 2;
    bundle.events = {std::move(e)};
    const Message message{std::move(bundle)};
    w.medium.broadcast(2, wire_size(message),
                       std::make_shared<const Message>(message));
  };

  // Node 0 (in range of node 2) stores event A; node 1 is still far away.
  inject(EventId{2, 5}, ".a.x", SimTime::zero(), 300.0);
  w.run_for(1_sec);
  ASSERT_TRUE(w.node(0).events().contains(EventId{2, 5}));
  ASSERT_FALSE(w.node(1).events().contains(EventId{2, 5}));

  // Node 1 arrives lacking A: node 0 arms the back-off to send it.
  w.mobility.move_node(1, {50, 0});
  for (int step = 0; step < 500 && !w.node(0).backoff_pending(); ++step) {
    w.run_for(10_ms);
  }
  ASSERT_TRUE(w.node(0).backoff_pending());

  // Event B was published at t=0 with a 1 s validity: expired on arrival,
  // it is dropped — not delivered, not stored, back-off untouched.
  inject(EventId{1, 0}, ".a.y", SimTime::zero(), 1.0);
  w.run_for(50_ms);
  EXPECT_TRUE(w.node(0).backoff_pending());
  EXPECT_EQ(w.node(0).metrics().deliveries.count(EventId{1, 0}), 0u);
  EXPECT_TRUE(w.node(0).events().contains(EventId{2, 5}));
  EXPECT_FALSE(w.node(0).events().contains(EventId{1, 0}));

  // The pending send still goes through: node 1 receives A.
  w.run_for(5_sec);
  EXPECT_EQ(w.node(1).metrics().deliveries.count(EventId{2, 5}), 1u);
}

TEST(FrugalNodeTest, HeartbeatsAreSentPeriodically) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.run_for(10_sec);
  // ~10 heartbeats of 50 bytes each (plus the initial phase offset).
  const auto& counters = w.medium.counters(0);
  EXPECT_GE(counters.frames_sent, 9u);
  EXPECT_LE(counters.frames_sent, 12u);
  EXPECT_EQ(counters.bytes_sent, counters.frames_sent * kHeartbeatWireBytes);
}

// -- neighborhood detection (Fig. 6) ------------------------------------------

TEST(FrugalNodeTest, MatchingSubscriptionsBuildNeighborhood) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a.b"));  // overlaps via hierarchy
  w.run_for(3_sec);
  EXPECT_TRUE(w.node(0).neighborhood().contains(1));
  EXPECT_TRUE(w.node(1).neighborhood().contains(0));
}

TEST(FrugalNodeTest, DisjointInterestsAreNotNeighbors) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".b"));
  w.run_for(5_sec);
  EXPECT_FALSE(w.node(0).neighborhood().contains(1));
  EXPECT_FALSE(w.node(1).neighborhood().contains(0));
}

TEST(FrugalNodeTest, OutOfRangeNodesAreNotNeighbors) {
  World w{{{0, 0}, {500, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.run_for(5_sec);
  EXPECT_FALSE(w.node(0).neighborhood().contains(1));
}

TEST(FrugalNodeTest, NeighborhoodGcEvictsDepartedNeighbor) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.run_for(3_sec);
  ASSERT_TRUE(w.node(0).neighborhood().contains(1));
  w.mobility.move_node(1, {5000, 0});
  // NGCDelay = 1 s * 2.5; give it a few periods.
  w.run_for(10_sec);
  EXPECT_FALSE(w.node(0).neighborhood().contains(1));
}

// -- dissemination (Figs. 7 and 9) --------------------------------------------

TEST(FrugalNodeTest, PublishReachesInterestedNeighbor) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.run_for(3_sec);  // let them meet
  w.node(0).publish(w.make_event(".a.x"));
  w.run_for(2_sec);
  EXPECT_EQ(w.node(1).metrics().deliveries.size(), 1u);
  EXPECT_EQ(w.node(0).metrics().deliveries.size(), 1u);  // own delivery
}

TEST(FrugalNodeTest, PublishBeforeMeetingIsDeliveredOnEncounter) {
  World w{{{0, 0}, {500, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(0).publish(w.make_event(".a.x"));
  w.run_for(2_sec);
  EXPECT_TRUE(w.node(1).metrics().deliveries.empty());
  w.mobility.move_node(1, {50, 0});
  w.run_for(5_sec);
  EXPECT_EQ(w.node(1).metrics().deliveries.size(), 1u);
}

TEST(FrugalNodeTest, ParasiteEventsAreDroppedNotStored) {
  World w{{{0, 0}, {50, 0}, {60, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(2).subscribe(Topic::parse(".zzz"));  // will only overhear
  w.run_for(3_sec);
  w.node(0).publish(w.make_event(".a.x"));
  w.run_for(3_sec);
  EXPECT_TRUE(w.node(2).metrics().deliveries.empty());
  EXPECT_EQ(w.node(2).events().size(), 0u);
  EXPECT_GE(w.node(2).metrics().parasites, 1u);
}

TEST(FrugalNodeTest, SubtopicEventReachesSupertopicSubscriber) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".conf.mw.demo"));
  w.node(1).subscribe(Topic::parse(".conf"));
  w.run_for(3_sec);
  w.node(0).publish(w.make_event(".conf.mw.demo"));
  w.run_for(3_sec);
  EXPECT_EQ(w.node(1).metrics().deliveries.size(), 1u);
}

TEST(FrugalNodeTest, SupertopicSubscriberDoesNotLeakToSibling) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".conf.mw"));
  w.node(1).subscribe(Topic::parse(".conf.icse"));  // sibling branch
  w.run_for(3_sec);
  w.node(0).publish(w.make_event(".conf.mw.x"));
  w.run_for(3_sec);
  EXPECT_TRUE(w.node(1).metrics().deliveries.empty());
}

TEST(FrugalNodeTest, StoredEventTransfersViaIdExchange) {
  // Node 0 holds an event; node 1 arrives later -> the id exchange detects
  // the gap and the event flows (paper Fig. 1, part I).
  World w{{{0, 0}, {500, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(0).publish(w.make_event(".a.x"));
  w.run_for(10_sec);
  w.mobility.move_node(1, {50, 0});
  w.run_for(5_sec);
  EXPECT_EQ(w.node(1).metrics().deliveries.size(), 1u);
  // And node 0 now believes node 1 knows the event.
  EXPECT_TRUE(w.node(0).neighborhood().neighbor_knows(1, EventId{0, 0}));
}

TEST(FrugalNodeTest, NoRetransmissionWhenEveryoneKnows) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.run_for(3_sec);
  w.node(0).publish(w.make_event(".a.x"));
  w.run_for(5_sec);
  const std::uint64_t sent_after_dissemination =
      w.node(0).metrics().events_sent + w.node(1).metrics().events_sent;
  w.run_for(30_sec);
  const std::uint64_t sent_later =
      w.node(0).metrics().events_sent + w.node(1).metrics().events_sent;
  EXPECT_EQ(sent_later, sent_after_dissemination)
      << "events kept being retransmitted although all neighbors know them";
}

TEST(FrugalNodeTest, ExpiredEventIsNotDisseminated) {
  World w{{{0, 0}, {500, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(0).publish(w.make_event(".a.x", /*validity_s=*/5.0));
  w.run_for(10_sec);  // validity lapses while apart
  w.mobility.move_node(1, {50, 0});
  w.run_for(10_sec);
  EXPECT_TRUE(w.node(1).metrics().deliveries.empty());
}

// A bundle whose event expired while the frame was on air: neither stored
// nor delivered, also when a full table would have rejected the newcomer.
TEST(FrugalNodeTest, EventExpiredInFlightIsNotDelivered) {
  for (const std::size_t capacity : {std::size_t{4096}, std::size_t{1}}) {
    FrugalConfig config = World::fast();
    config.event_table_capacity = capacity;
    World w{{{0, 0}, {50, 0}}, config};
    w.node(1).subscribe(Topic::parse(".a"));
    w.node(0).subscribe(Topic::parse(".a"));
    w.node(0).publish(w.make_event(".a.x"));  // fills node 1's table
    w.run_for(10_sec);
    ASSERT_EQ(w.node(1).metrics().deliveries.size(), 1u);

    Event expired = w.make_event(".a.y", /*validity_s=*/5.0);
    expired.id = EventId{0, 7};
    expired.published_at = SimTime::zero();  // expired at 5 s, now is 10 s
    EventBundle bundle;
    bundle.sender = 0;
    bundle.events = {expired};
    w.node(1).on_frame(net::Frame{
        0, 100, std::make_shared<const Message>(Message{std::move(bundle)}),
        0});
    EXPECT_FALSE(w.node(1).metrics().delivered(expired.id)) << capacity;
    EXPECT_FALSE(w.node(1).events().contains(expired.id)) << capacity;
    EXPECT_EQ(w.node(1).metrics().gc_evictions, 0u) << capacity;
  }
}

TEST(FrugalNodeTest, PublisherDeliversOnlyEventsOfItsOwnTopics) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".b"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(0).publish(w.make_event(".a.x"));  // off-topic for its publisher
  w.node(1).publish(w.make_event(".a.y"));  // on-topic for its publisher
  w.run_for(5_sec);
  EXPECT_FALSE(w.node(0).metrics().delivered(EventId{0, 0}));
  EXPECT_TRUE(w.node(1).metrics().delivered(EventId{0, 0}));
  EXPECT_TRUE(w.node(1).metrics().delivered(EventId{1, 0}));
}

TEST(FrugalNodeTest, DeliveryCallbackFires) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  struct Seen final : RunObserver {
    void on_delivery(NodeId node, const Event& e, SimTime) override {
      EXPECT_EQ(node, 1u);
      ++calls;
      seen = e;
    }
    int calls = 0;
    Event seen;
  } observer;
  w.node(1).set_observer(&observer);
  int& calls = observer.calls;
  Event& seen = observer.seen;
  w.run_for(3_sec);
  Event e = w.make_event(".a.x");
  e.payload = "hello";
  w.node(0).publish(e);
  w.run_for(3_sec);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.payload, "hello");
  EXPECT_EQ(seen.id, (EventId{0, 0}));
}

TEST(FrugalNodeTest, PurePublisherDisseminatesWithoutSubscribing) {
  World w{{{0, 0}, {50, 0}}};
  // Node 0 publishes on .a but subscribes to nothing.
  w.node(1).subscribe(Topic::parse(".a"));
  w.node(0).publish(w.make_event(".a.x"));
  w.run_for(5_sec);
  EXPECT_EQ(w.node(1).metrics().deliveries.size(), 1u);
}

TEST(FrugalNodeTest, RelayAcrossPartition) {
  // 0 -- 1 in range; 2 out of range of 0 but reachable by 1 later: the
  // event must hop 0 -> 1 -> 2 although 0 and 2 never meet (store & forward).
  World w{{{0, 0}, {80, 0}, {1000, 0}}};
  for (NodeId id = 0; id < 3; ++id) {
    w.node(id).subscribe(Topic::parse(".a"));
  }
  w.node(0).publish(w.make_event(".a.x"));
  w.run_for(5_sec);
  ASSERT_EQ(w.node(1).metrics().deliveries.size(), 1u);
  w.mobility.move_node(1, {950, 0});  // now neighbor of 2 only
  w.run_for(6_sec);
  EXPECT_EQ(w.node(2).metrics().deliveries.size(), 1u);
}

TEST(FrugalNodeTest, BackoffShorterWithMoreEvents) {
  FrugalConfig config = World::fast();
  World w{{{0, 0}}, config};
  // BODelay = HBDelay / (HB2BO * n): strictly decreasing in n.
  // (Validated through the config surface; the delay computation is pure.)
  const SimDuration one = config.hb_upper / (config.hb2bo * 1.0);
  const SimDuration five = config.hb_upper / (config.hb2bo * 5.0);
  EXPECT_LT(five, one);
  EXPECT_EQ(one, SimDuration::from_ms(500));
  EXPECT_EQ(five, SimDuration::from_ms(100));
}

TEST(FrugalNodeTest, DuplicateReceptionsAreCountedNotRedelivered) {
  // Two senders both hold the event and a common fresh receiver: at most one
  // delivery, extras counted as duplicates.
  World w{{{0, 0}, {60, 0}, {30, 50}}};
  for (NodeId id = 0; id < 3; ++id) w.node(id).subscribe(Topic::parse(".a"));
  w.run_for(3_sec);
  w.node(0).publish(w.make_event(".a.x"));
  w.run_for(30_sec);
  EXPECT_EQ(w.node(1).metrics().deliveries.size(), 1u);
  EXPECT_EQ(w.node(2).metrics().deliveries.size(), 1u);
}

// -- adaptive heartbeat (Fig. 8) ----------------------------------------------

TEST(FrugalNodeTest, HeartbeatDelayClampedToUpperBound) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  w.run_for(3_sec);
  // Static neighbors advertise no speed (speed provider is null), so the
  // delay stays at the clamped default = hb_upper.
  EXPECT_EQ(w.node(0).hb_delay(), World::fast().hb_upper);
  EXPECT_EQ(w.node(0).ngc_delay(), World::fast().hb_upper * 2.5);
}

TEST(FrugalNodeTest, AdaptiveHeartbeatUsesAdvertisedSpeed) {
  // Speed providers make heartbeats carry speed; x / avgSpeed with x=40 and
  // speed 80 -> 0.5 s, within [lower, upper] -> adopted.
  sim::Scheduler scheduler;
  mobility::StaticMobility mobility{{{0, 0}, {50, 0}}};
  net::Medium medium{scheduler, mobility, World::radio(), Rng{7}};
  FrugalConfig config = World::fast();
  config.hb_upper = SimDuration::from_seconds(1.0);
  config.hb_lower = SimDuration::from_ms(100);
  FrugalNode fast_node{0, scheduler, medium, config, [] { return 80.0; }};
  FrugalNode observer{1, scheduler, medium, config, [] { return 80.0; }};
  fast_node.subscribe(Topic::parse(".a"));
  observer.subscribe(Topic::parse(".a"));
  scheduler.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(observer.hb_delay(), SimDuration::from_ms(500));
  EXPECT_EQ(observer.ngc_delay(), SimDuration::from_ms(1250));
}

TEST(FrugalNodeTest, NonAdaptiveAblationPinsDelay) {
  sim::Scheduler scheduler;
  mobility::StaticMobility mobility{{{0, 0}, {50, 0}}};
  net::Medium medium{scheduler, mobility, World::radio(), Rng{7}};
  FrugalConfig config = World::fast();
  config.adaptive_heartbeat = false;
  FrugalNode a{0, scheduler, medium, config, [] { return 80.0; }};
  FrugalNode b{1, scheduler, medium, config, [] { return 80.0; }};
  a.subscribe(Topic::parse(".a"));
  b.subscribe(Topic::parse(".a"));
  scheduler.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(a.hb_delay(), config.hb_upper);
}

// -- garbage collection under memory pressure ---------------------------------

TEST(FrugalNodeTest, EventTableRespectsCapacity) {
  FrugalConfig config = World::fast();
  config.event_table_capacity = 3;
  World w{{{0, 0}}, config};
  w.node(0).subscribe(Topic::parse(".a"));
  for (int i = 0; i < 10; ++i) {
    w.node(0).publish(w.make_event(".a.x"));
    w.run_for(100_ms);
  }
  EXPECT_EQ(w.node(0).events().size(), 3u);
  EXPECT_EQ(w.node(0).metrics().deliveries.size(), 10u);
}

// -- wire-level robustness ----------------------------------------------------

TEST(FrugalNodeTest, IgnoresForeignPayloads) {
  World w{{{0, 0}, {50, 0}}};
  w.node(0).subscribe(Topic::parse(".a"));
  w.node(1).subscribe(Topic::parse(".a"));
  // A non-protocol frame on the same channel must be ignored, not crash.
  w.medium.broadcast(1, 32, std::string{"alien traffic"});
  w.run_for(2_sec);
  EXPECT_TRUE(w.node(0).metrics().deliveries.empty());
}

}  // namespace
}  // namespace frugal::core
