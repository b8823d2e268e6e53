// Conservation properties of the broadcast medium's traffic accounting —
// the contract the energy model's airtime hook stands on. For random small
// worlds: every byte a receiver counts is attributable to a byte some
// sender counted, every reception the radio locked onto resolves exactly
// once (delivered, collided, or voided by a mid-frame power-down), every
// skipped reception is counted exactly once under its reason (down /
// transmitting / asleep), and every frame issued from an up radio ends up
// exactly once in frames_sent or frames_dropped (max_defers exhaustion, or
// a crash / battery death while the frame was queued).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "mobility/static_mobility.hpp"
#include "net/medium.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace frugal::net {
namespace {

struct Segment {
  NodeId node;
  SimTime start;
  SimTime end;
};

/// Records every airtime segment the medium reports, plus the sender's
/// in-range audience at transmission start (the accountability baseline).
class RecordingListener final : public MediumObserver {
 public:
  explicit RecordingListener(const Medium& medium) : medium_{medium} {}

  void on_tx(NodeId sender, SimTime start, SimTime end) override {
    tx.push_back({sender, start, end});
    audience += medium_.nodes_in_range(sender).size();
  }
  void on_rx(NodeId receiver, SimTime start, SimTime end) override {
    rx.push_back({receiver, start, end});
  }
  std::vector<Segment> tx;
  std::vector<Segment> rx;
  std::size_t audience = 0;  ///< sum over tx of up in-range nodes

 private:
  const Medium& medium_;
};

class CountingSink final : public MediumClient {
 public:
  void on_frame(const Frame&) override { ++frames; }
  std::uint64_t frames = 0;
};

constexpr std::uint32_t kFrameBytes = 125;  // 1 ms at 1 Mbps

struct World {
  World(std::size_t node_count, double area_m, MediumConfig config,
        std::uint64_t seed, std::vector<NodeId> unattached = {})
      : mobility{random_positions(node_count, area_m, seed)},
        medium{scheduler, mobility, config, Rng{seed ^ 0xABCDu}},
        listener{medium} {
    sinks.resize(node_count);
    for (NodeId id = 0; id < node_count; ++id) {
      if (std::find(unattached.begin(), unattached.end(), id) !=
          unattached.end()) {
        continue;  // up, present, but no client: a radio nobody listens to
      }
      medium.attach(id, &sinks[id]);
    }
    medium.set_observer(&listener);
  }

  static std::vector<Vec2> random_positions(std::size_t count, double area_m,
                                            std::uint64_t seed) {
    Rng rng{seed};
    std::vector<Vec2> positions;
    positions.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      positions.push_back({rng.uniform(0, area_m), rng.uniform(0, area_m)});
    }
    return positions;
  }

  /// Issues `count` broadcasts from random senders at random times over
  /// `window_s` seconds and runs the world to quiescence. Returns the
  /// number of frames issued. By default senders that are down at issue
  /// time stay silent (the protocol layer checks is_up first); with
  /// `issue_while_down` they call broadcast anyway, exercising the
  /// issued-while-down => frames_dropped accounting path.
  std::size_t run_random_traffic(std::size_t count, double window_s,
                                 std::uint64_t seed,
                                 bool issue_while_down = false) {
    Rng rng{seed * 31 + 7};
    for (std::size_t i = 0; i < count; ++i) {
      const auto sender =
          static_cast<NodeId>(rng.uniform_u64(sinks.size()));
      const SimTime at = SimTime::from_seconds(rng.uniform(0, window_s));
      scheduler.schedule_at(at, [this, sender, issue_while_down] {
        if (!issue_while_down && !medium.is_up(sender)) return;
        ++issued;
        medium.broadcast(sender, kFrameBytes, 0);
      });
    }
    scheduler.run_until(SimTime::from_seconds(window_s + 30.0));
    scheduler.run_all();
    return issued;
  }
  std::size_t issued = 0;

  sim::Scheduler scheduler;
  mobility::StaticMobility mobility;
  Medium medium;
  RecordingListener listener;
  std::vector<CountingSink> sinks;
};

MediumConfig test_config() {
  MediumConfig config;
  config.range_m = 150.0;
  config.rate_bps = 1e6;
  config.max_jitter = SimDuration::from_ms(2);
  return config;
}

struct Totals {
  std::uint64_t sent = 0, bytes_sent = 0, delivered = 0, bytes_delivered = 0;
  std::uint64_t collided = 0, missed_busy = 0, missed_asleep = 0;
  std::uint64_t missed_down = 0, dropped = 0;
};

Totals totals_of(const Medium& medium) {
  Totals t;
  for (NodeId id = 0; id < medium.node_count(); ++id) {
    const TrafficCounters& c = medium.counters(id);
    t.sent += c.frames_sent;
    t.bytes_sent += c.bytes_sent;
    t.delivered += c.frames_delivered;
    t.bytes_delivered += c.bytes_delivered;
    t.collided += c.frames_collided;
    t.missed_busy += c.frames_missed_busy;
    t.missed_asleep += c.frames_missed_asleep;
    t.missed_down += c.frames_missed_down;
    t.dropped += c.frames_dropped;
  }
  return t;
}

void assert_conservation(World& world, std::size_t issued) {
  const Totals t = totals_of(world.medium);
  const RecordingListener& log = world.listener;

  // Every issued frame goes on air exactly once or is dropped exactly once.
  EXPECT_EQ(t.sent, log.tx.size());
  EXPECT_EQ(t.sent + t.dropped, issued);
  EXPECT_EQ(t.bytes_sent, kFrameBytes * t.sent);

  // Every reception the radios locked onto resolves exactly once: intact
  // (delivered to the client and counted in bytes), collided, or voided
  // by a power-down in mid-frame.
  EXPECT_EQ(t.delivered + t.collided + t.missed_down, log.rx.size());
  EXPECT_EQ(t.bytes_delivered, kFrameBytes * t.delivered);
  std::uint64_t client_frames = 0;
  for (const CountingSink& sink : world.sinks) client_frames += sink.frames;
  EXPECT_EQ(client_frames, t.delivered);

  // Accountability: each transmission's up in-range audience either locked
  // on (an rx segment) or was skipped for exactly one counted reason.
  EXPECT_EQ(log.audience, log.rx.size() + t.missed_busy + t.missed_asleep);

  // Attribution: every rx segment matches exactly one tx segment with the
  // same airtime, from a different node within radio range.
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<NodeId>> on_air;
  for (const Segment& tx : log.tx) {
    on_air[{tx.start.us(), tx.end.us()}].push_back(tx.node);
  }
  const double range_sq = world.medium.config().range_m *
                          world.medium.config().range_m;
  for (const Segment& rx : log.rx) {
    const auto it = on_air.find({rx.start.us(), rx.end.us()});
    ASSERT_NE(it, on_air.end()) << "reception without a transmission";
    bool attributed = false;
    for (const NodeId sender : it->second) {
      if (sender == rx.node) continue;
      const double d_sq = distance_sq(
          world.mobility.position(sender, rx.start),
          world.mobility.position(rx.node, rx.start));
      attributed |= d_sq <= range_sq;
    }
    EXPECT_TRUE(attributed) << "reception attributable to no sender in range";
  }
}

class ConservationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationSweep, RandomWorldBalances) {
  World world{10, 400.0, test_config(), GetParam()};
  const std::size_t issued = world.run_random_traffic(60, 2.0, GetParam());
  ASSERT_GT(issued, 0u);
  assert_conservation(world, issued);
  // Dense random traffic on a 1 Mbps channel: overlaps actually happened,
  // so the exactly-once properties were exercised, not vacuous.
  EXPECT_GT(totals_of(world.medium).delivered, 0u);
}

TEST_P(ConservationSweep, BalancesWithDownAndSleepingRadios) {
  World world{12, 400.0, test_config(), GetParam() * 131 + 1};
  world.medium.set_up(2, false);
  world.medium.set_up(7, false);
  world.medium.set_sleeping(4, true);
  world.medium.set_sleeping(9, true);
  const std::size_t issued =
      world.run_random_traffic(80, 2.0, GetParam() * 17 + 3);
  ASSERT_GT(issued, 0u);
  assert_conservation(world, issued);
  const Totals t = totals_of(world.medium);
  // The sleeping radios really missed traffic, counted exactly once each.
  EXPECT_GT(t.missed_asleep, 0u);
  EXPECT_EQ(world.medium.counters(2).frames_delivered, 0u);
  EXPECT_EQ(world.medium.counters(7).frames_delivered, 0u);
}

TEST_P(ConservationSweep, IssuesWhileDownCountAsDropped) {
  // Regression: broadcast from a down radio used to return without touching
  // frames_dropped, so sent + dropped undercounted the issues. Nodes 1 and
  // 5 stay down the whole run and every issue is pushed at the medium.
  World world{10, 400.0, test_config(), GetParam() * 53 + 9};
  world.medium.set_up(1, false);
  world.medium.set_up(5, false);
  const std::size_t issued = world.run_random_traffic(
      60, 2.0, GetParam() + 99, /*issue_while_down=*/true);
  ASSERT_GT(issued, 0u);
  assert_conservation(world, issued);
  EXPECT_GT(totals_of(world.medium).dropped, 0u);
  EXPECT_EQ(world.medium.counters(1).frames_sent, 0u);
  EXPECT_EQ(world.medium.counters(5).frames_sent, 0u);
}

TEST_P(ConservationSweep, BalancesWithUnattachedNodes) {
  // Regression: nodes 3 and 8 are up but never attached a client. They used
  // to inflate every nearby sender's advertised audience while the delivery
  // loop skipped them, silently breaking audience == rx + missed_busy +
  // missed_asleep; the unified receiver predicate keeps them out of both.
  World world{12, 400.0, test_config(), GetParam() * 211 + 13,
              /*unattached=*/{3, 8}};
  const std::size_t issued =
      world.run_random_traffic(80, 2.0, GetParam() * 5 + 1);
  ASSERT_GT(issued, 0u);
  assert_conservation(world, issued);
  EXPECT_EQ(world.medium.counters(3).frames_delivered, 0u);
  EXPECT_EQ(world.medium.counters(8).frames_delivered, 0u);
}

TEST_P(ConservationSweep, SaturationDropsAreCountedExactlyOnce) {
  // A 8 kbps channel with bursty traffic: frames defer, some exhaust
  // max_defers. sent + dropped must still account for every issue.
  MediumConfig config = test_config();
  config.rate_bps = 8000.0;  // 125 ms per frame
  config.max_defers = 3;
  World world{8, 200.0, config, GetParam() * 7 + 11};
  const std::size_t issued =
      world.run_random_traffic(120, 1.0, GetParam() + 42);
  ASSERT_GT(issued, 0u);
  assert_conservation(world, issued);
  EXPECT_GT(totals_of(world.medium).dropped, 0u);
}

TEST_P(ConservationSweep, BalancesAcrossMidRunPowerFlips) {
  // Radios crash and recover in the middle of the traffic window on a slow
  // channel (125 ms frames), killing frames mid-air (missed_down) and
  // mid-queue (dropped); the identities must hold regardless.
  MediumConfig config = test_config();
  config.rate_bps = 8000.0;
  World world{12, 400.0, config, GetParam() * 977 + 5};
  world.scheduler.schedule_at(SimTime::from_seconds(0.5),
                              [&world] { world.medium.set_up(3, false); });
  world.scheduler.schedule_at(SimTime::from_seconds(1.2),
                              [&world] { world.medium.set_up(3, true); });
  world.scheduler.schedule_at(SimTime::from_seconds(0.9),
                              [&world] { world.medium.set_up(8, false); });
  const std::size_t issued =
      world.run_random_traffic(60, 2.0, GetParam() + 77);
  ASSERT_GT(issued, 0u);
  assert_conservation(world, issued);
}

TEST(MediumConservationDeterministic, MidRunDeathsCountExactlyOnce) {
  // Two nodes a meter apart on a slow channel, with deaths placed exactly:
  // one reception voided mid-air, one frame killed while queued.
  MediumConfig config;
  config.range_m = 100.0;
  config.rate_bps = 8000.0;  // 125 B <=> 125 ms on air
  config.max_jitter = SimDuration::from_ms(2);
  World world{2, 1.0, config, 3};
  // Frame 1: on air within [1.0, 1.002], ends at >= 1.125; the receiver
  // powers down at 1.05 — guaranteed mid-frame.
  world.scheduler.schedule_at(SimTime::from_seconds(1.0), [&world] {
    ++world.issued;
    world.medium.broadcast(0, kFrameBytes, 0);
  });
  world.scheduler.schedule_at(SimTime::from_seconds(1.05),
                              [&world] { world.medium.set_up(1, false); });
  world.scheduler.schedule_at(SimTime::from_seconds(1.5),
                              [&world] { world.medium.set_up(1, true); });
  // Frame 2: issued at 2.0; the sender's radio dies in the same instant
  // (later in sequence order), before any jitter can elapse — the queued
  // frame must count as dropped, never as sent.
  world.scheduler.schedule_at(SimTime::from_seconds(2.0), [&world] {
    ++world.issued;
    world.medium.broadcast(0, kFrameBytes, 0);
  });
  world.scheduler.schedule_at(SimTime::from_seconds(2.0),
                              [&world] { world.medium.set_up(0, false); });
  world.scheduler.run_until(SimTime::from_seconds(5.0));
  world.scheduler.run_all();

  const Totals t = totals_of(world.medium);
  EXPECT_EQ(t.sent, 1u);
  EXPECT_EQ(t.dropped, 1u);
  EXPECT_EQ(t.missed_down, 1u);
  EXPECT_EQ(t.delivered, 0u);
  EXPECT_EQ(t.collided, 0u);
  assert_conservation(world, world.issued);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace frugal::net
