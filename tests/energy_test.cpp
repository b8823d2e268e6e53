// The energy subsystem (src/energy): power-state integration math, battery
// depletion with exact crossings, the medium's radio-activity reports, and
// the run_experiment wiring — including the load-bearing guarantee that
// metering alone never perturbs protocol behaviour (the golden traces stay
// byte-identical with the model disabled, and delivery outcomes are
// unchanged with it enabled but unlimited).

#include "energy/energy.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/experiment.hpp"
#include "mobility/static_mobility.hpp"
#include "net/medium.hpp"
#include "runner/worlds.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace frugal::energy {
namespace {

using namespace frugal::time_literals;

SimTime at_s(double s) { return SimTime::from_seconds(s); }

EnergyConfig metering_only() { return EnergyConfig{}; }

// ---------------------------------------------------------------------------
// EnergyModel integration math.

TEST(EnergyModelTest, IdleIntegrationIsExact) {
  EnergyModel model{1, metering_only()};
  model.advance(0, at_s(10.0));
  EXPECT_DOUBLE_EQ(model.spent_j(0),
                   model.draw_mw(RadioState::kIdle) / 1000.0 * 10.0);
  EXPECT_EQ(model.time_asleep(0), SimDuration::zero());
  EXPECT_FALSE(model.depleted(0));
}

TEST(EnergyModelTest, TxAndRxSegmentsChargedAtTheirDraws) {
  EnergyModel model{1, metering_only()};
  model.on_tx(0, at_s(1.0), at_s(3.0));   // 2 s TX
  model.on_rx(0, at_s(5.0), at_s(6.0));   // 1 s RX
  model.advance(0, at_s(10.0));
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kTx),
                   model.draw_mw(RadioState::kTx) / 1000.0 * 2.0);
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kRx),
                   model.draw_mw(RadioState::kRx) / 1000.0 * 1.0);
  // The rest of the 10 s is idle: 10 - 2 - 1 = 7 s.
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kIdle),
                   model.draw_mw(RadioState::kIdle) / 1000.0 * 7.0);
}

TEST(EnergyModelTest, OverlappingReceptionsChargeTheUnionOnce) {
  // Two frames locking the radio over [1,3) and [2,4): the radio is in RX
  // for 3 s total, not 4.
  EnergyModel model{1, metering_only()};
  model.on_rx(0, at_s(1.0), at_s(3.0));
  model.on_rx(0, at_s(2.0), at_s(4.0));
  model.advance(0, at_s(4.0));
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kRx),
                   model.draw_mw(RadioState::kRx) / 1000.0 * 3.0);
}

TEST(EnergyModelTest, HalfDuplexTxBeatsRx) {
  // A transmitting radio cannot simultaneously pay RX: TX spans win.
  EnergyModel model{1, metering_only()};
  model.on_tx(0, at_s(1.0), at_s(3.0));
  model.on_rx(0, at_s(2.0), at_s(4.0));
  model.advance(0, at_s(4.0));
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kTx),
                   model.draw_mw(RadioState::kTx) / 1000.0 * 2.0);
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kRx),
                   model.draw_mw(RadioState::kRx) / 1000.0 * 1.0);
}

TEST(EnergyModelTest, SleepAndOffDraws) {
  EnergyModel model{1, metering_only()};
  model.on_sleep_changed(0, true, at_s(2.0));   // idle [0,2), sleep [2,5)
  model.on_sleep_changed(0, false, at_s(5.0));
  model.on_up_changed(0, false, at_s(6.0));     // idle [5,6), off [6,10)
  model.advance(0, at_s(10.0));
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kSleep),
                   model.draw_mw(RadioState::kSleep) / 1000.0 * 3.0);
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kIdle),
                   model.draw_mw(RadioState::kIdle) / 1000.0 * 3.0);
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kOff), 0.0);
  EXPECT_EQ(model.time_asleep(0), 3_sec);
}

TEST(EnergyModelTest, DepletionCrossingIsExactAndCallbackFiresOnce) {
  EnergyConfig config;
  // Exactly 5 idle seconds of battery.
  config.battery_capacity_j = config.radio.idle_mw / 1000.0 * 5.0;
  EnergyModel model{1, config};
  std::vector<std::pair<NodeId, SimTime>> deaths;
  model.set_depletion_callback(
      [&](NodeId node, SimTime at) { deaths.emplace_back(node, at); });
  model.advance(0, at_s(20.0));
  ASSERT_TRUE(model.depleted(0));
  EXPECT_EQ(*model.depleted_at(0), at_s(5.0));
  // The empty battery draws nothing further and never re-fires.
  EXPECT_DOUBLE_EQ(model.spent_j(0), config.battery_capacity_j);
  model.advance(0, at_s(30.0));
  EXPECT_DOUBLE_EQ(model.spent_j(0), config.battery_capacity_j);
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0].first, 0u);
  EXPECT_EQ(deaths[0].second, at_s(5.0));
}

TEST(EnergyModelTest, SmallerBatteriesCrossStrictlyEarlier) {
  const double idle_w = RadioPowerProfile{}.idle_mw / 1000.0;
  std::optional<SimTime> previous;
  for (const double capacity : {idle_w * 2.0, idle_w * 4.0, idle_w * 8.0}) {
    EnergyConfig config;
    config.battery_capacity_j = capacity;
    EnergyModel model{1, config};
    model.advance(0, at_s(100.0));
    ASSERT_TRUE(model.depleted(0));
    if (previous.has_value()) {
      EXPECT_LT(*previous, *model.depleted_at(0));
    }
    previous = model.depleted_at(0);
  }
}

TEST(EnergyModelTest, PerNodeCapacitiesOverrideTheScalar) {
  const double idle_w = RadioPowerProfile{}.idle_mw / 1000.0;
  EnergyConfig config;
  config.battery_capacity_j = idle_w * 100.0;  // scalar is ignored when...
  config.battery_capacity_per_node_j = {idle_w * 2.0, idle_w * 8.0,
                                        0.0};  // ...the vector is set
  EnergyModel model{3, config};
  EXPECT_DOUBLE_EQ(model.capacity_j(0), idle_w * 2.0);
  EXPECT_DOUBLE_EQ(model.capacity_j(1), idle_w * 8.0);
  EXPECT_DOUBLE_EQ(model.capacity_j(2), 0.0);  // unlimited
  for (NodeId id = 0; id < 3; ++id) model.advance(id, at_s(100.0));
  // The smaller battery crosses strictly earlier; the unlimited node never.
  ASSERT_TRUE(model.depleted(0));
  ASSERT_TRUE(model.depleted(1));
  EXPECT_EQ(*model.depleted_at(0), at_s(2.0));
  EXPECT_EQ(*model.depleted_at(1), at_s(8.0));
  EXPECT_FALSE(model.depleted(2));
}

TEST(EnergyModelTest, ChargeFractionProjectsWithoutMutating) {
  const double idle_w = RadioPowerProfile{}.idle_mw / 1000.0;
  EnergyConfig config;
  config.battery_capacity_j = idle_w * 10.0;  // 10 idle seconds
  EnergyModel model{2, config};
  // Projection at a future time must not advance the ledger: the same
  // queries again — and the depletion schedule — are unchanged.
  EXPECT_DOUBLE_EQ(model.charge_fraction_at(0, at_s(5.0)), 0.5);
  EXPECT_DOUBLE_EQ(model.charge_fraction_at(0, at_s(5.0)), 0.5);
  EXPECT_DOUBLE_EQ(model.charge_fraction_at(0, at_s(20.0)), 0.0);  // clamped
  EXPECT_FALSE(model.depleted(0));
  model.advance(0, at_s(2.5));
  EXPECT_DOUBLE_EQ(model.charge_fraction_at(0, at_s(2.5)), 0.75);

  // Unlimited batteries always read full.
  EnergyModel unlimited{1, metering_only()};
  EXPECT_DOUBLE_EQ(unlimited.charge_fraction_at(0, at_s(1000.0)), 1.0);
}

TEST(EnergyModelTest, AnyFiniteBatteryReadsScalarAndVector) {
  EnergyConfig config;
  EXPECT_FALSE(any_finite_battery(config));
  config.battery_capacity_j = 5.0;
  EXPECT_TRUE(any_finite_battery(config));
  config.battery_capacity_per_node_j = {0.0, 0.0};  // vector wins: unlimited
  EXPECT_FALSE(any_finite_battery(config));
  config.battery_capacity_per_node_j = {0.0, 3.0};
  EXPECT_TRUE(any_finite_battery(config));
}

TEST(EnergyModelDeathTest, PerNodeCapacityVectorMustMatchNodeCount) {
  EnergyConfig config;
  config.battery_capacity_per_node_j = {1.0, 2.0};
  EXPECT_DEATH(static_cast<void>(EnergyModel(3, config)),
               "battery_capacity_per_node_j");
}

TEST(EnergyModelTest, DownRadioDrawsNothingAcrossChurn) {
  EnergyModel model{2, metering_only()};
  model.on_up_changed(0, false, at_s(0.0));
  model.advance_all(at_s(10.0));
  EXPECT_DOUBLE_EQ(model.spent_j(0), 0.0);
  EXPECT_GT(model.spent_j(1), 0.0);
}

// ---------------------------------------------------------------------------
// Medium integration: airtime reports and sleep semantics.

class CountingSink final : public net::MediumClient {
 public:
  void on_frame(const net::Frame&) override { ++frames; }
  std::uint64_t frames = 0;
};

struct Fixture {
  explicit Fixture(std::vector<Vec2> positions, net::MediumConfig config)
      : mobility{std::move(positions)},
        medium{scheduler, mobility, config, Rng{99}} {
    sinks.resize(mobility.node_count());
    for (NodeId id = 0; id < mobility.node_count(); ++id) {
      medium.attach(id, &sinks[id]);
    }
  }

  sim::Scheduler scheduler;
  mobility::StaticMobility mobility;
  net::Medium medium;
  std::vector<CountingSink> sinks;
};

net::MediumConfig fast_config() {
  net::MediumConfig config;
  config.range_m = 100.0;
  config.rate_bps = 1e6;  // 125 B <=> 1 ms on air
  config.max_jitter = SimDuration::from_us(100);
  return config;
}

TEST(EnergyMediumTest, BroadcastChargesTxAtSenderAndRxAtReceiver) {
  Fixture f{{{0, 0}, {50, 0}, {500, 0}}, fast_config()};
  EnergyModel model{3, metering_only()};
  f.medium.set_observer(&model);
  f.medium.broadcast(0, 125, 0);
  f.scheduler.run_until(at_s(1.0));
  model.advance_all(at_s(1.0));
  const double ms = 1e-3;
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(0, RadioState::kTx),
                   model.draw_mw(RadioState::kTx) / 1000.0 * ms);
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(1, RadioState::kRx),
                   model.draw_mw(RadioState::kRx) / 1000.0 * ms);
  // Out of range: never locked on, no RX energy.
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(2, RadioState::kRx), 0.0);
}

TEST(EnergyMediumTest, SleepingRadioMissesFramesButStillTransmits) {
  Fixture f{{{0, 0}, {50, 0}}, fast_config()};
  EnergyModel model{2, metering_only()};
  f.medium.set_observer(&model);
  f.medium.set_sleeping(1, true);
  f.medium.broadcast(0, 125, 0);   // lost on node 1's dozing radio
  f.medium.broadcast(1, 125, 0);   // PSM wake-to-send still goes out
  f.scheduler.run_until(at_s(1.0));
  EXPECT_EQ(f.sinks[1].frames, 0u);
  EXPECT_EQ(f.medium.counters(1).frames_missed_asleep, 1u);
  EXPECT_EQ(f.medium.counters(1).frames_sent, 1u);
  EXPECT_EQ(f.sinks[0].frames, 1u);
  model.advance_all(at_s(1.0));
  EXPECT_GT(model.spent_in_state_j(1, RadioState::kSleep), 0.0);
  EXPECT_GT(model.spent_in_state_j(1, RadioState::kTx), 0.0);
  EXPECT_DOUBLE_EQ(model.spent_in_state_j(1, RadioState::kRx), 0.0);
}

TEST(EnergyMediumTest, UndiscoveredDepletionIsSettledBeforeTransmitting) {
  // A battery that crossed its capacity while the node sat silent must be
  // discovered by before_tx: the very broadcast that would have been the
  // dead radio's next frame powers it down instead of going on air.
  Fixture f{{{0, 0}, {50, 0}}, fast_config()};
  EnergyConfig config;
  config.battery_capacity_j =
      RadioPowerProfile{}.idle_mw / 1000.0;  // one idle second
  EnergyModel model{2, config};
  model.set_depletion_callback(
      [&f](NodeId id, SimTime) { f.medium.set_up(id, false); });
  f.medium.set_observer(&model);
  // No sampler runs here: only the medium's hooks can notice the crossing.
  f.scheduler.schedule_at(SimTime::from_seconds(5.0),
                          [&f] { f.medium.broadcast(0, 125, 0); });
  f.scheduler.run_until(SimTime::from_seconds(6.0));
  EXPECT_TRUE(model.depleted(0));
  EXPECT_EQ(*model.depleted_at(0), SimTime::from_seconds(1.0));
  EXPECT_FALSE(f.medium.is_up(0));
  EXPECT_EQ(f.medium.counters(0).frames_sent, 0u);
  EXPECT_EQ(f.medium.counters(0).frames_dropped, 1u);  // accounted, once
  EXPECT_EQ(f.sinks[1].frames, 0u);
}

TEST(EnergyMediumTest, RedundantSetSleepingAndSetUpDoNotNotify) {
  struct FlipCounter final : net::MediumObserver {
    void on_up_changed(NodeId, bool, SimTime) override { ++ups; }
    void on_sleep_changed(NodeId, bool, SimTime) override { ++sleeps; }
    int ups = 0;
    int sleeps = 0;
  } counter;
  Fixture f{{{0, 0}, {50, 0}}, fast_config()};
  f.medium.set_observer(&counter);
  f.medium.set_up(0, true);        // already up: no flip
  f.medium.set_sleeping(0, false); // already awake: no flip
  EXPECT_EQ(counter.ups, 0);
  EXPECT_EQ(counter.sleeps, 0);
  f.medium.set_up(0, false);
  f.medium.set_sleeping(1, true);
  EXPECT_EQ(counter.ups, 1);
  EXPECT_EQ(counter.sleeps, 1);
}

// ---------------------------------------------------------------------------
// run_experiment wiring.

core::ExperimentConfig small_world(std::uint64_t seed) {
  core::ExperimentConfig config =
      runner::rwp_world_scaled(10.0, 0.8, 16, 1000.0, seed);
  config.warmup = SimDuration::from_seconds(30.0);
  config.event_count = 2;
  config.event_validity = SimDuration::from_seconds(60.0);
  config.publish_spacing = SimDuration::from_seconds(1.0);
  return config;
}

TEST(EnergyExperimentTest, MeteringAloneDoesNotPerturbTheRun) {
  const core::ExperimentConfig plain = small_world(7);
  core::ExperimentConfig metered = plain;
  metered.energy = EnergyConfig{};  // unlimited battery, no duty cycle

  const core::RunResult a = core::run_experiment(plain);
  const core::RunResult b = core::run_experiment(metered);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_DOUBLE_EQ(a.reliability(), b.reliability());
  for (std::size_t id = 0; id < a.nodes.size(); ++id) {
    EXPECT_EQ(a.nodes[id].delivered_at, b.nodes[id].delivered_at) << id;
    EXPECT_EQ(a.nodes[id].traffic.bytes_sent, b.nodes[id].traffic.bytes_sent)
        << id;
    // ...while the metered run actually accounted energy.
    EXPECT_EQ(a.nodes[id].energy_spent_j, 0.0);
    EXPECT_GT(b.nodes[id].energy_spent_j, 0.0);
    EXPECT_FALSE(b.nodes[id].died_of_depletion);
  }
  EXPECT_EQ(b.survivor_fraction(), 1.0);
  // Nobody died: the lifetime metric caps at the run horizon.
  EXPECT_DOUBLE_EQ(b.first_depletion_s(), b.run_end.seconds());
}

TEST(EnergyExperimentTest, TinyBatteryKillsEveryNodeDuringWarmup) {
  core::ExperimentConfig config = small_world(7);
  EnergyConfig energy;
  energy.battery_capacity_j = 10.0;  // ~12 idle seconds
  config.energy = energy;
  const core::RunResult result = core::run_experiment(config);
  EXPECT_EQ(result.depleted_fraction(), 1.0);
  // Only the publisher's local delivery (if it subscribes) can survive a
  // network that died before the first publication.
  EXPECT_LT(result.reliability(), 0.2);
  EXPECT_LT(result.first_depletion_s(), config.warmup.seconds());
  // The measurement window saw no spend (everyone was dead by then) but
  // the headline metric must charge the warm-up burn: a dead network is
  // expensive per delivery, never free.
  EXPECT_EQ(result.mean_joules_per_node(), 0.0);
  EXPECT_GT(result.joules_per_delivered_event(),
            energy.battery_capacity_j * 0.9);
  for (const core::NodeOutcome& node : result.nodes) {
    ASSERT_TRUE(node.depleted_at.has_value());
    // Exact crossing: at most capacity / idle-draw seconds (TX/RX only
    // shorten it), and radios cannot die before they have spent anything.
    EXPECT_GT(node.depleted_at->seconds(), 0.0);
    EXPECT_LE(node.depleted_at->seconds(),
              10.0 / (RadioPowerProfile{}.idle_mw / 1000.0) + 1e-9);
  }
}

TEST(EnergyExperimentTest, DutyCyclingAccruesSleepAndSavesEnergy) {
  core::ExperimentConfig awake_config = small_world(11);
  awake_config.energy = EnergyConfig{};
  core::ExperimentConfig duty_config = awake_config;
  EnergyConfig duty;
  duty.sleep_fraction = 0.5;
  duty_config.energy = duty;

  const core::RunResult awake = core::run_experiment(awake_config);
  const core::RunResult dozing = core::run_experiment(duty_config);
  EXPECT_EQ(awake.nodes[0].time_asleep_s, 0.0);
  double asleep_total = 0;
  for (const core::NodeOutcome& node : dozing.nodes) {
    asleep_total += node.time_asleep_s;
  }
  EXPECT_GT(asleep_total, 0.0);
  EXPECT_LT(dozing.mean_joules_per_node(), awake.mean_joules_per_node());
}

TEST(EnergyExperimentTest, PerStateBreakdownConservesWindowSpend) {
  // NodeOutcome splits the measurement-window joules by radio power state;
  // the four states must sum back to the total (the off state draws
  // nothing), and the run-level aggregates must see real TX/RX activity.
  core::ExperimentConfig config = small_world(13);
  EnergyConfig energy;
  energy.sleep_fraction = 0.25;  // make the sleep bucket non-trivial too
  energy.duty_period = config.frugal.hb_upper;
  config.energy = energy;
  const core::RunResult result = core::run_experiment(config);
  double tx_total = 0.0;
  for (const core::NodeOutcome& node : result.nodes) {
    const double sum = node.energy_tx_j + node.energy_rx_j +
                       node.energy_idle_j + node.energy_sleep_j;
    EXPECT_NEAR(sum, node.energy_spent_j, 1e-9 + 1e-12 * sum);
    EXPECT_GE(node.energy_tx_j, 0.0);
    EXPECT_GE(node.energy_rx_j, 0.0);
    EXPECT_GT(node.energy_idle_j, 0.0);  // nobody idles zero seconds
    EXPECT_GT(node.energy_sleep_j, 0.0);  // duty cycle puts everyone down
    tx_total += node.energy_tx_j;
  }
  EXPECT_GT(tx_total, 0.0);  // somebody transmitted during the window
}

TEST(EnergyExperimentTest, HeterogeneousBatteriesDieSmallestFirst) {
  // Per-node capacities: a fleet whose batteries ramp from tiny to roomy
  // must lose its small-battery processes first, and the tiny end must not
  // drag down nodes with room to spare.
  core::ExperimentConfig config = small_world(17);
  const double idle_w = RadioPowerProfile{}.idle_mw / 1000.0;
  EnergyConfig energy;
  energy.battery_capacity_per_node_j.resize(config.node_count);
  for (std::size_t i = 0; i < config.node_count; ++i) {
    // 20 idle-seconds for node 0 ramping to 2000 for the last: the run is
    // ~91 s, so the small end dies mid-run and the large end survives.
    energy.battery_capacity_per_node_j[i] =
        idle_w * (20.0 + 2000.0 * static_cast<double>(i) /
                             static_cast<double>(config.node_count - 1));
  }
  config.energy = energy;
  const core::RunResult result = core::run_experiment(config);
  ASSERT_TRUE(result.nodes[0].depleted_at.has_value());
  EXPECT_GT(result.survivor_fraction(), 0.0);
  EXPECT_LT(result.survivor_fraction(), 1.0);
  // Depletion order follows capacity order: any depleted node died no
  // earlier than every smaller-capacity node before it.
  std::optional<SimTime> previous;
  for (const core::NodeOutcome& node : result.nodes) {
    if (!node.depleted_at.has_value()) break;
    if (previous.has_value()) {
      EXPECT_LE(*previous, *node.depleted_at);
    }
    previous = node.depleted_at;
  }
}

TEST(EnergyExperimentTest, ChurnRecoveryDoesNotResurrectDepletedNodes) {
  // Heavy churn keeps scheduling radio-up flips for nodes whose batteries
  // have meanwhile emptied. A down radio draws nothing, so not everyone
  // depletes — but whoever did must stay dark: nothing can be delivered to
  // a dead radio after its crossing plus the battery-sampling slack.
  core::ExperimentConfig config = small_world(3);
  config.churn.crashes_per_node_per_minute = 6.0;
  EnergyConfig energy;
  energy.battery_capacity_j = 20.0;  // ~24 awake seconds
  config.energy = energy;
  const core::RunResult result = core::run_experiment(config);
  ASSERT_GT(result.depleted_fraction(), 0.5);
  const double slack_s = energy.sample_period.seconds() + 1.0;
  for (const core::NodeOutcome& node : result.nodes) {
    if (!node.depleted_at.has_value()) continue;
    // The measurement-window spend is capped by the battery, never
    // recharged past it.
    EXPECT_LE(node.energy_spent_j, energy.battery_capacity_j + 1e-9);
    for (const auto& delivered : node.delivered_at) {
      if (delivered.has_value()) {
        EXPECT_LE(delivered->seconds(),
                  node.depleted_at->seconds() + slack_s);
      }
    }
  }
}

TEST(EnergyExperimentTest, TraceAlternatesNodeDownAndUpUnderChurnAndDeath) {
  // Churn crashes, depletion deaths and their interleavings must never
  // produce a double kNodeDown (or an up without a down) for any node:
  // both record paths are gated on the radio flip actually happening.
  core::ExperimentConfig config = small_world(3);
  config.churn.crashes_per_node_per_minute = 6.0;
  EnergyConfig energy;
  energy.battery_capacity_j = 20.0;
  config.energy = energy;
  trace::TraceRecorder trace;
  config.trace = &trace;
  const core::RunResult result = core::run_experiment(config);
  ASSERT_GT(result.depleted_fraction(), 0.5);
  std::vector<bool> down(config.node_count, false);
  for (const trace::TraceRecord& record : trace.records()) {
    if (record.kind == trace::TraceKind::kNodeDown) {
      EXPECT_FALSE(down[record.node]) << "double down, node " << record.node;
      down[record.node] = true;
    } else if (record.kind == trace::TraceKind::kNodeUp) {
      EXPECT_TRUE(down[record.node]) << "up without down, node "
                                     << record.node;
      down[record.node] = false;
    }
  }
}

}  // namespace
}  // namespace frugal::energy
