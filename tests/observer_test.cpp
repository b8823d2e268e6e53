// The run-observer fan-out: one interface behind every observer of a run,
// called in a fixed order.
//
// Covers the order itself (list order, end_run reversed), the one ordering
// constraint with a simulated effect — the energy model's before_tx may
// power a depleted sender down, so it must run before any other observer
// hears of the frame — and the live trace recorder, which now runs next to
// a bounded-memory hub and records exactly what a materialized run records.

#include "core/observer.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "energy/energy.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace frugal::core {
namespace {

struct OrderLog final : RunObserver {
  OrderLog(std::string name, std::vector<std::string>& calls)
      : name_{std::move(name)}, calls_{calls} {}
  void begin_run(const RunBinding&) override {
    calls_.push_back("begin " + name_);
  }
  void on_tx(NodeId, SimTime, SimTime) override {
    calls_.push_back("tx " + name_);
  }
  void on_delivery(NodeId, const Event&, SimTime) override {
    calls_.push_back("delivery " + name_);
  }
  void end_run(SimTime) override { calls_.push_back("end " + name_); }

 private:
  std::string name_;
  std::vector<std::string>& calls_;
};

TEST(ObserverFanOutTest, ForwardsInListOrderAndEndsInReverse) {
  std::vector<std::string> calls;
  OrderLog a{"a", calls};
  OrderLog b{"b", calls};
  OrderLog c{"c", calls};
  ObserverFanOut fan_out{{&a, &b, &c}};
  EXPECT_FALSE(fan_out.empty());
  fan_out.begin_run(RunBinding{});
  fan_out.on_tx(0, SimTime::zero(), SimTime::zero());
  fan_out.on_delivery(0, Event{}, SimTime::zero());
  fan_out.on_rx(0, SimTime::zero(), SimTime::zero());  // nobody listens
  fan_out.end_run(SimTime::zero());
  EXPECT_EQ(calls, (std::vector<std::string>{
                       "begin a", "begin b", "begin c", "tx a", "tx b",
                       "tx c", "delivery a", "delivery b", "delivery c",
                       "end c", "end b", "end a"}));
  EXPECT_TRUE(ObserverFanOut{{}}.empty());
}

/// A tracer that also watches the radio stream: which senders are down,
/// and what it hears about them.
class DepletionWatch final : public telemetry::DisseminationTracer {
 public:
  void on_up_changed(NodeId node, bool up, SimTime at) override {
    if (up) {
      down_.erase(node);
    } else {
      down_.insert(node);
    }
    DisseminationTracer::on_up_changed(node, up, at);
  }
  void before_tx(NodeId sender, SimTime now) override {
    // The medium only calls before_tx for a sender that is up, so a sender
    // already down here was powered off by an earlier observer's before_tx
    // in this very fan-out call.
    if (down_.contains(sender)) ++depleted_in_before_tx;
    DisseminationTracer::before_tx(sender, now);
  }
  void on_tx(NodeId sender, SimTime start, SimTime end) override {
    if (down_.contains(sender)) ++heard_from_down;
    DisseminationTracer::on_tx(sender, start, end);
  }
  void on_frame_sent(const net::Frame& frame, SimTime start,
                     SimTime end) override {
    if (down_.contains(frame.sender)) ++heard_from_down;
    DisseminationTracer::on_frame_sent(frame, start, end);
  }

  int depleted_in_before_tx = 0;
  int heard_from_down = 0;

 private:
  std::set<NodeId> down_;
};

TEST(ObserverFanOutTest, EnergyModelSettlesBeforeAnyOtherObserver) {
  ExperimentConfig config;
  config.node_count = 20;
  config.mobility = StaticSetup{300.0, 300.0};
  config.warmup = SimDuration::from_seconds(10.0);
  config.event_validity = SimDuration::from_seconds(60.0);
  config.seed = 5;
  energy::EnergyConfig energy;
  energy.battery_capacity_j = 20.0;
  // A rare battery sample leaves most depletions to be discovered by the
  // dying node's own next broadcast, in before_tx.
  energy.sample_period = SimDuration::from_seconds(30.0);
  config.energy = energy;
  telemetry::RunTelemetry hub{telemetry::TelemetryConfig{}};
  config.telemetry = &hub;
  DepletionWatch watch;
  config.dissem_tracer = &watch;

  const RunResult result = run_experiment(config);
  EXPECT_GT(result.depleted_fraction(), 0.0);
  EXPECT_GT(watch.depleted_in_before_tx, 0);
  EXPECT_EQ(watch.heard_from_down, 0);
}

[[nodiscard]] std::string csv_of(const trace::TraceRecorder& recorder) {
  std::string out;
  for (const trace::TraceRecord& record : recorder.records()) {
    out += std::to_string(record.at.us()) + ',' +
           trace::to_string(record.kind) + ',' + std::to_string(record.node);
    if (record.event.has_value()) {
      out += ',' + std::to_string(record.event->publisher) + ':' +
             std::to_string(record.event->seq);
    }
    out += '\n';
  }
  return out;
}

TEST(TraceRecorderObserverTest, BoundedHubRunRecordsWhatAMaterializedRunDoes) {
  ExperimentConfig config;
  config.node_count = 30;
  config.mobility = StaticSetup{1200.0, 1200.0};
  config.warmup = SimDuration::from_seconds(20.0);
  config.event_validity = SimDuration::from_seconds(60.0);
  config.event_count = 6;
  config.publisher_count = 3;
  config.publish_spacing = SimDuration::zero();
  config.churn.crashes_per_node_per_minute = 1.0;
  config.churn.downtime_min = SimDuration::from_seconds(2.0);
  config.churn.downtime_max = SimDuration::from_seconds(8.0);
  energy::EnergyConfig energy;
  energy.battery_capacity_j = 60.0;
  config.energy = energy;
  config.seed = 3;

  trace::TraceRecorder materialized;
  config.trace = &materialized;
  const RunResult reference = run_experiment(config);
  ASSERT_FALSE(reference.events.empty());

  telemetry::TelemetryConfig bounded_config;
  bounded_config.bounded_memory = true;
  telemetry::RunTelemetry hub{bounded_config};
  trace::TraceRecorder live;
  config.trace = &live;
  config.telemetry = &hub;
  const RunResult bounded = run_experiment(config);
  EXPECT_TRUE(bounded.events.empty());

  EXPECT_FALSE(materialized.filter(trace::TraceKind::kNodeDown).empty());
  EXPECT_FALSE(materialized.filter(trace::TraceKind::kDeliver).empty());
  EXPECT_EQ(csv_of(live), csv_of(materialized));
}

}  // namespace
}  // namespace frugal::core
