#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "mobility/static_mobility.hpp"
#include "protocol/registry.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"
#include "util/expect.hpp"

namespace frugal::core {

namespace {

std::unique_ptr<mobility::MobilityModel> build_mobility(
    const MobilitySetup& setup, std::size_t node_count, Rng rng) {
  if (const auto* fixed = std::get_if<StaticSetup>(&setup)) {
    std::vector<Vec2> positions;
    positions.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
      positions.push_back(
          {rng.uniform(0, fixed->width_m), rng.uniform(0, fixed->height_m)});
    }
    return std::make_unique<mobility::StaticMobility>(std::move(positions));
  }
  if (const auto* rwp = std::get_if<RandomWaypointSetup>(&setup)) {
    return std::make_unique<mobility::RandomWaypoint>(rwp->config, node_count,
                                                      rng);
  }
  if (const auto* converge = std::get_if<ConvergeSetup>(&setup)) {
    return std::make_unique<mobility::ConvergeDisperse>(converge->config,
                                                        node_count, rng);
  }
  const auto& city = std::get<CitySetup>(setup);
  Rng grid_rng = rng.split(0xC17Fu);
  // The graph must outlive the model; wrap both in one owner.
  struct OwningCitySection final : mobility::MobilityModel {
    OwningCitySection(mobility::StreetGraph g,
                      const mobility::CitySectionConfig& cfg, std::size_t n,
                      Rng r)
        : graph{std::move(g)}, model{graph, cfg, n, r} {}
    [[nodiscard]] Vec2 position(NodeId node, SimTime t) override {
      return model.position(node, t);
    }
    [[nodiscard]] double speed(NodeId node, SimTime t) override {
      return model.speed(node, t);
    }
    [[nodiscard]] std::size_t node_count() const override {
      return model.node_count();
    }
    [[nodiscard]] double max_speed_mps() const override {
      return model.max_speed_mps();
    }
    mobility::StreetGraph graph;
    mobility::CitySection model;
  };
  return std::make_unique<OwningCitySection>(
      mobility::make_campus_grid(city.grid, grid_rng), city.movement,
      node_count, rng.split(0x30B11EULL));
}

struct MetricsSnapshot {
  std::uint64_t bytes_sent = 0;
  std::uint64_t events_sent = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t parasites = 0;
  std::uint64_t gc_evictions = 0;
  double energy_j = 0.0;
  double asleep_s = 0.0;
  double tx_j = 0.0;
  double rx_j = 0.0;
  double idle_j = 0.0;
  double sleep_j = 0.0;
};

}  // namespace

double RunResult::reliability_within(SimDuration validity) const {
  // Bounded-memory runs have no per-event records; the streamed aggregates
  // answer (only) the probe validities registered before the run.
  if (events.empty() && aggregates.has_value()) {
    return aggregates->reliability_within(validity);
  }
  if (events.empty()) return 0.0;
  double total = 0;
  std::size_t counted_events = 0;
  for (std::size_t e = 0; e < events.size(); ++e) {
    FRUGAL_EXPECT(validity <= events[e].validity);
    const SimTime deadline = events[e].published_at + validity;
    std::size_t eligible = 0;
    std::size_t reached = 0;
    for (const NodeOutcome& node : nodes) {
      if (!node.subscribed) continue;
      if (!node.subscriptions.covers(events[e].topic)) continue;
      ++eligible;
      const auto& at = node.delivered_at[e];
      if (at.has_value() && *at <= deadline) ++reached;
    }
    // Hierarchical workloads can publish events no drawn subscription
    // covers; they have no reception probability and are skipped.
    if (eligible == 0) continue;
    total += static_cast<double>(reached) / static_cast<double>(eligible);
    ++counted_events;
  }
  return counted_events == 0
             ? 0.0
             : total / static_cast<double>(counted_events);
}

double RunResult::reliability() const {
  if (events.empty() && aggregates.has_value()) {
    return aggregates->reliability();
  }
  return events.empty() ? 0.0 : reliability_within(events.front().validity);
}

std::size_t RunResult::subscriber_count() const {
  return static_cast<std::size_t>(std::count_if(
      nodes.begin(), nodes.end(),
      [](const NodeOutcome& n) { return n.subscribed; }));
}

namespace {
double mean_over_nodes(const std::vector<NodeOutcome>& nodes,
                       double (*extract)(const NodeOutcome&)) {
  if (nodes.empty()) return 0.0;
  double total = 0;
  for (const NodeOutcome& node : nodes) total += extract(node);
  return total / static_cast<double>(nodes.size());
}
}  // namespace

double RunResult::mean_bytes_sent_per_node() const {
  return mean_over_nodes(nodes, [](const NodeOutcome& n) {
    return static_cast<double>(n.traffic.bytes_sent);
  });
}
double RunResult::mean_events_sent_per_node() const {
  return mean_over_nodes(nodes, [](const NodeOutcome& n) {
    return static_cast<double>(n.events_sent);
  });
}
double RunResult::mean_duplicates_per_node() const {
  return mean_over_nodes(nodes, [](const NodeOutcome& n) {
    return static_cast<double>(n.duplicates);
  });
}
double RunResult::mean_parasites_per_node() const {
  return mean_over_nodes(nodes, [](const NodeOutcome& n) {
    return static_cast<double>(n.parasites);
  });
}
double RunResult::mean_gc_evictions_per_node() const {
  return mean_over_nodes(nodes, [](const NodeOutcome& n) {
    return static_cast<double>(n.gc_evictions);
  });
}

double RunResult::mean_joules_per_node() const {
  return mean_over_nodes(nodes,
                         [](const NodeOutcome& n) { return n.energy_spent_j; });
}

std::size_t RunResult::delivered_count() const {
  if (events.empty() && aggregates.has_value()) {
    return aggregates->delivered_count();
  }
  std::size_t count = 0;
  for (const NodeOutcome& node : nodes) {
    for (const auto& at : node.delivered_at) {
      if (at.has_value()) ++count;
    }
  }
  return count;
}

double RunResult::joules_per_delivered_event() const {
  double total = 0;
  for (const NodeOutcome& node : nodes) total += node.energy_spent_total_j;
  return total / static_cast<double>(std::max<std::size_t>(
                     delivered_count(), 1));
}

double RunResult::depleted_fraction() const {
  return mean_over_nodes(nodes, [](const NodeOutcome& n) {
    return n.died_of_depletion ? 1.0 : 0.0;
  });
}

double RunResult::survivor_fraction() const {
  return 1.0 - depleted_fraction();
}

double RunResult::first_depletion_s() const {
  SimTime first = run_end;
  for (const NodeOutcome& node : nodes) {
    if (node.depleted_at.has_value()) first = std::min(first, *node.depleted_at);
  }
  return first.seconds();
}

std::vector<double> RunResult::delivery_latencies_s() const {
  std::vector<double> latencies;
  for (const NodeOutcome& node : nodes) {
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (node.delivered_at[e].has_value()) {
        latencies.push_back(
            (*node.delivered_at[e] - events[e].published_at).seconds());
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

double RunResult::mean_delivery_latency_s() const {
  if (events.empty() && aggregates.has_value()) {
    return aggregates->mean_delivery_latency_s();
  }
  // Exact integer-microsecond sum: addition order cannot matter, which is
  // what makes the streamed fold (delivery order) bit-equal to this
  // node-major walk.
  std::int64_t total_us = 0;
  std::uint64_t count = 0;
  for (const NodeOutcome& node : nodes) {
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (node.delivered_at[e].has_value()) {
        total_us += (*node.delivered_at[e] - events[e].published_at).us();
        ++count;
      }
    }
  }
  if (count == 0) return 0.0;
  return static_cast<double>(total_us) / static_cast<double>(count) / 1e6;
}

RunResult run_experiment(const ExperimentConfig& config) {
  FRUGAL_EXPECT(config.node_count > 0);
  FRUGAL_EXPECT(config.interest_fraction >= 0 &&
                config.interest_fraction <= 1);
  FRUGAL_EXPECT(config.event_count > 0);
  FRUGAL_EXPECT(config.event_validity.us() > 0);

  // Resolve the protocol by registered name before any state is built:
  // an unknown name or an undeclared knob key aborts with a listing.
  protocol::register_builtin_protocols();
  const protocol::ProtocolSpec& proto =
      protocol::require_protocol(config.protocol);
  protocol::validate_params(proto, config);

  telemetry::RunTelemetry* const telemetry = config.telemetry;
  const bool bounded = telemetry != nullptr && telemetry->bounded();

  // The outermost profile scope: everything not claimed by an inner scope
  // (scheduler tasks, medium work, telemetry folds, collection) lands here.
  sim::ProfileScope<"experiment.orchestrate"> run_profile{config.profiler};

  sim::Simulator simulator{config.seed};
  simulator.scheduler().set_profiler(config.profiler);
  auto mobility = build_mobility(config.mobility, config.node_count,
                                 simulator.stream("mobility"));
  net::Medium medium{simulator.scheduler(), *mobility, config.medium,
                     simulator.stream("mac-jitter")};

  // Optional radio energy accounting (energy/energy.hpp): meter the radio's
  // power states off the medium's airtime reports and, with a finite
  // battery, kill depleted nodes through the crash machinery. Unset runs
  // the exact pre-energy code path — no observer, no extra events.
  std::unique_ptr<energy::EnergyModel> energy_model;
  std::unique_ptr<sim::PeriodicTask> battery_sampler;
  std::vector<std::unique_ptr<sim::PeriodicTask>> duty_tasks;
  if (config.energy.has_value()) {
    energy_model = std::make_unique<energy::EnergyModel>(config.node_count,
                                                         *config.energy);
    energy_model->set_depletion_callback([&](NodeId id, SimTime) {
      // The churn machinery is the kill switch: a dead radio neither sends
      // nor overhears. The node keeps its tables — they just stop
      // mattering. A radio that is already dark (churn blackout, or the
      // very crash whose accounting discovered this crossing) needs no
      // flip; the recovery guard below keeps it dark forever. The exact
      // crossing instant lives in NodeOutcome::depleted_at.
      if (!medium.is_up(id)) return;
      medium.set_up(id, false);
    });
    if (energy::any_finite_battery(*config.energy)) {
      // Sample batteries so a depleted radio goes dark within a bounded
      // delay even while completely silent.
      battery_sampler = std::make_unique<sim::PeriodicTask>(
          simulator.scheduler(), config.energy->sample_period,
          [&] { energy_model->advance_all(simulator.now()); });
      battery_sampler->start(config.energy->sample_period);
    }
    if (config.energy->sleep_fraction > 0) {
      // Duty cycling: each round's tail is spent in power-save sleep, with
      // rounds staggered per node so the network never dozes in lockstep.
      const SimDuration period = config.energy->duty_period;
      const SimDuration awake =
          period * (1.0 - config.energy->sleep_fraction);
      const SimDuration asleep = period - awake;
      duty_tasks.reserve(config.node_count);
      for (NodeId id = 0; id < config.node_count; ++id) {
        auto task = std::make_unique<sim::PeriodicTask>(
            simulator.scheduler(), period,
            [&medium, &simulator, &duty_tasks,
             model = energy_model.get(), id, asleep] {
              if (model->depleted(id)) {
                // A dead radio needs no duty cycle; stop generating
                // sleep/wake events for the rest of the run.
                duty_tasks[id]->stop();
                return;
              }
              medium.set_sleeping(id, true);
              simulator.scheduler().schedule_after(
                  asleep, [&medium, id] { medium.set_sleeping(id, false); });
            });
        task->start(awake + period * static_cast<std::int64_t>(id) /
                                static_cast<std::int64_t>(config.node_count));
        duty_tasks.push_back(std::move(task));
      }
    }
  }

  // Every observer of the run behind one ordered fan-out, handed to the
  // medium and to every node. The energy model comes first: its before_tx
  // may power a depleted sender down before anyone sees the frame, and its
  // accounts settle before the hub reads them. Then the hub, the tracer and
  // the trace recorder; end_run goes in reverse, so the tracer's Perfetto
  // flows land before the hub finalizes the trace. An empty list attaches
  // nothing, leaving the hot paths observer-free.
  telemetry::DisseminationTracer* const tracer = config.dissem_tracer;
  ObserverFanOut observers{{energy_model.get(), telemetry, tracer,
                            config.trace}};
  RunObserver* const observer = observers.empty() ? nullptr : &observers;
  medium.set_observer(observer);

  // Draw subscribers: a seeded shuffle, first k nodes subscribe.
  Rng workload = simulator.stream("workload");
  std::vector<NodeId> order(config.node_count);
  std::iota(order.begin(), order.end(), NodeId{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[workload.uniform_u64(i)]);
  }
  const auto subscriber_count = static_cast<std::size_t>(
      std::llround(config.interest_fraction *
                   static_cast<double>(config.node_count)));
  std::vector<bool> subscribed(config.node_count, false);
  for (std::size_t i = 0; i < subscriber_count; ++i) {
    subscribed[order[i]] = true;
  }

  // The workload's topics: the paper's flat pair (everyone subscribes
  // ".news", events publish on ".news.local") or, when topic_workload is
  // set, per-node draws over a synthetic hierarchy. All extra draws happen
  // after the subscriber shuffle on the same stream, so flat runs consume
  // exactly the pre-hierarchy random sequence (golden traces unchanged).
  std::vector<topics::SubscriptionSet> node_subscriptions(config.node_count);
  // Events reference topics by pool index so telemetry can cache per-topic
  // eligible counts; flat runs use a one-entry pool.
  std::vector<topics::Topic> topic_pool{topics::Topic::parse(".news.local")};
  std::vector<std::uint32_t> event_topic_index(config.event_count, 0);
  if (!config.topic_workload.has_value()) {
    const topics::Topic subscription = topics::Topic::parse(".news");
    for (NodeId id = 0; id < config.node_count; ++id) {
      if (subscribed[id]) node_subscriptions[id].add(subscription);
    }
  } else {
    const TopicHierarchyWorkload& workload_spec = *config.topic_workload;
    FRUGAL_EXPECT(workload_spec.depth >= 1);
    FRUGAL_EXPECT(workload_spec.branching >= 1);
    FRUGAL_EXPECT(workload_spec.zipf_s >= 0);
    FRUGAL_EXPECT(workload_spec.broad_fraction >= 0 &&
                  workload_spec.broad_fraction <= 1);
    FRUGAL_EXPECT(workload_spec.subscriptions_per_node >= 1);

    // The complete branching-ary tree of `depth` levels under ".t".
    const topics::Topic root = topics::Topic::parse(".t");
    const std::vector<topics::Topic> branches =  // depth-1 (broad subs)
        topics::complete_tree_level(root, workload_spec.branching, 1);
    const std::vector<topics::Topic> leaves = topics::complete_tree_level(
        root, workload_spec.branching, workload_spec.depth);
    FRUGAL_EXPECT(leaves.size() <= 65536);  // b^depth must stay sane

    // Zipf popularity over the depth-first leaf order.
    std::vector<double> popularity(leaves.size());
    for (std::size_t rank = 0; rank < leaves.size(); ++rank) {
      popularity[rank] =
          std::pow(static_cast<double>(rank + 1), -workload_spec.zipf_s);
    }

    for (NodeId id = 0; id < config.node_count; ++id) {
      if (!subscribed[id]) continue;
      for (std::uint32_t draw = 0;
           draw < workload_spec.subscriptions_per_node; ++draw) {
        const bool broad = workload.bernoulli(workload_spec.broad_fraction);
        const auto& pool = broad ? branches : leaves;
        node_subscriptions[id].add(
            pool[workload.uniform_u64(pool.size())]);
      }
    }
    for (std::uint32_t i = 0; i < config.event_count; ++i) {
      event_topic_index[i] =
          static_cast<std::uint32_t>(workload.weighted_index(popularity));
    }
    topic_pool = leaves;
  }

  // Build protocol nodes through the registered module's factory. The
  // context exposes only narrow seams: per-node speed (the heartbeat
  // tachometer), per-node remaining charge fraction (present only with a
  // finite battery), and named RNG streams.
  protocol::BuildContext build_context{
      simulator.scheduler(),
      medium,
      config,
      [model = mobility.get(), sched = &simulator.scheduler()](NodeId id) {
        return model->speed(id, sched->now());
      },
      energy_model != nullptr && energy::any_finite_battery(*config.energy)
          ? std::function<double(NodeId)>(
                [model = energy_model.get(),
                 sched = &simulator.scheduler()](NodeId id) {
                  return model->charge_fraction_at(id, sched->now());
                })
          : nullptr,
      [&simulator](std::string_view name, std::uint64_t index) {
        return simulator.stream(name, index);
      }};
  std::vector<std::unique_ptr<ProtocolNode>> nodes;
  nodes.reserve(config.node_count);
  for (NodeId id = 0; id < config.node_count; ++id) {
    nodes.push_back(proto.make_node(id, build_context));
    FRUGAL_ENSURE(nodes.back() != nullptr);
    for (const topics::Topic& topic : node_subscriptions[id].topics()) {
      nodes.back()->subscribe(topic);
    }
    nodes.back()->set_observer(observer);
    if (bounded) {
      // Without per-event records nobody reads delivery times post-run;
      // let nodes drop records of long-expired events so the delivery
      // maps stay bounded by the validity window. The slack dwarfs any
      // airtime + defer chain, keeping the duplicate checks exact.
      nodes.back()->enable_delivery_history_pruning(
          SimDuration::from_seconds(30.0));
    }
  }

  // The publisher set: the configured (or default-drawn) first publisher,
  // then further processes in the seeded shuffle order. Events round-robin
  // across it; count 1 reproduces the original single-publisher workload.
  FRUGAL_EXPECT(config.publisher_count >= 1);
  FRUGAL_EXPECT(config.publisher_count <= config.node_count);
  const NodeId publisher =
      config.publisher.value_or(subscriber_count > 0 ? order[0] : NodeId{0});
  FRUGAL_EXPECT(publisher < config.node_count);
  std::vector<NodeId> publishers{publisher};
  for (const NodeId candidate : order) {
    if (publishers.size() >= config.publisher_count) break;
    if (candidate != publisher) publishers.push_back(candidate);
  }
  FRUGAL_ENSURE(publishers.size() == config.publisher_count);

  // Schedule the workload: event i at warmup + i * spacing, published by
  // publishers[i % k]. Each node numbers its own publications, so event i
  // carries the publishing node's local sequence number. The publications
  // form a chain (each schedules its successor) so a long workload holds
  // O(1) pending tasks instead of O(event_count); reserving the whole
  // sequence block up front keeps every task's (when, seq) key — and thus
  // the global pop order — identical to the old schedule-everything loop.
  std::vector<PublishedEventRecord> records(bounded ? 0 : config.event_count);
  std::vector<std::uint32_t> next_seq_of(publishers.size(), 0);
  const std::uint64_t seq_base =
      simulator.scheduler().reserve_sequence_block(config.event_count);
  std::function<void(std::uint32_t)> publish_event = [&](std::uint32_t i) {
    if (i + 1 < config.event_count) {
      const SimTime next_at =
          SimTime::zero() + config.warmup +
          config.publish_spacing * static_cast<std::int64_t>(i + 1);
      simulator.scheduler().schedule_at_with_sequence(
          next_at, seq_base + i + 1,
          [&publish_event, i] { publish_event(i + 1); });
    }
    const std::size_t slot = i % publishers.size();
    const NodeId publishing_node = publishers[slot];
    const std::uint32_t seq = next_seq_of[slot]++;
    // The id and publish time publish() will assign, so the observers see
    // the final event.
    Event event;
    event.id = EventId{publishing_node, seq};
    event.topic = topic_pool[event_topic_index[i]];
    event.published_at = simulator.now();
    event.validity = config.event_validity;
    event.wire_bytes = config.event_bytes;
    // Before publish(): the node self-delivers synchronously, and the
    // observers must know the event by then.
    observers.on_publish(i, event, event_topic_index[i]);
    if (!bounded) {
      records[i] = PublishedEventRecord{event.id, event.published_at,
                                        event.validity, event.topic};
    }
    nodes[publishing_node]->publish(std::move(event));
  };
  simulator.scheduler().schedule_at_with_sequence(
      SimTime::zero() + config.warmup, seq_base,
      [&publish_event] { publish_event(0); });

  // Snapshot traffic and frugality counters when measurement starts (the
  // paper's numbers cover the dissemination window, not the warm-up).
  std::vector<MetricsSnapshot> baseline(config.node_count);
  simulator.scheduler().schedule_at(SimTime::zero() + config.warmup, [&] {
    if (energy_model != nullptr) energy_model->advance_all(simulator.now());
    for (NodeId id = 0; id < config.node_count; ++id) {
      const DeliveryMetrics& m = nodes[id]->metrics();
      baseline[id] = MetricsSnapshot{
          medium.counters(id).bytes_sent, m.events_sent, m.duplicates,
          m.parasites, m.gc_evictions,
          energy_model != nullptr ? energy_model->spent_j(id) : 0.0,
          energy_model != nullptr ? energy_model->time_asleep(id).seconds()
                                  : 0.0};
      if (energy_model != nullptr) {
        using energy::RadioState;
        baseline[id].tx_j =
            energy_model->spent_in_state_j(id, RadioState::kTx);
        baseline[id].rx_j =
            energy_model->spent_in_state_j(id, RadioState::kRx);
        baseline[id].idle_j =
            energy_model->spent_in_state_j(id, RadioState::kIdle);
        baseline[id].sleep_j =
            energy_model->spent_in_state_j(id, RadioState::kSleep);
      }
    }
  });

  const SimTime last_publish =
      SimTime::zero() + config.warmup +
      config.publish_spacing * static_cast<std::int64_t>(config.event_count - 1);
  const SimTime run_end = last_publish + config.event_validity;

  RunBinding binding;
  binding.node_count = config.node_count;
  binding.event_count = config.event_count;
  binding.topic_count = topic_pool.size();
  binding.publishers = publishers;
  binding.run_validity = config.event_validity;
  binding.run_end = run_end;
  // These borrow the experiment-local tables; end_run() runs before the
  // collection phase moves them into the result.
  binding.node_eligible = [&subscribed, &node_subscriptions](
                              NodeId id, const Event& event) {
    return subscribed[id] && node_subscriptions[id].covers(event.topic);
  };
  binding.eligible_count = [&subscribed, &node_subscriptions,
                            &topic_pool](std::uint32_t topic_index) {
    std::uint32_t count = 0;
    for (NodeId id = 0; id < node_subscriptions.size(); ++id) {
      if (subscribed[id] &&
          node_subscriptions[id].covers(topic_pool[topic_index])) {
        ++count;
      }
    }
    return count;
  };
  if (energy_model != nullptr) {
    binding.total_joules_at = [model = energy_model.get()](SimTime t) {
      double total = 0.0;
      for (NodeId id = 0; id < model->node_count(); ++id) {
        total += model->spent_j_at(id, t);
      }
      return total;
    };
  }
  binding.profiler = config.profiler;
  observers.begin_run(binding);
  if (tracer != nullptr && telemetry != nullptr) {
    // Stitch flow events onto the hub's Perfetto tracks (null when the hub
    // was not asked for a Perfetto artifact — flows simply off).
    tracer->set_perfetto(telemetry->perfetto_writer());
  }

  // Churn: pre-generate each node's crash/recovery timeline (Poisson crash
  // arrivals, uniform downtime) and schedule radio-down/up flips.
  if (config.churn.crashes_per_node_per_minute > 0) {
    FRUGAL_EXPECT(config.churn.downtime_min <= config.churn.downtime_max);
    const double lambda_per_s =
        config.churn.crashes_per_node_per_minute / 60.0;
    Rng churn_root = simulator.stream("churn");
    for (NodeId id = 0; id < config.node_count; ++id) {
      Rng rng = churn_root.split(id);
      SimTime t = SimTime::zero();
      for (;;) {
        const double gap_s =
            -std::log(1.0 - rng.uniform()) / lambda_per_s;
        t += SimDuration::from_seconds(gap_s);
        if (t >= run_end) break;
        const SimDuration down = SimDuration::from_seconds(
            rng.uniform(config.churn.downtime_min.seconds(),
                        config.churn.downtime_max.seconds()));
        // A node that has meanwhile died of depletion is already (and
        // permanently) down. Without an energy model the radio is always
        // up here — the per-node timeline never overlaps its own downtimes.
        simulator.scheduler().schedule_at(t, [&medium, id] {
          if (medium.is_up(id)) medium.set_up(id, false);
        });
        if (t + down < run_end) {
          simulator.scheduler().schedule_at(
              t + down, [&medium, model = energy_model.get(), id] {
                // A battery death is forever: churn recovery must not
                // resurrect a depleted radio.
                if (model != nullptr && model->depleted(id)) return;
                medium.set_up(id, true);
              });
        }
        t += down;
      }
    }
  }

  simulator.run_until(run_end);
  if (energy_model != nullptr) energy_model->advance_all(run_end);
  // Drain the observers before collection: their binding borrows tables
  // the collection phase moves out.
  observers.end_run(run_end);

  // Collect results.
  sim::ProfileScope<"experiment.collect"> collect_profile{config.profiler};
  RunResult result;
  result.events = std::move(records);
  result.publisher = publisher;
  result.publishers = std::move(publishers);
  result.run_end = run_end;
  result.nodes.resize(config.node_count);
  for (NodeId id = 0; id < config.node_count; ++id) {
    NodeOutcome& outcome = result.nodes[id];
    outcome.subscribed = subscribed[id];
    outcome.subscriptions = std::move(node_subscriptions[id]);
    const net::TrafficCounters& traffic = medium.counters(id);
    outcome.traffic = traffic;
    outcome.traffic.bytes_sent = traffic.bytes_sent - baseline[id].bytes_sent;
    const DeliveryMetrics& m = nodes[id]->metrics();
    outcome.events_sent = m.events_sent - baseline[id].events_sent;
    outcome.duplicates = m.duplicates - baseline[id].duplicates;
    outcome.parasites = m.parasites - baseline[id].parasites;
    outcome.gc_evictions = m.gc_evictions - baseline[id].gc_evictions;
    if (energy_model != nullptr) {
      using energy::RadioState;
      outcome.energy_spent_total_j = energy_model->spent_j(id);
      outcome.energy_spent_j =
          outcome.energy_spent_total_j - baseline[id].energy_j;
      outcome.energy_tx_j =
          energy_model->spent_in_state_j(id, RadioState::kTx) -
          baseline[id].tx_j;
      outcome.energy_rx_j =
          energy_model->spent_in_state_j(id, RadioState::kRx) -
          baseline[id].rx_j;
      outcome.energy_idle_j =
          energy_model->spent_in_state_j(id, RadioState::kIdle) -
          baseline[id].idle_j;
      outcome.energy_sleep_j =
          energy_model->spent_in_state_j(id, RadioState::kSleep) -
          baseline[id].sleep_j;
      outcome.time_asleep_s =
          energy_model->time_asleep(id).seconds() - baseline[id].asleep_s;
      outcome.died_of_depletion = energy_model->depleted(id);
      outcome.depleted_at = energy_model->depleted_at(id);
    }
    outcome.delivered_at.resize(result.events.size());
    for (std::size_t e = 0; e < result.events.size(); ++e) {
      const DeliveryRecord* record = m.deliveries.find(result.events[e].id);
      if (record != nullptr) outcome.delivered_at[e] = record->at;
    }
  }
  if (telemetry != nullptr) result.aggregates = telemetry->aggregates();
  if (tracer != nullptr) result.dissem = tracer->stats();

  return result;
}

}  // namespace frugal::core
