// Layer replays: each calls one layer's public functions on inputs shaped
// like the workload (node count, density, queue depth, table capacity,
// frame rate) and reports the host cost per call. They isolate what the
// profiler sections cannot: the scheduler's own push/pop, spatial-index
// queries apart from the medium around them, position queries, energy
// listener calls and event/neighbour table operations.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/event_table.hpp"
#include "core/neighborhood_table.hpp"
#include "energy/energy.hpp"
#include "mobility/city_section.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_mobility.hpp"
#include "net/spatial_index.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using frugal::NodeId;
using frugal::Rng;
using frugal::SimDuration;
using frugal::SimTime;
using frugal::Vec2;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// The reference job's mobility model, built the way run_experiment builds
/// it (the street graph lives beside the city model that refers to it).
class World {
 public:
  World(const core::ExperimentConfig& config, std::uint64_t seed) {
    Rng rng{seed};
    const std::size_t n = config.node_count;
    if (const auto* rwp = std::get_if<core::RandomWaypointSetup>(
            &config.mobility)) {
      model_ = std::make_unique<frugal::mobility::RandomWaypoint>(rwp->config,
                                                                  n, rng);
    } else if (const auto* city =
                   std::get_if<core::CitySetup>(&config.mobility)) {
      Rng grid_rng = rng.split(1);
      graph_.emplace(frugal::mobility::make_campus_grid(city->grid, grid_rng));
      model_ = std::make_unique<frugal::mobility::CitySection>(
          *graph_, city->movement, n, rng.split(2));
    } else {
      // Static placement (and anything else) over the static extent.
      double side = 5000.0;
      if (const auto* fixed =
              std::get_if<core::StaticSetup>(&config.mobility)) {
        side = fixed->width_m;
      }
      std::vector<Vec2> positions;
      for (std::size_t i = 0; i < n; ++i) {
        positions.push_back({rng.uniform(0, side), rng.uniform(0, side)});
      }
      model_ = std::make_unique<frugal::mobility::StaticMobility>(
          std::move(positions));
    }
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] frugal::mobility::MobilityModel& model() { return *model_; }

 private:
  std::optional<frugal::mobility::StreetGraph> graph_;
  std::unique_ptr<frugal::mobility::MobilityModel> model_;
};

/// Steps of one simulated second (a heartbeat round) that keep a replay
/// near `budget` calls.
std::size_t steps_for(std::size_t nodes, std::size_t budget) {
  return std::clamp<std::size_t>(budget / std::max<std::size_t>(nodes, 1), 2,
                                 400);
}

/// A task that reschedules itself 0-2 s ahead, as heartbeats and timers do.
struct Reschedule {
  sim::Scheduler* scheduler;
  Rng* rng;
  std::uint64_t* ran;
  void operator()() const {
    ++*ran;
    scheduler->schedule_after(
        SimDuration::from_us(
            1 + static_cast<std::int64_t>(rng->uniform_u64(2'000'000))),
        *this);
  }
};

double scheduler_ns(std::size_t depth, Rng rng) {
  sim::Scheduler scheduler;
  std::uint64_t ran = 0;
  const Reschedule task{&scheduler, &rng, &ran};
  for (std::size_t i = 0; i < depth; ++i) {
    scheduler.schedule_at(
        SimTime::from_us(static_cast<std::int64_t>(rng.uniform_u64(2'000'000))),
        task);
  }
  constexpr std::uint64_t kOps = 1'000'000;
  const Clock::time_point start = Clock::now();
  while (ran < kOps && scheduler.step()) {
  }
  return ns_since(start) / static_cast<double>(ran);
}

struct IndexCost {
  double ns_per_query = 0;
  double candidates_per_receiver = 0;
};

IndexCost index_cost(const core::ExperimentConfig& config,
                     std::uint64_t seed) {
  World world{config, seed};
  frugal::mobility::MobilityModel& model = world.model();
  const double range = config.medium.range_m;
  frugal::net::SpatialIndex index{model, range};
  const std::size_t n = config.node_count;
  const std::size_t steps = steps_for(n, 100'000);
  std::vector<Vec2> positions(n);
  double timed_ns = 0;
  std::uint64_t queries = 0;
  std::uint64_t candidates = 0;
  std::uint64_t receivers = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    const SimTime now = SimTime::zero() + config.warmup +
                        SimDuration::from_seconds(static_cast<double>(step));
    for (NodeId i = 0; i < n; ++i) positions[i] = model.position(i, now);
    const Clock::time_point start = Clock::now();
    for (NodeId i = 0; i < n; ++i) {
      candidates += index.candidates(positions[i], range, now).size();
    }
    timed_ns += ns_since(start);
    queries += n;
    // Untimed second pass: the true receivers among the candidates.
    for (NodeId i = 0; i < n; ++i) {
      for (const NodeId j : index.candidates(positions[i], range, now)) {
        const Vec2 d = positions[j] - positions[i];
        if (j != i && d.x * d.x + d.y * d.y <= range * range) ++receivers;
      }
    }
  }
  return {timed_ns / static_cast<double>(queries),
          static_cast<double>(candidates) /
              static_cast<double>(std::max<std::uint64_t>(receivers, 1))};
}

double position_ns(const core::ExperimentConfig& config, std::uint64_t seed) {
  World world{config, seed};
  frugal::mobility::MobilityModel& model = world.model();
  const std::size_t n = config.node_count;
  const std::size_t steps = steps_for(n, 200'000);
  const Clock::time_point start = Clock::now();
  for (std::size_t step = 0; step < steps; ++step) {
    const SimTime now = SimTime::zero() + config.warmup +
                        SimDuration::from_seconds(static_cast<double>(step));
    for (NodeId i = 0; i < n; ++i) static_cast<void>(model.position(i, now));
  }
  return ns_since(start) / static_cast<double>(steps * n);
}

/// EnergyModel listener calls at the workload's frame rate and receivers
/// per frame. Batteries are metering-only so no node depletes part-way and
/// changes the replayed path.
double energy_ns(const LayerShape& shape) {
  frugal::energy::EnergyConfig config =
      shape.reference.energy.value_or(frugal::energy::EnergyConfig{});
  config.battery_capacity_j = 0;
  config.battery_capacity_per_node_j.clear();
  const std::size_t n = shape.reference.node_count;
  frugal::energy::EnergyModel model{n, config};
  Rng rng{shape.seed};
  const double rate = std::max(shape.frames_per_sim_s, 1.0);
  const auto receivers = static_cast<std::size_t>(
      std::max(1.0, std::round(shape.receivers_per_frame)));
  const SimDuration airtime = SimDuration::from_us(3200);  // 400 B at 1 Mbps
  constexpr std::size_t kFrames = 100'000;
  std::uint64_t calls = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t f = 0; f < kFrames; ++f) {
    const SimTime at = SimTime::from_seconds(static_cast<double>(f) / rate);
    const auto sender = static_cast<NodeId>(rng.uniform_u64(n));
    model.before_tx(sender, at);
    model.on_tx(sender, at, at + airtime);
    for (std::size_t r = 0; r < receivers; ++r) {
      model.on_rx(static_cast<NodeId>(rng.uniform_u64(n)), at, at + airtime);
    }
    calls += 2 + receivers;
  }
  return ns_since(start) / static_cast<double>(calls);
}

core::Event make_event(std::uint32_t seq, SimTime at) {
  static const frugal::topics::Topic topic =
      frugal::topics::Topic::parse(".news.local");
  core::Event event;
  event.id = core::EventId{seq % 16, seq};
  event.topic = topic;
  event.published_at = at;
  event.validity = SimDuration::from_seconds(180.0);
  return event;
}

/// Inserts into a full table, one fresh event per simulated second with
/// forwarding counts growing in between: every insert runs Equation-1
/// victim selection.
double table_insert_ns(std::size_t capacity, std::size_t inserts, Rng rng) {
  core::EventTable table{capacity};
  std::uint32_t seq = 0;
  const auto at = [](std::uint32_t s) {
    return SimTime::from_seconds(static_cast<double>(s));
  };
  while (table.size() < capacity) {
    static_cast<void>(table.insert(make_event(seq, at(seq)), at(seq)));
    ++seq;
  }
  double timed_ns = 0;
  constexpr std::size_t kBatch = 64;
  for (std::size_t done = 0; done < inserts; done += kBatch) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i, ++seq) {
      static_cast<void>(table.insert(make_event(seq, at(seq)), at(seq)));
    }
    timed_ns += ns_since(start);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto s = static_cast<std::uint32_t>(rng.uniform_u64(seq));
      table.increment_forward_count(core::EventId{s % 16, s});
    }
  }
  const std::size_t timed = (inserts + kBatch - 1) / kBatch * kBatch;
  return timed_ns / static_cast<double>(timed);
}

frugal::topics::SubscriptionSet news() {
  return frugal::topics::SubscriptionSet{
      {frugal::topics::Topic::parse(".news")}};
}

double ids_matching_ns(std::size_t live) {
  core::EventTable table{4096};
  for (std::uint32_t s = 0; s < live; ++s) {
    const SimTime at = SimTime::from_seconds(static_cast<double>(s) * 0.5);
    static_cast<void>(table.insert(make_event(s, at), at));
  }
  const frugal::topics::SubscriptionSet interests = news();
  const SimTime now = SimTime::from_seconds(static_cast<double>(live) * 0.5);
  const std::size_t calls =
      std::max<std::size_t>(1000, 4'000'000 / (live + 1));
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < calls; ++c) {
    static_cast<void>(table.ids_matching(interests, now));
  }
  return ns_since(start) / static_cast<double>(calls);
}

struct NeighborhoodCost {
  double record_ns = 0;
  double collect_ns = 0;
};

NeighborhoodCost neighborhood_cost(std::size_t neighbours, std::size_t live) {
  NeighborhoodCost cost;
  const SimTime now = SimTime::from_seconds(10.0);
  const SimTime expiry = SimTime::from_seconds(180.0);
  constexpr std::size_t kTables = 50;
  double record_ns = 0;
  double collect_ns = 0;
  std::uint64_t records = 0;
  std::uint64_t collects = 0;
  for (std::size_t t = 0; t < kTables; ++t) {
    core::NeighborhoodTable table;
    for (NodeId k = 0; k < neighbours; ++k) {
      table.upsert(k, news(), 10.0, now);
    }
    Clock::time_point start = Clock::now();
    for (NodeId k = 0; k < neighbours; ++k) {
      for (std::uint32_t s = 0; s < live; ++s) {
        table.record_event(k, core::EventId{s % 16, s}, expiry);
      }
    }
    record_ns += ns_since(start);
    records += neighbours * live;
    start = Clock::now();
    for (int c = 0; c < 20; ++c) {
      static_cast<void>(table.collect(now, SimDuration::from_seconds(2.5)));
    }
    collect_ns += ns_since(start);
    collects += 20;
  }
  cost.record_ns = record_ns / static_cast<double>(std::max<std::uint64_t>(
                                   records, 1));
  cost.collect_ns = collect_ns / static_cast<double>(collects);
  return cost;
}

}  // namespace

std::vector<std::pair<std::string, double>> run_replays(
    const LayerShape& shape) {
  const Rng rng{shape.seed};
  const IndexCost index = index_cost(shape.reference, shape.seed);
  const NeighborhoodCost neighbourhood = neighborhood_cost(
      static_cast<std::size_t>(
          std::max(1.0, std::round(shape.receivers_per_frame))),
      shape.live_events);
  return {
      {"sim.schedule_run_ns", scheduler_ns(shape.queue_depth, rng.split(1))},
      {"net.index_ns_per_query", index.ns_per_query},
      {"net.index_candidates_per_receiver", index.candidates_per_receiver},
      {"core.table_insert_ns.cap64", table_insert_ns(64, 20'000, rng.split(2))},
      {"core.table_insert_ns.cap1024",
       table_insert_ns(1024, 4'000, rng.split(3))},
      {"core.table_ids_matching_ns", ids_matching_ns(shape.live_events)},
      {"core.neighborhood_record_ns", neighbourhood.record_ns},
      {"core.neighborhood_collect_ns", neighbourhood.collect_ns},
      {"mobility.ns_per_position", position_ns(shape.reference, shape.seed)},
      {"energy.ns_per_call", energy_ns(shape)},
  };
}

}  // namespace perfbench
