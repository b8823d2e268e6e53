// Car-park application (paper §2, footnote 1 and [7]): cars leaving a car
// park publish the freed spot on a topic per car park; driving cars
// subscribed to the car parks near their destination learn about free spots
// from cars they pass on the road — no infrastructure, no routing.
//
// Setup: a 2 x 2 km city-section street grid with three car parks at fixed
// corners. 20 cars drive around; cars 0-2 idle at the car parks and publish
// a freed spot every ~30 s with a 120 s validity (a spot claim goes stale
// quickly). Every other car subscribes to the car parks on its shopping
// list and we log which cars learn about which spots, and how stale the
// information was on arrival.
//
// Run:  ./car_park [seed]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/frugal_node.hpp"
#include "mobility/city_section.hpp"
#include "mobility/static_mobility.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "topics/topic.hpp"

using namespace frugal;
using namespace frugal::time_literals;

namespace {

/// Mobility wrapper: the first `fixed` nodes sit at car-park gates, the rest
/// drive on the street grid.
class ParkedAndDriving final : public mobility::MobilityModel {
 public:
  ParkedAndDriving(std::vector<Vec2> gates, const mobility::StreetGraph& graph,
                   std::size_t drivers, Rng rng)
      : gates_{std::move(gates)},
        driving_{graph, mobility::CitySectionConfig{}, drivers, rng} {}

  [[nodiscard]] Vec2 position(NodeId node, SimTime t) override {
    if (node < gates_.size()) return gates_[node];
    return driving_.position(static_cast<NodeId>(node - gates_.size()), t);
  }
  [[nodiscard]] double speed(NodeId node, SimTime t) override {
    if (node < gates_.size()) return 0.0;
    return driving_.speed(static_cast<NodeId>(node - gates_.size()), t);
  }
  [[nodiscard]] std::size_t node_count() const override {
    return gates_.size() + driving_.node_count();
  }
  [[nodiscard]] double max_speed_mps() const override {
    return driving_.max_speed_mps();  // parked nodes never move
  }

 private:
  std::vector<Vec2> gates_;
  mobility::CitySection driving_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;
  sim::Simulator simulator{seed};

  // A 2 x 2 km street grid; three car parks on distinct corners.
  mobility::CampusGridConfig grid_config;
  grid_config.width_m = 2000;
  grid_config.height_m = 2000;
  grid_config.columns = 6;
  grid_config.rows = 6;
  Rng grid_rng = simulator.stream("grid");
  const mobility::StreetGraph graph =
      mobility::make_campus_grid(grid_config, grid_rng);

  const std::vector<Vec2> gates{{0, 0}, {2000, 0}, {1000, 2000}};
  constexpr std::size_t kGates = 3;
  constexpr std::size_t kDrivers = 17;
  ParkedAndDriving mobility{gates, graph, kDrivers,
                            simulator.stream("mobility")};

  net::MediumConfig radio;
  radio.range_m = 200.0;  // urban 802.11 between cars
  net::Medium medium{simulator.scheduler(), mobility, radio,
                     simulator.stream("mac")};

  core::FrugalConfig protocol;
  protocol.hb_upper = SimDuration::from_seconds(1.0);

  std::vector<std::unique_ptr<core::FrugalNode>> cars;
  for (NodeId id = 0; id < kGates + kDrivers; ++id) {
    auto speed_provider = [&mobility, id, &simulator] {
      return mobility.speed(id, simulator.now());
    };
    cars.push_back(std::make_unique<core::FrugalNode>(
        id, simulator.scheduler(), medium, protocol, speed_provider));
  }

  const topics::Topic parks = topics::Topic::parse(".parking");
  const topics::Topic park_topic[kGates] = {
      topics::Topic::parse(".parking.north"),
      topics::Topic::parse(".parking.east"),
      topics::Topic::parse(".parking.center"),
  };

  // Every car reports what it learns to one run observer.
  struct DeliveryLog final : core::RunObserver {
    void on_delivery(NodeId id, const core::Event& event,
                     SimTime at) override {
      const double age = (at - event.published_at).seconds();
      std::printf("  [%7.1fs] car %2u learned \"%s\" (%s, %4.1fs old)\n",
                  at.seconds(), id, event.payload.c_str(),
                  event.topic.to_string().c_str(), age);
    }
  } log;

  // Drivers subscribe: a third wants a specific car park, a third wants any.
  Rng interests = simulator.stream("interests");
  for (NodeId id = kGates; id < kGates + kDrivers; ++id) {
    const auto dice = interests.uniform_u64(3);
    if (dice == 0) {
      cars[id]->subscribe(park_topic[interests.uniform_u64(kGates)]);
    } else if (dice == 1) {
      cars[id]->subscribe(parks);  // any car park (super-topic)
    }  // else: not shopping today — will only overhear (parasites)
    cars[id]->set_observer(&log);
  }

  // Car parks publish a freed spot roughly every 30 s (gate nodes stand in
  // for the departing cars of the paper's application).
  Rng spots = simulator.stream("spots");
  for (std::size_t g = 0; g < kGates; ++g) {
    const char* names[kGates] = {"north", "east", "center"};
    for (int k = 0; k < 6; ++k) {
      const SimTime at = SimTime::from_seconds(
          20.0 + 30.0 * k + spots.uniform(0.0, 10.0));
      simulator.scheduler().schedule_at(at, [&, g, k, names] {
        core::Event event;
        event.topic = park_topic[g];
        event.validity = 120_sec;
        event.payload = std::string{"spot "} + std::to_string(100 + k) +
                        " free at " + names[g];
        cars[g]->publish(event);
        std::printf("[%7.1fs] %s car park frees a spot\n",
                    simulator.now().seconds(), names[g]);
      });
    }
  }

  simulator.run_until(SimTime::from_seconds(260));

  std::printf("\nPer-car summary (deliveries / duplicates / parasites):\n");
  std::size_t total_deliveries = 0;
  for (NodeId id = kGates; id < kGates + kDrivers; ++id) {
    const auto& m = cars[id]->metrics();
    total_deliveries += m.deliveries.size();
    std::printf("  car %2u: %2zu / %2llu / %2llu\n", id, m.deliveries.size(),
                static_cast<unsigned long long>(m.duplicates),
                static_cast<unsigned long long>(m.parasites));
  }
  std::printf("total spot notifications delivered: %zu\n", total_deliveries);
  return total_deliveries > 0 ? 0 : 1;
}
