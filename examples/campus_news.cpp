// Campus news dissemination: the paper's city-section evaluation as a
// library-level application. 15 devices move on the EPFL-like campus grid;
// a hierarchy of news topics (.campus > .campus.events > .campus.events.ic,
// .campus.food) is served by a publisher that roams like everyone else.
//
// This example also demonstrates:
//   - dynamic (un)subscription while the system runs,
//   - a device crash and recovery (Medium::set_up),
//   - comparing frugal delivery against what a simple flooder would cost
//     (run with --flooding to see the same scenario flooded).
//
// Run:  ./campus_news [--flooding]

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/flooding.hpp"
#include "core/frugal_node.hpp"
#include "mobility/city_section.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "topics/topic.hpp"

using namespace frugal;
using namespace frugal::time_literals;

int main(int argc, char** argv) {
  const bool flooding = argc > 1 && std::strcmp(argv[1], "--flooding") == 0;
  sim::Simulator simulator{7};

  mobility::CampusGridConfig grid_config;  // 1200 x 900 m, paper's campus
  Rng grid_rng = simulator.stream("grid");
  const mobility::StreetGraph graph =
      mobility::make_campus_grid(grid_config, grid_rng);
  mobility::CitySection mobility{graph, mobility::CitySectionConfig{}, 15,
                                 simulator.stream("mobility")};

  net::MediumConfig radio;
  radio.range_m = 44.0;  // the paper's city radio range
  net::Medium medium{simulator.scheduler(), mobility, radio,
                     simulator.stream("mac")};

  std::vector<std::unique_ptr<core::ProtocolNode>> devices;
  for (NodeId id = 0; id < 15; ++id) {
    if (flooding) {
      core::FloodingConfig config;
      config.variant = core::FloodingVariant::kSimple;
      devices.push_back(std::make_unique<core::FloodingNode>(
          id, simulator.scheduler(), medium, config));
    } else {
      core::FrugalConfig config;
      config.hb_upper = 1_sec;
      auto speed_provider = [&mobility, id, &simulator] {
        return mobility.speed(id, simulator.now());
      };
      devices.push_back(std::make_unique<core::FrugalNode>(
          id, simulator.scheduler(), medium, config, speed_provider));
    }
  }

  const auto campus = topics::Topic::parse(".campus");
  const auto events = topics::Topic::parse(".campus.events");
  const auto ic_events = topics::Topic::parse(".campus.events.ic");
  const auto food = topics::Topic::parse(".campus.food");

  // Interests: 0-4 want everything, 5-9 only events, 10-12 only IC events,
  // 13-14 only food.
  for (NodeId id = 0; id <= 4; ++id) devices[id]->subscribe(campus);
  for (NodeId id = 5; id <= 9; ++id) devices[id]->subscribe(events);
  for (NodeId id = 10; id <= 12; ++id) devices[id]->subscribe(ic_events);
  for (NodeId id = 13; id <= 14; ++id) devices[id]->subscribe(food);

  // Every device reports its deliveries to one run observer.
  struct DeliveryLog final : core::RunObserver {
    std::vector<int> received = std::vector<int>(15, 0);
    void on_delivery(NodeId id, const core::Event& event,
                     SimTime at) override {
      ++received[id];
      std::printf("  [%6.1fs] device %2u <- %-24s \"%s\"\n", at.seconds(), id,
                  event.topic.to_string().c_str(), event.payload.c_str());
    }
  } log;
  std::vector<int>& received = log.received;
  for (NodeId id = 0; id < 15; ++id) devices[id]->set_observer(&log);

  const auto publish = [&](NodeId who, const topics::Topic& topic,
                           const char* text, SimDuration validity) {
    core::Event event;
    event.topic = topic;
    event.validity = validity;
    event.payload = text;
    devices[who]->publish(event);
    std::printf("[%6.1fs] device %2u publishes on %s: \"%s\"\n",
                simulator.now().seconds(), who, topic.to_string().c_str(),
                text);
  };

  simulator.scheduler().schedule_at(SimTime::from_seconds(30), [&] {
    publish(0, ic_events, "distributed systems seminar 14:00", 150_sec);
  });
  simulator.scheduler().schedule_at(SimTime::from_seconds(60), [&] {
    publish(13, food, "pizza margherita at the Esplanade", 120_sec);
  });
  // Device 7 crashes at 70 s and recovers at 130 s: it must still pick up
  // valid news afterwards from whoever it meets.
  simulator.scheduler().schedule_at(SimTime::from_seconds(70), [&] {
    std::printf("[%6.1fs] device 7 crashes\n", simulator.now().seconds());
    medium.set_up(7, false);
  });
  simulator.scheduler().schedule_at(SimTime::from_seconds(90), [&] {
    publish(5, events, "jazz concert on the lawn 18:00", 150_sec);
  });
  simulator.scheduler().schedule_at(SimTime::from_seconds(130), [&] {
    std::printf("[%6.1fs] device 7 recovers\n", simulator.now().seconds());
    medium.set_up(7, true);
  });
  // Device 14 develops an interest in events mid-run.
  simulator.scheduler().schedule_at(SimTime::from_seconds(140), [&] {
    std::printf("[%6.1fs] device 14 subscribes to .campus.events\n",
                simulator.now().seconds());
    devices[14]->subscribe(events);
  });

  simulator.run_until(SimTime::from_seconds(300));

  std::printf("\n%s run summary:\n", flooding ? "Flooding" : "Frugal");
  std::uint64_t bytes = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t parasites = 0;
  int deliveries = 0;
  for (NodeId id = 0; id < 15; ++id) {
    bytes += medium.counters(id).bytes_sent;
    duplicates += devices[id]->metrics().duplicates;
    parasites += devices[id]->metrics().parasites;
    deliveries += received[id];
  }
  std::printf(
      "  deliveries: %d   bytes sent (all devices): %llu   duplicates: %llu"
      "   parasites: %llu\n",
      deliveries, static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(parasites));
  std::printf("  (compare: run %s)\n",
              flooding ? "without --flooding for the frugal protocol"
                       : "with --flooding for simple flooding");
  return deliveries > 0 ? 0 : 1;
}
