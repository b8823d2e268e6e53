// Quickstart: the paper's Figure 1 scenario, on a simulated wireless medium.
//
// Three processes and a three-level topic hierarchy (.conf ⊃ .conf.mw ⊃
// .conf.mw.demo): p1 subscribes to .conf.mw, p2 to .conf.mw.demo and p3 to
// .conf. p1 publishes an event on .conf.mw, p2 publishes two on
// .conf.mw.demo. The nodes start out of range, then meet pairwise exactly as
// in the paper's parts I-III, and the frugal protocol hands every process
// the events it is entitled to — without any routing layer.
//
// Run:  ./quickstart

#include <cstdio>

#include "core/frugal_node.hpp"
#include "mobility/static_mobility.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "topics/topic.hpp"

using namespace frugal;
using namespace frugal::time_literals;

int main() {
  sim::Simulator simulator{/*seed=*/42};

  // Three devices, initially far apart (range is 100 m).
  mobility::StaticMobility mobility{{
      {0.0, 0.0},      // p1
      {1000.0, 0.0},   // p2
      {5000.0, 0.0},   // p3
  }};
  net::MediumConfig radio;
  radio.range_m = 100.0;
  net::Medium medium{simulator.scheduler(), mobility, radio,
                     simulator.stream("mac")};

  core::FrugalConfig config;
  config.hb_upper = SimDuration::from_seconds(1.0);

  core::FrugalNode p1{0, simulator.scheduler(), medium, config, nullptr};
  core::FrugalNode p2{1, simulator.scheduler(), medium, config, nullptr};
  core::FrugalNode p3{2, simulator.scheduler(), medium, config, nullptr};

  const auto conf = topics::Topic::parse(".conf");
  const auto mw = topics::Topic::parse(".conf.mw");
  const auto demo = topics::Topic::parse(".conf.mw.demo");

  p1.subscribe(mw);
  p2.subscribe(demo);
  p3.subscribe(conf);

  // Nodes report each delivery to their run observer; process pN is node
  // N - 1.
  struct Announcer final : core::RunObserver {
    void on_delivery(NodeId node, const core::Event& event,
                     SimTime at) override {
      std::printf("  [%8.3fs] p%u delivered event %u/%u on %s: \"%s\"\n",
                  at.seconds(), node + 1, event.id.publisher, event.id.seq,
                  event.topic.to_string().c_str(), event.payload.c_str());
    }
  } announcer;
  p1.set_observer(&announcer);
  p2.set_observer(&announcer);
  p3.set_observer(&announcer);

  // Initial knowledge: p1 holds one event on .conf.mw, p2 holds two on
  // .conf.mw.demo (published while everyone is out of range).
  const auto publish = [](core::FrugalNode& node, const topics::Topic& topic,
                          const char* text) {
    core::Event event;
    event.topic = topic;
    event.validity = 600_sec;
    event.payload = text;
    node.publish(event);
  };
  std::printf("t=0: publications while out of range\n");
  publish(p1, mw, "keynote moved to 9am");
  publish(p2, demo, "demo session in room B");
  publish(p2, demo, "bring your own badge");

  // Part I: p1 and p2 become neighbors -> p2's demo events flow to p1
  // (.conf.mw covers .conf.mw.demo).
  simulator.run_for(5_sec);
  std::printf("t=5s: p2 moves next to p1 (part I)\n");
  mobility.move_node(1, {50.0, 0.0});
  simulator.run_for(10_sec);

  // Part II: p3 joins -> it misses all three events; p1 (3 events to send)
  // picks a shorter back-off than p2 (2 events).
  std::printf("t=15s: p3 joins the neighborhood (part II)\n");
  mobility.move_node(2, {25.0, 0.0});
  simulator.run_for(10_sec);

  // Part III: p1 leaves; p2 and p3 already know they share everything, so
  // the channel stays quiet.
  std::printf("t=25s: p1 moves away (part III)\n");
  mobility.move_node(0, {5000.0, 0.0});
  simulator.run_for(10_sec);

  std::printf("\nFinal state:\n");
  const auto report = [&](const char* who, const core::FrugalNode& node) {
    const auto& m = node.metrics();
    std::printf(
        "  %s: %zu events in table, %zu delivered, %llu duplicates, "
        "%llu parasites, %llu event copies sent\n",
        who, node.events().size(), m.deliveries.size(),
        static_cast<unsigned long long>(m.duplicates),
        static_cast<unsigned long long>(m.parasites),
        static_cast<unsigned long long>(m.events_sent));
  };
  report("p1", p1);
  report("p2", p2);
  report("p3", p3);

  const bool ok = p1.metrics().deliveries.size() == 3 &&  // own + 2 demo
                  p2.metrics().deliveries.size() == 2 &&  // its own two
                  p3.metrics().deliveries.size() == 3;    // everything
  std::printf("\n%s\n", ok ? "SUCCESS: every process got exactly the events "
                             "it subscribed to."
                           : "UNEXPECTED delivery counts (see above).");
  return ok ? 0 : 1;
}
