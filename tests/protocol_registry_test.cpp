// Unit tests for the protocol plug-in registry: built-in registration order
// and ordinal stability, name/ordinal lookup, knob declaration and listing,
// factory behaviour-parity with direct node construction, and the abort
// paths that keep a misspelled protocol name or knob key from silently
// running the wrong experiment. (Run-level byte-identity of registry-built
// protocols against the pre-registry traces is golden_trace_test's job.)

#include "protocol/registry.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/flooding.hpp"
#include "core/frugal_node.hpp"
#include "mobility/static_mobility.hpp"
#include "net/medium.hpp"
#include "sim/scheduler.hpp"

namespace frugal::protocol {
namespace {

using core::Event;
using core::EventId;
using topics::Topic;

/// A two-process static world whose nodes come from any factory — registry
/// spec or direct construction — so runs are comparable bit for bit.
struct World {
  World()
      : mobility{{{0, 0}, {50, 0}}},
        medium{scheduler, mobility, radio(), Rng{7}} {}

  static net::MediumConfig radio() {
    net::MediumConfig config;
    config.range_m = 100.0;
    config.max_jitter = SimDuration::from_ms(2);
    return config;
  }

  BuildContext context() {
    return BuildContext{scheduler,
                        medium,
                        config,
                        nullptr,
                        nullptr,
                        [](std::string_view, std::uint64_t index) {
                          return Rng{0x9E3779B97F4A7C15ULL + index};
                        }};
  }

  void build(const ProtocolSpec& spec) {
    const BuildContext ctx = context();
    for (NodeId id = 0; id < mobility.node_count(); ++id) {
      nodes.push_back(spec.make_node(id, ctx));
    }
  }

  void run_for(double seconds) {
    scheduler.run_until(scheduler.now() + SimDuration::from_seconds(seconds));
  }

  static Event make_event(const char* topic) {
    Event e;
    e.topic = Topic::parse(topic);
    e.validity = SimDuration::from_seconds(60.0);
    return e;
  }

  sim::Scheduler scheduler;
  core::ExperimentConfig config;
  mobility::StaticMobility mobility;
  net::Medium medium;
  std::vector<std::unique_ptr<core::ProtocolNode>> nodes;
};

/// (delivery time, events node 0 sent) after a subscribe → publish → run
/// cycle: enough signal that two construction paths behaved identically.
struct RunSignature {
  std::vector<std::pair<SimTime, EventId>> deliveries;
  std::uint64_t events_sent = 0;

  bool operator==(const RunSignature&) const = default;
};

RunSignature exercise(World& w) {
  struct Recorder final : core::RunObserver {
    explicit Recorder(RunSignature& out) : signature{out} {}
    void on_delivery(NodeId, const Event& event, SimTime at) override {
      signature.deliveries.emplace_back(at, event.id);
    }
    RunSignature& signature;
  };
  RunSignature signature;
  Recorder recorder{signature};
  w.nodes[1]->set_observer(&recorder);
  w.nodes[1]->subscribe(Topic::parse(".a"));
  w.run_for(3.0);  // heartbeats build the neighborhood first
  w.nodes[0]->publish(World::make_event(".a.x"));
  w.run_for(5.0);
  signature.events_sent = w.nodes[0]->metrics().events_sent;
  w.nodes[1]->set_observer(nullptr);  // the recorder dies with this frame
  return signature;
}

TEST(ProtocolRegistryTest, BuiltinsRegisterOnceInRetiredEnumOrder) {
  register_builtin_protocols();
  register_builtin_protocols();  // idempotent: no duplicate-name abort
  const std::vector<const ProtocolSpec*> all = all_protocols();
  ASSERT_GE(all.size(), 7u);
  const char* expected[] = {"frugal",
                            "simple-flooding",
                            "interests-aware-flooding",
                            "neighbors-interests-flooding",
                            "battery-adaptive-frugal",
                            "speed-adaptive-frugal",
                            "gossip"};
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)]->name, expected[i]);
    EXPECT_EQ(all[static_cast<std::size_t>(i)]->ordinal, i);
    EXPECT_NE(all[static_cast<std::size_t>(i)]->make_node, nullptr);
    EXPECT_FALSE(all[static_cast<std::size_t>(i)]->description.empty());
  }
}

TEST(ProtocolRegistryTest, LookupByNameAndOrdinal) {
  ASSERT_NE(find_protocol("frugal"), nullptr);
  EXPECT_EQ(find_protocol("frugal")->ordinal, 0);
  EXPECT_EQ(find_protocol("no-such-protocol"), nullptr);
  ASSERT_NE(protocol_by_ordinal(3), nullptr);
  EXPECT_EQ(protocol_by_ordinal(3)->name, "neighbors-interests-flooding");
  EXPECT_EQ(protocol_by_ordinal(-1), nullptr);
  EXPECT_EQ(protocol_by_ordinal(1000), nullptr);
  EXPECT_EQ(&require_protocol("gossip"), find_protocol("gossip"));
  // Lookups hand out stable pointers (deque-backed registry).
  EXPECT_EQ(find_protocol("frugal"), find_protocol("frugal"));
}

TEST(ProtocolRegistryTest, DescribeListsEveryProtocolAndItsKnobs) {
  const std::string text = describe_protocols();
  for (const ProtocolSpec* spec : all_protocols()) {
    EXPECT_NE(text.find(spec->name), std::string::npos) << spec->name;
    for (const ProtocolParam& param : spec->params) {
      EXPECT_NE(text.find(param.key), std::string::npos)
          << spec->name << "/" << param.key;
    }
  }
  EXPECT_NE(text.find("hb_stretch"), std::string::npos);
  EXPECT_NE(text.find("doze_below"), std::string::npos);
  EXPECT_NE(text.find("ref_speed_mps"), std::string::npos);
  EXPECT_NE(text.find("gossip_p"), std::string::npos);
}

TEST(ProtocolRegistryTest, EveryFactoryProducesANodeThatDisseminates) {
  // Two static processes in range: whatever the protocol, the published
  // event must reach the subscriber. (Gossip's initial broadcast is
  // unconditional, so even p < 1 delivers here.)
  for (const ProtocolSpec* spec : all_protocols()) {
    World w;
    w.build(*spec);
    ASSERT_EQ(w.nodes.size(), 2u) << spec->name;
    for (const auto& node : w.nodes) ASSERT_NE(node, nullptr) << spec->name;
    const RunSignature signature = exercise(w);
    EXPECT_EQ(signature.deliveries.size(), 1u) << spec->name;
    EXPECT_GE(signature.events_sent, 1u) << spec->name;
  }
}

TEST(ProtocolRegistryTest, RegistryFrugalMatchesDirectConstruction) {
  // Factory parity: the registered "frugal" module must reproduce the
  // pre-registry construction exactly — same world, same seeds, identical
  // delivery times and send counts.
  World from_registry;
  from_registry.build(require_protocol("frugal"));
  World direct;
  for (NodeId id = 0; id < direct.mobility.node_count(); ++id) {
    direct.nodes.push_back(std::make_unique<core::FrugalNode>(
        id, direct.scheduler, direct.medium, direct.config.frugal, nullptr));
  }
  EXPECT_EQ(exercise(from_registry), exercise(direct));
}

TEST(ProtocolRegistryTest, RegistryFloodingMatchesDirectConstruction) {
  World from_registry;
  from_registry.build(require_protocol("interests-aware-flooding"));
  World direct;
  core::FloodingConfig flooding = direct.config.flooding;
  flooding.variant = core::FloodingVariant::kInterestAware;
  for (NodeId id = 0; id < direct.mobility.node_count(); ++id) {
    direct.nodes.push_back(std::make_unique<core::FloodingNode>(
        id, direct.scheduler, direct.medium, flooding));
  }
  EXPECT_EQ(exercise(from_registry), exercise(direct));
}

TEST(ProtocolRegistryTest, AdaptiveVariantsDegradeToStaticFrugalWithoutSeams) {
  // With no charge or speed provider in the context, both adaptive modules
  // must behave exactly like static frugal — the providers are the only
  // thing separating them.
  World static_frugal;
  static_frugal.build(require_protocol("frugal"));
  const RunSignature baseline = exercise(static_frugal);
  for (const char* name : {"battery-adaptive-frugal", "speed-adaptive-frugal"}) {
    World w;
    w.build(require_protocol(name));
    EXPECT_EQ(exercise(w), baseline) << name;
  }
}

TEST(ProtocolRegistryTest, ParamOrReadsOverridesAndFallsBack) {
  core::ExperimentConfig config;
  EXPECT_EQ(param_or(config, "gossip_p", 0.3), 0.3);
  config.protocol_params["gossip_p"] = 0.9;
  EXPECT_EQ(param_or(config, "gossip_p", 0.3), 0.9);
}

TEST(ProtocolRegistryTest, ValidateParamsAcceptsDeclaredKeys) {
  core::ExperimentConfig config;
  config.protocol_params["hb_stretch"] = 2.0;
  config.protocol_params["doze_below"] = 0.5;
  validate_params(require_protocol("battery-adaptive-frugal"), config);
}

TEST(ProtocolRegistryDeathTest, RequireProtocolAbortsListingRegisteredNames) {
  EXPECT_DEATH(static_cast<void>(require_protocol("fruggal")),
               "unknown protocol \"fruggal\"; registered protocols:.*frugal");
}

TEST(ProtocolRegistryDeathTest, ValidateParamsAbortsOnUndeclaredKey) {
  core::ExperimentConfig config;
  config.protocol_params["doze_belwo"] = 0.5;  // typo'd knob
  EXPECT_DEATH(
      validate_params(require_protocol("battery-adaptive-frugal"), config),
      "declares no param \"doze_belwo\"");
}

TEST(ProtocolRegistryDeathTest, RunExperimentAbortsOnUnknownProtocolName) {
  core::ExperimentConfig config;
  config.protocol = "no-such-protocol";
  EXPECT_DEATH(static_cast<void>(core::run_experiment(config)),
               "unknown protocol \"no-such-protocol\"");
}

TEST(ProtocolRegistryDeathTest, DuplicateRegistrationAborts) {
  ProtocolSpec duplicate;
  duplicate.name = "frugal";
  duplicate.make_node = [](NodeId, const BuildContext&)
      -> std::unique_ptr<core::ProtocolNode> { return nullptr; };
  register_builtin_protocols();
  EXPECT_DEATH(ProtocolRegistry::instance().add(std::move(duplicate)),
               "duplicate protocol name");
}

}  // namespace
}  // namespace frugal::protocol
