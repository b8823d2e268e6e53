// Probabilistic gossip baseline: interests-aware flooding with a coin.
//
// Like the interests-aware flooding variant, a process stores only events
// it is itself interested in (plus its own publications) and runs a
// periodic retransmission ticker — but each stored valid event is
// retransmitted with probability `forward_probability` per tick instead of
// always. Classic gossip dissemination: at p ~ 0.3 the offered load drops
// to roughly a third of flooding's while dense neighborhoods still see
// every event with high probability.
//
// Determinism: the per-node coin is an independent named RNG stream handed
// in by the factory (Simulator::stream("gossip", id)), so gossip runs are
// seed-reproducible and drawing the stream perturbs no other protocol.
#pragma once

#include <cstdint>

#include "core/event_table.hpp"
#include "core/messages.hpp"
#include "core/node.hpp"
#include "core/wire.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "topics/subscription_set.hpp"
#include "util/rng.hpp"
#include "util/stable_map.hpp"

namespace frugal::protocol {

struct GossipConfig {
  /// Per-tick retransmission probability of each stored valid event.
  double forward_probability = 0.3;
  /// Retransmission ticker period (the energy_lifetime beat axis drives it
  /// through FloodingConfig::period).
  SimDuration period = SimDuration::from_seconds(1.0);
  std::size_t store_capacity = 4096;
};

class GossipNode final : public core::ProtocolNode {
 public:
  GossipNode(NodeId id, sim::Scheduler& scheduler, net::Medium& medium,
             GossipConfig config, Rng rng);

  [[nodiscard]] NodeId id() const override { return id_; }

  void subscribe(const topics::Topic& topic) override;
  void unsubscribe(const topics::Topic& topic) override;
  void publish(core::Event event) override;
  void on_frame(const net::Frame& frame) override;

  [[nodiscard]] const core::DeliveryMetrics& metrics() const override {
    return metrics_;
  }

  [[nodiscard]] const topics::SubscriptionSet& subscriptions() const {
    return subscriptions_;
  }
  [[nodiscard]] std::size_t stored_event_count() const {
    return store_.size();
  }

 private:
  void tick();
  void on_event_bundle(const core::EventBundle& bundle);
  void maybe_store(const core::Event& event);
  void transmit_event(const core::Event& event,
                      core::DisseminationPhase phase);

  NodeId id_;
  sim::Scheduler& scheduler_;
  net::Medium& medium_;
  GossipConfig config_;
  Rng rng_;

  topics::SubscriptionSet subscriptions_;
  det::hash_map<core::EventId, core::Event, core::EventIdHash> store_;

  sim::PeriodicTask ticker_;

  core::DeliveryMetrics metrics_;
  std::uint32_t next_seq_ = 0;
};

}  // namespace frugal::protocol
