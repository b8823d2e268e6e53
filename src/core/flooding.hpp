// The three flooding baselines of the evaluation (paper §5.2, "Frugality"):
//
//  (1) Simple flooding          — every second, every process retransmits
//      every valid event it has heard, regardless of anyone's interests.
//  (2) Interests-aware flooding — processes store and retransmit only events
//      they are themselves interested in.
//  (3) Neighbors'-interests flooding — like (2), plus heartbeat-derived
//      neighbor knowledge: an event is transmitted once per currently-known
//      interested neighbor (hence the paper's observation that this variant
//      burns the most bandwidth, >1 MB per process).
#pragma once

#include <cstdint>
#include <memory>

#include "core/event_table.hpp"
#include "core/messages.hpp"
#include "core/node.hpp"
#include "core/wire.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "topics/subscription_set.hpp"
#include "util/stable_map.hpp"

namespace frugal::core {

enum class FloodingVariant : std::uint8_t {
  kSimple,
  kInterestAware,
  kNeighborInterest,
};

struct FloodingConfig {
  FloodingVariant variant = FloodingVariant::kSimple;
  /// Retransmission period ("an event is sent every second", paper §5.2).
  SimDuration period = SimDuration::from_seconds(1.0);
  /// Heartbeat period for the neighbors'-interests variant.
  SimDuration hb_period = SimDuration::from_seconds(1.0);
  /// Neighbor entries older than this are dropped (variant 3 only).
  SimDuration neighbor_ttl = SimDuration::from_seconds(2.5);
  std::size_t store_capacity = 4096;
};

class FloodingNode final : public ProtocolNode {
 public:
  FloodingNode(NodeId id, sim::Scheduler& scheduler, net::Medium& medium,
               FloodingConfig config);

  [[nodiscard]] NodeId id() const override { return id_; }

  void subscribe(const topics::Topic& topic) override;
  void unsubscribe(const topics::Topic& topic) override;
  void publish(Event event) override;
  void on_frame(const net::Frame& frame) override;

  [[nodiscard]] const DeliveryMetrics& metrics() const override {
    return metrics_;
  }

  [[nodiscard]] const topics::SubscriptionSet& subscriptions() const {
    return subscriptions_;
  }
  [[nodiscard]] std::size_t stored_event_count() const {
    return store_.size();
  }

 private:
  struct Neighbor {
    topics::SubscriptionSet subscriptions;
    SimTime heard_at;
  };

  void tick();
  void send_heartbeat();
  void on_heartbeat(const Heartbeat& heartbeat);
  void on_event_bundle(const EventBundle& bundle);
  void maybe_store(const Event& event);
  void transmit_event(const Event& event, DisseminationPhase phase);

  NodeId id_;
  sim::Scheduler& scheduler_;
  net::Medium& medium_;
  FloodingConfig config_;

  topics::SubscriptionSet subscriptions_;
  det::hash_map<EventId, Event, EventIdHash> store_;
  det::hash_map<NodeId, Neighbor> neighbors_;  // variant 3 only

  sim::PeriodicTask ticker_;
  std::unique_ptr<sim::PeriodicTask> heartbeat_;

  DeliveryMetrics metrics_;
  std::uint32_t next_seq_ = 0;
};

}  // namespace frugal::core
