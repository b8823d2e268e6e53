// The paper's frugal dissemination algorithm (§3, §4, Figs. 4-10).
//
// Three phases:
//  1. Neighborhood detection — periodic heartbeats `(id, subscriptions,
//     [speed])`; receivers with overlapping interests keep a neighborhood
//     table and, on detecting a new neighbor, advertise the ids of the valid
//     events they hold that match that neighbor's interests.
//  2. Dissemination — when the table shows a neighbor interested in a valid
//     event it (presumably) lacks, the events to send are collected and
//     broadcast after a back-off inversely proportional to their number;
//     overheard bundles update the table and cancel redundant sends.
//  3. Garbage collection — the neighborhood table ages out on NGCDelay; the
//     bounded event table evicts by Equation 1 (see event_table.hpp).
//
// Delay plumbing (Fig. 8): HBDelay adapts to the neighborhood's average
// advertised speed (x / avgSpeed, clamped to [lower, upper]); NGCDelay =
// HBDelay * HB2NGC; BODelay = HBDelay / (HB2BO * |eventsToSend|).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/event_table.hpp"
#include "core/messages.hpp"
#include "core/neighborhood_table.hpp"
#include "core/node.hpp"
#include "core/wire.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "topics/subscription_set.hpp"
#include "util/stable_map.hpp"

namespace frugal::core {

struct FrugalConfig {
  /// Default heartbeat delay before any neighborhood information (Fig. 4
  /// initializes it to 15 s; the speed-adaptive computation then clamps it
  /// into [hb_lower, hb_upper] on first use).
  SimDuration hb_default = SimDuration::from_seconds(15.0);
  SimDuration hb_lower = SimDuration::from_ms(100);
  /// The evaluation's "heartbeat upper bound period" (1 s in the random
  /// waypoint runs; swept 1-5 s in Fig. 13).
  SimDuration hb_upper = SimDuration::from_seconds(1.0);
  /// Optional dynamic override of the heartbeat upper bound, re-evaluated on
  /// every heartbeat send and every delay recomputation (adaptive protocol
  /// variants plug charge- or speed-dependent bounds in here; results are
  /// floored at hb_lower). Null = the static hb_upper above, exactly the
  /// paper's behaviour.
  std::function<SimDuration()> hb_upper_dynamic;
  double x = 40.0;       ///< HBDelay = x / averageSpeed (paper: x = 40)
  double hb2bo = 2.0;    ///< paper: HB2BO = 2
  double hb2ngc = 2.5;   ///< paper: HB2NGC = 2.5
  std::size_t event_table_capacity = 4096;
  GcPolicy gc_policy = GcPolicy::kPaperScore;  ///< Equation 1 by default
  std::size_t neighborhood_capacity = 0;  ///< 0 = unbounded (footnote 5)
  bool send_speed_in_heartbeat = true;    ///< the optional tachometer field
  bool adaptive_heartbeat = true;   ///< ablation: false = fixed hb_upper
  bool exchange_event_ids = true;   ///< ablation: false = skip id adverts
  bool use_backoff = true;          ///< ablation: false = send immediately
};

class FrugalNode final : public ProtocolNode {
 public:
  /// `speed_provider` supplies the device's current speed for heartbeats
  /// (nullptr models a device without a tachometer).
  FrugalNode(NodeId id, sim::Scheduler& scheduler, net::Medium& medium,
             FrugalConfig config, std::function<double()> speed_provider);

  ~FrugalNode() override;

  [[nodiscard]] NodeId id() const override { return id_; }

  // -- Figure 5: subscription / unsubscription -----------------------------
  void subscribe(const topics::Topic& topic) override;
  void unsubscribe(const topics::Topic& topic) override;

  // -- Figure 9: publication ------------------------------------------------
  void publish(Event event) override;

  // -- Frame reception ------------------------------------------------------
  void on_frame(const net::Frame& frame) override;

  [[nodiscard]] const DeliveryMetrics& metrics() const override {
    return metrics_;
  }

  // -- Introspection (tests, examples) --------------------------------------
  [[nodiscard]] const topics::SubscriptionSet& subscriptions() const {
    return subscriptions_;
  }
  [[nodiscard]] const NeighborhoodTable& neighborhood() const {
    return neighborhood_;
  }
  [[nodiscard]] const EventTable& events() const { return events_; }
  [[nodiscard]] SimDuration hb_delay() const { return hb_delay_; }
  [[nodiscard]] SimDuration ngc_delay() const { return ngc_delay_; }
  [[nodiscard]] bool backoff_pending() const { return backoff_.pending(); }
  [[nodiscard]] bool retrieve_pending() const {
    return pending_retrieve_.pending();
  }
  [[nodiscard]] bool heartbeat_running() const {
    return heartbeat_ != nullptr && heartbeat_->running();
  }

 private:
  // Message handlers.
  void on_heartbeat(const Heartbeat& heartbeat);
  void on_event_ids(const EventIdList& list);
  void on_event_bundle(const EventBundle& bundle);

  // Figure 6 helpers.
  void send_heartbeat();
  void advertise_events_to(const topics::SubscriptionSet& interests);
  /// Expiry of an advertised id when our own table holds the event.
  [[nodiscard]] std::optional<SimTime> known_expiry(EventId id) const;

  // Figure 7: collects events some neighbor needs; arms the back-off.
  void retrieve_events_to_send();

  // Figure 8: delay computations.
  void compute_hb_delay();
  void compute_ngc_delay();
  [[nodiscard]] SimDuration compute_bo_delay(std::size_t events_to_send) const;

  // Figure 9: back-off expiration.
  void on_backoff_expired();

  void start_tasks();
  void stop_tasks();
  void run_neighborhood_gc();
  void deliver(const Event& event);
  /// Stores `event`, counting (and reporting) the GC collection a full
  /// table forces.
  void store(const Event& event, SimTime now);
  /// Broadcasts `message` and returns the medium frame id (for annotation).
  std::uint64_t broadcast(Message message);
  void send_bundle(std::vector<Event> events, DisseminationPhase phase);

  NodeId id_;
  sim::Scheduler& scheduler_;
  net::Medium& medium_;
  FrugalConfig config_;
  std::function<double()> speed_provider_;

  topics::SubscriptionSet subscriptions_;
  NeighborhoodTable neighborhood_;
  EventTable events_;
  std::vector<EventId> events_to_send_;

  /// Id lists heard from senders that are not (yet) in the neighborhood
  /// table. The paper discards those outright (Fig. 6 line 26), but the
  /// advert and the admitting heartbeat race on a broadcast channel; keeping
  /// the last advert briefly and merging it at admission avoids one
  /// redundant bundle per re-encounter. Entries expire after two heartbeat
  /// periods.
  struct StashedAdvert {
    std::vector<EventId> ids;
    SimTime heard_at;
  };
  det::hash_map<NodeId, StashedAdvert> advert_stash_;

  SimDuration hb_delay_;
  SimDuration ngc_delay_;
  std::optional<SimDuration> bo_delay_;  ///< null when no back-off pending

  std::unique_ptr<sim::PeriodicTask> heartbeat_;
  std::unique_ptr<sim::PeriodicTask> neighborhood_gc_;
  sim::TaskHandle backoff_;
  sim::TaskHandle pending_retrieve_;

  DeliveryMetrics metrics_;
  std::uint32_t next_seq_ = 0;

  friend class FrugalNodeTestPeer;
};

}  // namespace frugal::core
