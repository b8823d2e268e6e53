// Common interface of all protocol implementations (the frugal algorithm and
// the three flooding baselines), so the experiment runner and the examples
// treat them uniformly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/event.hpp"
#include "core/observer.hpp"
#include "net/medium.hpp"
#include "topics/topic.hpp"
#include "util/stable_map.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace frugal::core {

/// One application-level delivery, with the event's expiry retained so
/// bounded-memory runs can prune records of long-expired events.
struct DeliveryRecord {
  SimTime at;       ///< first application-level delivery time
  SimTime expires;  ///< the event's expiry (published_at + validity)
};

/// Per-process delivery accounting — the evaluation's four frugality metrics
/// (events sent, duplicates, parasites) plus delivery times for reliability.
struct DeliveryMetrics {
  /// Unique events delivered to the application, with delivery time.
  /// Point-lookup only by construction (det::hash_map): per-event delivery
  /// times are read by id, never folded in hash order.
  det::hash_map<EventId, DeliveryRecord, EventIdHash> deliveries;
  /// Receptions of an event already delivered/stored here (interested).
  std::uint64_t duplicates = 0;
  /// Receptions of events whose topic we have not subscribed to.
  std::uint64_t parasites = 0;
  /// Event copies broadcast by this process (each event in a bundle counts
  /// once; a flooding retransmission counts once per event per send).
  std::uint64_t events_sent = 0;
  /// Event-table GC collections (Fig. 3 / Equation 1): victim selections a
  /// full table forced on insert, whether a stored event was evicted or the
  /// newcomer was rejected. Always 0 for the flooding baselines (no event
  /// table).
  std::uint64_t gc_evictions = 0;

  [[nodiscard]] bool delivered(EventId id) const {
    return deliveries.contains(id);
  }

  /// Drops delivery records whose event expired more than `slack` ago.
  /// Only safe when nobody will read per-event delivery times afterwards
  /// (i.e. bounded-memory telemetry runs); the slack keeps `delivered()`
  /// correct for any frame still in flight, since nodes only transmit
  /// valid events.
  void prune_deliveries(SimTime now, SimDuration slack) {
    deliveries.erase_if([&](const auto& entry) {
      return entry.second.expires + slack < now;
    });
  }
};

/// A pub/sub process: the software on one mobile device (paper §2).
class ProtocolNode : public net::MediumClient {
 public:
  ~ProtocolNode() override = default;

  [[nodiscard]] virtual NodeId id() const = 0;

  virtual void subscribe(const topics::Topic& topic) = 0;
  virtual void unsubscribe(const topics::Topic& topic) = 0;

  /// Publishes a new event produced by this process. The event's id must
  /// carry this node as publisher.
  virtual void publish(Event event) = 0;

  [[nodiscard]] virtual const DeliveryMetrics& metrics() const = 0;

  /// Registers the run's observer (not owned; nullptr detaches): it hears
  /// every fresh delivery, every event-table GC collection and the phase of
  /// every event-carrying or advert frame this node broadcasts.
  virtual void set_observer(RunObserver* observer) { observer_ = observer; }

  /// Lets the node drop delivery records of events expired more than
  /// `slack` ago during its periodic housekeeping. Only bounded-memory
  /// telemetry runs enable this — materialized runs read the full map.
  virtual void enable_delivery_history_pruning(SimDuration slack) {
    prune_slack_ = slack;
  }

 protected:
  /// The fresh-delivery bookkeeping every protocol shares: records the
  /// first application delivery of `event` in `metrics` and reports it to
  /// the observer. Returns false, recording nothing, when the event was
  /// delivered here before.
  bool record_delivery(DeliveryMetrics& metrics, const Event& event,
                       SimTime now) {
    const bool fresh =
        metrics.deliveries
            .try_emplace(event.id, DeliveryRecord{now, event.expiry()})
            .inserted;
    if (fresh && observer_ != nullptr) {
      observer_->on_delivery(id(), event, now);
    }
    return fresh;
  }

  RunObserver* observer_ = nullptr;
  std::optional<SimDuration> prune_slack_;  ///< set when pruning is enabled
};

}  // namespace frugal::core
