#include "core/flooding.hpp"

#include <algorithm>
#include <vector>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace frugal::core {

namespace {
SimDuration phase_for(NodeId id, SimDuration period) {
  std::uint64_t state = 0xD1B54A32D192ED03ULL ^ id;
  const std::uint64_t h = splitmix64(state);
  return SimDuration::from_us(static_cast<std::int64_t>(
      h % static_cast<std::uint64_t>(std::max<std::int64_t>(period.us(), 1))));
}
}  // namespace

FloodingNode::FloodingNode(NodeId id, sim::Scheduler& scheduler,
                           net::Medium& medium, FloodingConfig config)
    : id_{id},
      scheduler_{scheduler},
      medium_{medium},
      config_{config},
      ticker_{scheduler, config.period, [this] { tick(); }} {
  FRUGAL_EXPECT(config.period.us() > 0);
  FRUGAL_EXPECT(config.store_capacity > 0);
  medium_.attach(id_, this);
  ticker_.start(phase_for(id_, config_.period));
  if (config_.variant == FloodingVariant::kNeighborInterest) {
    heartbeat_ = std::make_unique<sim::PeriodicTask>(
        scheduler_, config_.hb_period, [this] { send_heartbeat(); });
    heartbeat_->start(phase_for(id_ ^ 0x5555u, config_.hb_period));
  }
}

void FloodingNode::subscribe(const topics::Topic& topic) {
  subscriptions_.add(topic);
}

void FloodingNode::unsubscribe(const topics::Topic& topic) {
  subscriptions_.remove(topic);
}

void FloodingNode::publish(Event event) {
  const SimTime now = scheduler_.now();
  event.id = EventId{id_, next_seq_++};
  event.published_at = now;
  FRUGAL_EXPECT(event.validity.us() > 0);
  maybe_store(event);
  if (subscriptions_.covers(event.topic)) {
    record_delivery(metrics_, event, now);
  }
  // Initial broadcast; the ticker takes over.
  transmit_event(event, DisseminationPhase::kPublish);
}

void FloodingNode::tick() {
  const SimTime now = scheduler_.now();
  store_.erase_if([&](const auto& kv) { return !kv.second.valid_at(now); });
  if (prune_slack_.has_value()) metrics_.prune_deliveries(now, *prune_slack_);
  if (config_.variant == FloodingVariant::kNeighborInterest) {
    neighbors_.erase_if([&](const auto& kv) {
      return kv.second.heard_at + config_.neighbor_ttl < now;
    });
  }

  // Ascending-id order for reproducibility (the store's key is the id).
  std::vector<const Event*> events;
  events.reserve(store_.size());
  store_.for_each_sorted(
      [&](const EventId&, const Event& event) { events.push_back(&event); });

  for (const Event* event : events) {
    transmit_event(*event, DisseminationPhase::kFloodForward);
  }
}

void FloodingNode::transmit_event(const Event& event,
                                  DisseminationPhase phase) {
  const auto send_once = [&] {
    EventBundle bundle;
    bundle.sender = id_;
    bundle.events = {event};
    metrics_.events_sent += 1;
    const std::uint32_t size = wire_size(bundle);
    const std::uint64_t frame_id = medium_.broadcast(
        id_, size, std::make_shared<const Message>(std::move(bundle)));
    if (observer_ != nullptr) {
      observer_->annotate(frame_id, id_, phase, {event.id});
    }
  };

  switch (config_.variant) {
    case FloodingVariant::kSimple:
      send_once();
      return;
    case FloodingVariant::kInterestAware:
      // Only a process interested in the event retransmits it. (The store
      // only ever holds such events for this variant, but publish() can put
      // a non-subscribed publisher's own event on the air once.)
      send_once();
      return;
    case FloodingVariant::kNeighborInterest: {
      // One transmission per currently-known interested neighbor: the sender
      // addresses each neighbor separately (no multicast below us), which is
      // what makes this variant the most bandwidth-hungry. Ascending-id
      // order; the frames are identical, so only the *count* is observable,
      // but the jitter draws pair up with neighbors reproducibly this way.
      neighbors_.for_each_sorted([&](NodeId, const Neighbor& neighbor) {
        if (neighbor.subscriptions.covers(event.topic)) send_once();
      });
      return;
    }
  }
}

void FloodingNode::send_heartbeat() {
  Heartbeat hb;
  hb.sender = id_;
  hb.subscriptions = subscriptions_;
  const std::uint32_t size = wire_size(hb);
  medium_.broadcast(id_, size,
                    std::make_shared<const Message>(Message{std::move(hb)}));
}

void FloodingNode::on_heartbeat(const Heartbeat& heartbeat) {
  if (config_.variant != FloodingVariant::kNeighborInterest) return;
  neighbors_[heartbeat.sender] =
      Neighbor{heartbeat.subscriptions, scheduler_.now()};
}

void FloodingNode::maybe_store(const Event& event) {
  if (store_.contains(event.id)) return;
  // Simple flooding stores everything; the interest-aware variants only what
  // the process itself subscribed to — except a publisher always keeps its
  // own events so it can keep retransmitting them.
  const bool keep = config_.variant == FloodingVariant::kSimple ||
                    subscriptions_.covers(event.topic) ||
                    event.id.publisher == id_;
  if (!keep) return;
  if (store_.size() >= config_.store_capacity) return;  // memory full: drop
  store_.emplace(event.id, event);
}

void FloodingNode::on_event_bundle(const EventBundle& bundle) {
  const SimTime now = scheduler_.now();
  for (const Event& event : bundle.events) {
    if (!subscriptions_.covers(event.topic)) {
      metrics_.parasites += 1;  // every parasite reception is counted
      if (event.valid_at(now)) maybe_store(event);  // simple flooding relays
      continue;
    }
    if (metrics_.delivered(event.id)) {
      metrics_.duplicates += 1;
      continue;
    }
    if (!event.valid_at(now)) continue;
    maybe_store(event);
    record_delivery(metrics_, event, now);
  }
}

void FloodingNode::on_frame(const net::Frame& frame) {
  const auto message =
      std::any_cast<std::shared_ptr<const Message>>(&frame.payload);
  if (message == nullptr || *message == nullptr) return;
  std::visit(
      [this](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Heartbeat>) {
          on_heartbeat(m);
        } else if constexpr (std::is_same_v<T, EventBundle>) {
          on_event_bundle(m);
        } else {
          // EventIdList: flooding variants do not exchange ids; ignore.
        }
      },
      **message);
}

}  // namespace frugal::core
