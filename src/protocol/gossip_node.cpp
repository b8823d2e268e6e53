#include "protocol/gossip_node.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/expect.hpp"

namespace frugal::protocol {

namespace {
/// Deterministic per-node ticker phase in [0, period), distinct salt from
/// the flooding and frugal phases.
SimDuration phase_for(NodeId id, SimDuration period) {
  std::uint64_t state = 0x8CB92BA72F3D8DD7ULL ^ id;
  const std::uint64_t h = splitmix64(state);
  return SimDuration::from_us(static_cast<std::int64_t>(
      h % static_cast<std::uint64_t>(std::max<std::int64_t>(period.us(), 1))));
}
}  // namespace

GossipNode::GossipNode(NodeId id, sim::Scheduler& scheduler,
                       net::Medium& medium, GossipConfig config, Rng rng)
    : id_{id},
      scheduler_{scheduler},
      medium_{medium},
      config_{config},
      rng_{rng},
      ticker_{scheduler, config.period, [this] { tick(); }} {
  FRUGAL_EXPECT(config.forward_probability > 0 &&
                config.forward_probability <= 1);
  FRUGAL_EXPECT(config.period.us() > 0);
  FRUGAL_EXPECT(config.store_capacity > 0);
  medium_.attach(id_, this);
  ticker_.start(phase_for(id_, config_.period));
}

void GossipNode::subscribe(const topics::Topic& topic) {
  subscriptions_.add(topic);
}

void GossipNode::unsubscribe(const topics::Topic& topic) {
  subscriptions_.remove(topic);
}

void GossipNode::publish(core::Event event) {
  const SimTime now = scheduler_.now();
  event.id = core::EventId{id_, next_seq_++};
  event.published_at = now;
  FRUGAL_EXPECT(event.validity.us() > 0);
  maybe_store(event);
  if (subscriptions_.covers(event.topic)) {
    record_delivery(metrics_, event, now);
  }
  // Initial broadcast is unconditional.
  transmit_event(event, core::DisseminationPhase::kPublish);
}

void GossipNode::tick() {
  const SimTime now = scheduler_.now();
  store_.erase_if([&](const auto& kv) { return !kv.second.valid_at(now); });
  if (prune_slack_.has_value()) metrics_.prune_deliveries(now, *prune_slack_);

  // Ascending-id order for reproducibility: the coin draws pair up with
  // events in a fixed order, so a run is a pure function of the seed.
  std::vector<const core::Event*> events;
  events.reserve(store_.size());
  store_.for_each_sorted([&](const core::EventId&, const core::Event& event) {
    events.push_back(&event);
  });
  for (const core::Event* event : events) {
    if (rng_.bernoulli(config_.forward_probability)) {
      transmit_event(*event, core::DisseminationPhase::kGossipForward);
    }
  }
}

void GossipNode::transmit_event(const core::Event& event,
                                core::DisseminationPhase phase) {
  core::EventBundle bundle;
  bundle.sender = id_;
  bundle.events = {event};
  metrics_.events_sent += 1;
  const std::uint32_t size = core::wire_size(bundle);
  const std::uint64_t frame_id = medium_.broadcast(
      id_, size, std::make_shared<const core::Message>(std::move(bundle)));
  if (observer_ != nullptr) {
    observer_->annotate(frame_id, id_, phase, {event.id});
  }
}

void GossipNode::maybe_store(const core::Event& event) {
  if (store_.contains(event.id)) return;
  // Interests-aware storage: only events we subscribe to — except a
  // publisher always keeps its own events so it can keep gossiping them.
  const bool keep = subscriptions_.covers(event.topic) ||
                    event.id.publisher == id_;
  if (!keep) return;
  if (store_.size() >= config_.store_capacity) return;  // memory full: drop
  store_.emplace(event.id, event);
}

void GossipNode::on_event_bundle(const core::EventBundle& bundle) {
  const SimTime now = scheduler_.now();
  for (const core::Event& event : bundle.events) {
    if (!subscriptions_.covers(event.topic)) {
      metrics_.parasites += 1;
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

void GossipNode::on_frame(const net::Frame& frame) {
  const auto message =
      std::any_cast<std::shared_ptr<const core::Message>>(&frame.payload);
  if (message == nullptr || *message == nullptr) return;
  std::visit(
      [this](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, core::EventBundle>) {
          on_event_bundle(m);
        } else {
          // Heartbeat / EventIdList: gossip ignores control traffic.
        }
      },
      **message);
}

}  // namespace frugal::protocol
