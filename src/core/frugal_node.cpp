#include "core/frugal_node.hpp"

#include <algorithm>
#include <memory>

#include "sim/profiler.hpp"
#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace frugal::core {

namespace {

SimDuration clamp(SimDuration value, SimDuration lo, SimDuration hi) {
  return std::min(std::max(value, lo), hi);
}

/// The heartbeat upper bound in force right now: the dynamic override when
/// configured (floored at hb_lower so a pathological provider cannot
/// invert the clamp window), else the static hb_upper.
SimDuration effective_hb_upper(const FrugalConfig& config) {
  if (!config.hb_upper_dynamic) return config.hb_upper;
  return std::max(config.hb_upper_dynamic(), config.hb_lower);
}

/// Deterministic per-node phase in [0, period): spreads out the first
/// heartbeat of each process so they do not all fire in the same slot.
SimDuration initial_phase(NodeId id, SimDuration period) {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL ^ id;
  const std::uint64_t h = splitmix64(state);
  return SimDuration::from_us(static_cast<std::int64_t>(
      h % static_cast<std::uint64_t>(std::max<std::int64_t>(period.us(), 1))));
}

}  // namespace

FrugalNode::FrugalNode(NodeId id, sim::Scheduler& scheduler,
                       net::Medium& medium, FrugalConfig config,
                       std::function<double()> speed_provider)
    : id_{id},
      scheduler_{scheduler},
      medium_{medium},
      config_{config},
      speed_provider_{std::move(speed_provider)},
      neighborhood_{config.neighborhood_capacity},
      events_{config.event_table_capacity, config.gc_policy},
      // Fig. 4 initializes HBDelay to its default; we additionally clamp it
      // into [hb_lower, hb_upper] up front so a process is discoverable from
      // its first subscription instead of after one 15 s default period.
      hb_delay_{clamp(config.hb_default, config.hb_lower,
                      effective_hb_upper(config))},
      ngc_delay_{hb_delay_ * config.hb2ngc} {
  FRUGAL_EXPECT(config.hb_lower.us() > 0);
  FRUGAL_EXPECT(config.hb_lower <= config.hb_upper);
  FRUGAL_EXPECT(config.x > 0);
  FRUGAL_EXPECT(config.hb2bo > 0);
  FRUGAL_EXPECT(config.hb2ngc > 0);
  medium_.attach(id_, this);
}

FrugalNode::~FrugalNode() {
  // Scheduled lambdas capture `this`; cancel them so a scheduler outliving
  // the node never runs into freed memory.
  backoff_.cancel();
  pending_retrieve_.cancel();
}

// ---------------------------------------------------------------- Figure 5

void FrugalNode::subscribe(const topics::Topic& topic) {
  subscriptions_.add(topic);
  start_tasks();
}

void FrugalNode::unsubscribe(const topics::Topic& topic) {
  // A topic we never subscribed to must be a no-op: falling through on an
  // already-empty subscription set would tear down the armed publisher-side
  // machinery (back-off, deferred retrieve) a pure publisher relies on.
  if (!subscriptions_.remove(topic)) return;
  if (subscriptions_.empty()) {
    stop_tasks();
    // Cancel the armed dissemination work too: a back-off or deferred
    // retrieve left scheduled here would still broadcast bundles after the
    // last unsubscription. (Held valid events may later re-enter
    // dissemination if a *new* interested neighbor is admitted — the same
    // deliberate widening that lets a pure publisher disseminate.)
    backoff_.cancel();
    bo_delay_ = std::nullopt;
    pending_retrieve_.cancel();
    events_to_send_.clear();
  }
}

void FrugalNode::start_tasks() {
  if (heartbeat_ == nullptr) {
    heartbeat_ = std::make_unique<sim::PeriodicTask>(
        scheduler_, hb_delay_, [this] { send_heartbeat(); });
  }
  if (!heartbeat_->running()) {
    heartbeat_->set_period(hb_delay_);
    heartbeat_->start(initial_phase(id_, hb_delay_));
  }
  if (neighborhood_gc_ == nullptr) {
    neighborhood_gc_ = std::make_unique<sim::PeriodicTask>(
        scheduler_, ngc_delay_, [this] { run_neighborhood_gc(); });
  }
  if (!neighborhood_gc_->running()) {
    neighborhood_gc_->set_period(ngc_delay_);
    neighborhood_gc_->start(ngc_delay_);
  }
}

void FrugalNode::stop_tasks() {
  if (heartbeat_) heartbeat_->stop();
  if (neighborhood_gc_) neighborhood_gc_->stop();
}

// ---------------------------------------------------------------- Figure 6

void FrugalNode::send_heartbeat() {
  if (config_.hb_upper_dynamic) {
    // The bound may have drifted (battery drained, speed changed) with no
    // heartbeat received in between; refresh the delays on our own beat.
    compute_hb_delay();
    compute_ngc_delay();
  }
  Heartbeat hb;
  hb.sender = id_;
  hb.subscriptions = subscriptions_;
  if (config_.send_speed_in_heartbeat && speed_provider_) {
    hb.speed_mps = speed_provider_();
  }
  broadcast(Message{std::move(hb)});
}

void FrugalNode::on_heartbeat(const Heartbeat& heartbeat) {
  sim::ProfileScope<"frugal.heartbeat"> profile{scheduler_.profiler()};
  const SimTime now = scheduler_.now();

  // Admission test: keep only neighbors we share interests with. Subscribers
  // match via subscription overlap; additionally, a process relaying or
  // publishing events keeps neighbors interested in the events it currently
  // holds, so a pure publisher (no subscriptions of its own) can still
  // disseminate — the paper's processes are always subscribers too, so this
  // only widens, never narrows, the paper's test.
  const bool admit = subscriptions_.overlaps(heartbeat.subscriptions) ||
                     events_.has_match(heartbeat.subscriptions, now);

  if (admit) {
    const NeighborEntry* existing = neighborhood_.find(heartbeat.sender);
    const bool is_new = existing == nullptr;
    const bool subscriptions_changed =
        !is_new && !(existing->subscriptions == heartbeat.subscriptions);
    neighborhood_.upsert(heartbeat.sender, heartbeat.subscriptions,
                         heartbeat.speed_mps, now);
    // Merge an id advert that raced ahead of this admitting heartbeat.
    if (const StashedAdvert* stashed = advert_stash_.find(heartbeat.sender)) {
      if (stashed->heard_at + hb_delay_ * 2 >= now) {
        for (EventId event_id : stashed->ids) {
          neighborhood_.record_event(heartbeat.sender, event_id,
                                     known_expiry(event_id));
        }
      }
      advert_stash_.erase(heartbeat.sender);
    }
    // "new neighborEvent": advertise the ids of the valid events we hold
    // matching the neighbor's interests. The paper raises this on detection;
    // we also re-advertise when a known neighbor changed its subscriptions
    // (its interest set, hence the relevant ids, changed).
    if ((is_new || subscriptions_changed) && config_.exchange_event_ids) {
      advertise_events_to(heartbeat.subscriptions);
    }
    // A freshly met neighbor has an empty presumed-received set, so anything
    // we hold that matches its interests is a dissemination opportunity.
    // The check is deferred by one heartbeat period: a subscriber neighbor
    // advertises its held ids within that window (pruning events it already
    // has), so this path only transmits for neighbors that cannot advertise
    // — e.g. toward a pure publisher's audience — or that genuinely lack
    // events.
    if (is_new && !pending_retrieve_.pending()) {
      pending_retrieve_ = scheduler_.schedule_after(
          hb_delay_, [this] { retrieve_events_to_send(); });
    }
  }

  compute_hb_delay();
  compute_ngc_delay();
}

std::optional<SimTime> FrugalNode::known_expiry(EventId id) const {
  // Advertised id lists carry no expiry on the wire; when we hold the event
  // ourselves the table knows it, otherwise the recording stays unbounded
  // (SimTime::max()) and is retired only with the whole neighbor row.
  const StoredEvent* stored = events_.find(id);
  if (stored == nullptr) return std::nullopt;
  return stored->event.expiry();
}

void FrugalNode::advertise_events_to(
    const topics::SubscriptionSet& interests) {
  EventIdList list;
  list.sender = id_;
  list.ids = events_.ids_matching(interests, scheduler_.now());
  // An empty list is still sent: hearing any id list from a new neighbor is
  // what triggers the peer's RETRIEVEEVENTSTOSEND for events *we* lack.
  // For the tracer the two cases are distinct phases: a non-empty list
  // advertises held events, an empty one is a pure retrieve trigger.
  std::vector<EventId> ids = list.ids;
  const DisseminationPhase phase = ids.empty()
                                       ? DisseminationPhase::kRetrieveRequest
                                       : DisseminationPhase::kAdvert;
  const std::uint64_t frame_id = broadcast(Message{std::move(list)});
  if (observer_ != nullptr) observer_->annotate(frame_id, id_, phase, ids);
}

void FrugalNode::on_event_ids(const EventIdList& list) {
  sim::ProfileScope<"frugal.event_ids"> profile{scheduler_.profiler()};
  const SimTime now = scheduler_.now();
  if (!neighborhood_.contains(list.sender)) {
    // Not admitted (yet): the admitting heartbeat may simply not have
    // arrived. Stash the advert; on_heartbeat merges it at admission.
    advert_stash_.erase_if([&](const auto& kv) {
      return kv.second.heard_at + hb_delay_ * 2 < now;
    });
    advert_stash_[list.sender] = StashedAdvert{list.ids, now};
    return;
  }
  neighborhood_.touch(list.sender, now);
  for (EventId id : list.ids) {
    neighborhood_.record_event(list.sender, id, known_expiry(id));
  }
  retrieve_events_to_send();
}

// ---------------------------------------------------------------- Figure 7

void FrugalNode::retrieve_events_to_send() {
  sim::ProfileScope<"frugal.retrieve"> profile{scheduler_.profiler()};
  const SimTime now = scheduler_.now();
  events_to_send_.clear();
  det::hash_set<EventId, EventIdHash> selected;
  for (const NeighborEntry* neighbor : neighborhood_.entries_by_id()) {
    // The topic index resolves each neighbor's interests in O(matching
    // subtree); the ids come back valid, covered and ascending — the same
    // order the flat scan produced.
    for (EventId id : events_.ids_matching(neighbor->subscriptions, now)) {
      if (neighbor->known_events.contains(id)) continue;
      if (selected.insert(id)) events_to_send_.push_back(id);
    }
  }
  if (events_to_send_.empty()) return;

  if (!config_.use_backoff) {
    on_backoff_expired();
    return;
  }

  const SimDuration delay = compute_bo_delay(events_to_send_.size());
  if (!bo_delay_.has_value()) {
    bo_delay_ = delay;
    backoff_ = scheduler_.schedule_after(delay, [this] {
      on_backoff_expired();
    });
  } else if (delay < *bo_delay_) {
    // COMPUTEBODELAY keeps the minimum of the current and the recomputed
    // delay; rearm the timer with the shorter one.
    bo_delay_ = delay;
    backoff_.cancel();
    backoff_ = scheduler_.schedule_after(delay, [this] {
      on_backoff_expired();
    });
  }
}

// ---------------------------------------------------------------- Figure 8

void FrugalNode::compute_hb_delay() {
  const SimDuration upper = effective_hb_upper(config_);
  if (!config_.adaptive_heartbeat) {
    hb_delay_ = upper;
  } else {
    const std::optional<double> average = neighborhood_.average_speed();
    if (average.has_value() && *average > 1e-3) {
      hb_delay_ = SimDuration::from_seconds(config_.x / *average);
    }
    hb_delay_ = clamp(hb_delay_, config_.hb_lower, upper);
  }
  if (heartbeat_) heartbeat_->set_period(hb_delay_);
}

void FrugalNode::compute_ngc_delay() {
  ngc_delay_ = hb_delay_ * config_.hb2ngc;
  if (neighborhood_gc_) neighborhood_gc_->set_period(ngc_delay_);
}

SimDuration FrugalNode::compute_bo_delay(std::size_t events_to_send) const {
  FRUGAL_EXPECT(events_to_send > 0);
  return hb_delay_ /
         (config_.hb2bo * static_cast<double>(events_to_send));
}

// ---------------------------------------------------------------- Figure 9

void FrugalNode::on_backoff_expired() {
  sim::ProfileScope<"frugal.backoff_send"> profile{scheduler_.profiler()};
  bo_delay_ = std::nullopt;
  backoff_.cancel();

  // Recompute the events to send: the neighborhood may have changed during
  // the back-off (id lists heard, bundles overheard, validity expirations).
  const SimTime now = scheduler_.now();
  std::vector<Event> bundle;
  det::hash_set<EventId, EventIdHash> selected;
  for (const NeighborEntry* neighbor : neighborhood_.entries_by_id()) {
    for (EventId id : events_.ids_matching(neighbor->subscriptions, now)) {
      if (neighbor->known_events.contains(id)) continue;
      if (selected.insert(id)) {
        bundle.push_back(events_.find(id)->event);
      }
    }
  }
  events_to_send_.clear();
  if (!bundle.empty()) {
    send_bundle(std::move(bundle), DisseminationPhase::kEventPush);
  }
}

void FrugalNode::send_bundle(std::vector<Event> events,
                             DisseminationPhase phase) {
  FRUGAL_EXPECT(!events.empty());
  EventBundle bundle;
  bundle.sender = id_;
  bundle.presumed_receivers = neighborhood_.neighbor_ids();
  bundle.events = std::move(events);

  metrics_.events_sent += bundle.events.size();
  for (const Event& event : bundle.events) {
    for (NodeId neighbor : bundle.presumed_receivers) {
      neighborhood_.record_event(neighbor, event.id, event.expiry());
    }
    events_.increment_forward_count(event.id);
  }
  std::vector<EventId> carried;
  if (observer_ != nullptr) {
    carried.reserve(bundle.events.size());
    for (const Event& event : bundle.events) carried.push_back(event.id);
  }
  const std::uint64_t frame_id = broadcast(Message{std::move(bundle)});
  if (observer_ != nullptr) {
    observer_->annotate(frame_id, id_, phase, carried);
  }
}

void FrugalNode::publish(Event event) {
  const SimTime now = scheduler_.now();
  event.id = EventId{id_, next_seq_++};
  event.published_at = now;
  FRUGAL_EXPECT(event.validity.us() > 0);

  // Broadcast right away when at least one known neighbor is interested in
  // the event's topic (the publication path has no back-off).
  bool interested = false;
  for (const NeighborEntry* neighbor : neighborhood_.entries_by_id()) {
    if (neighbor->subscriptions.covers(event.topic)) {
      interested = true;
      break;
    }
  }
  if (interested) {
    send_bundle({event}, DisseminationPhase::kPublish);
    // send_bundle charged fwd(e) via the table, but the event is not stored
    // yet; re-apply after insertion below.
  }

  store(event, now);
  if (interested) events_.increment_forward_count(event.id);
  if (subscriptions_.covers(event.topic)) deliver(event);

  // Fig. 9 lines 50-52: a publisher keeps its neighborhood table collected
  // even when it never subscribed (and thus never started the tasks).
  if (neighborhood_gc_ == nullptr || !neighborhood_gc_->running()) {
    if (neighborhood_gc_ == nullptr) {
      neighborhood_gc_ = std::make_unique<sim::PeriodicTask>(
          scheduler_, ngc_delay_, [this] { run_neighborhood_gc(); });
    }
    neighborhood_gc_->set_period(ngc_delay_);
    neighborhood_gc_->start(ngc_delay_);
  }
}

void FrugalNode::on_event_bundle(const EventBundle& bundle) {
  sim::ProfileScope<"frugal.bundle"> profile{scheduler_.profiler()};
  const SimTime now = scheduler_.now();
  bool interested = false;

  for (const Event& event : bundle.events) {
    // The sender and every presumed receiver now (presumably) hold event.
    neighborhood_.record_event(bundle.sender, event.id, event.expiry());
    for (NodeId presumed : bundle.presumed_receivers) {
      neighborhood_.record_event(presumed, event.id, event.expiry());
    }

    if (!subscriptions_.covers(event.topic)) {
      metrics_.parasites += 1;  // dropped immediately (paper §3 phase 2)
      continue;
    }
    if (events_.contains(event.id)) {
      metrics_.duplicates += 1;
      continue;
    }
    // Its validity ran out while the frame was on air: of no use to the
    // application, and not to be relayed. Skipping it also leaves a pending
    // back-off alone, so repeated receipts of a stale copy cannot keep
    // deferring a transmission.
    if (!event.valid_at(now)) continue;
    // A valid newcomer is never the GC victim (EventTable collects it only
    // when strictly worse than every stored event, i.e. expired), so the
    // event is stored and can be relayed from here.
    store(event, now);
    interested = true;
    // A relevant event arrived: cancel the pending back-off; the send set is
    // recomputed below via RETRIEVEEVENTSTOSEND (Fig. 9 line 22).
    backoff_.cancel();
    bo_delay_ = std::nullopt;
    deliver(event);
  }

  if (interested) retrieve_events_to_send();
}

void FrugalNode::store(const Event& event, SimTime now) {
  const std::optional<EventId> victim = events_.insert(event, now);
  if (victim.has_value()) {
    ++metrics_.gc_evictions;
    if (observer_ != nullptr) observer_->on_gc_eviction(id_, *victim, now);
  }
}

void FrugalNode::deliver(const Event& event) {
  // An event can be re-stored after its table entry was collected while the
  // copy kept circulating; the application already saw it, so count it as a
  // duplicate and keep the first delivery time.
  if (!record_delivery(metrics_, event, scheduler_.now())) {
    metrics_.duplicates += 1;
  }
}

// --------------------------------------------------------------- Figure 10

void FrugalNode::run_neighborhood_gc() {
  sim::ProfileScope<"frugal.ngc"> profile{scheduler_.profiler()};
  const SimTime now = scheduler_.now();
  neighborhood_.collect(now, ngc_delay_);
  if (prune_slack_.has_value()) metrics_.prune_deliveries(now, *prune_slack_);
}

// ----------------------------------------------------------------- plumbing

void FrugalNode::on_frame(const net::Frame& frame) {
  const auto message =
      std::any_cast<std::shared_ptr<const Message>>(&frame.payload);
  if (message == nullptr || *message == nullptr) return;  // foreign traffic
  std::visit(
      [this](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Heartbeat>) {
          on_heartbeat(m);
        } else if constexpr (std::is_same_v<T, EventIdList>) {
          on_event_ids(m);
        } else {
          on_event_bundle(m);
        }
      },
      **message);
}

std::uint64_t FrugalNode::broadcast(Message message) {
  const std::uint32_t size = wire_size(message);
  return medium_.broadcast(
      id_, size,
      std::make_shared<const Message>(std::move(message)));
}

}  // namespace frugal::core
