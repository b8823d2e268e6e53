#include "telemetry/causal.hpp"

#include <algorithm>
#include <cinttypes>

#include "util/expect.hpp"

namespace frugal::telemetry {

const char* to_string(SubscriberOutcome outcome) {
  switch (outcome) {
    case SubscriberOutcome::kDelivered: return "delivered";
    case SubscriberOutcome::kDiedWithNode: return "died-with-node";
    case SubscriberOutcome::kMarooned: return "marooned";
    case SubscriberOutcome::kGcEvicted: return "gc-evicted";
    case SubscriberOutcome::kExpiredInTable: return "expired-in-table";
  }
  return "?";
}

const char* to_string(EdgeOutcome outcome) {
  switch (outcome) {
    case EdgeOutcome::kDelivered: return "delivered";
    case EdgeOutcome::kCollided: return "collided";
    case EdgeOutcome::kMissedBusy: return "missed-busy";
    case EdgeOutcome::kMissedAsleep: return "missed-asleep";
    case EdgeOutcome::kMissedDown: return "missed-down";
  }
  return "?";
}

const char* to_string(core::DisseminationPhase phase) {
  switch (phase) {
    case core::DisseminationPhase::kPublish: return "publish";
    case core::DisseminationPhase::kAdvert: return "advert";
    case core::DisseminationPhase::kRetrieveRequest: return "retrieve-request";
    case core::DisseminationPhase::kEventPush: return "event-push";
    case core::DisseminationPhase::kFloodForward: return "flood-forward";
    case core::DisseminationPhase::kGossipForward: return "gossip-forward";
  }
  return "?";
}

DisseminationTracer::DisseminationTracer(TracerConfig config)
    : config_{std::move(config)} {
  hops_sum_ = graph_.add<IntSum>();
  for (auto*& op : segment_sums_) op = graph_.add<IntSum>();
  for (auto*& op : outcome_counts_) op = graph_.add<Count>();
  receptions_op_ = graph_.add<Count>();
  deliveries_op_ = graph_.add<Count>();
  hop_sketch_ = graph_.add<QuantileSketchOp>();
  // Hop samples fan out to both the exact sum and the sketch.
  graph_.connect(hops_sum_, hop_sketch_);
}

DisseminationTracer::~DisseminationTracer() {
  if (trace_ != nullptr) {
    std::fclose(trace_);
    trace_ = nullptr;
  }
}

void DisseminationTracer::begin_run(const core::RunBinding& binding) {
  FRUGAL_EXPECT(!began_);
  FRUGAL_EXPECT(binding.node_count > 0);
  FRUGAL_EXPECT(binding.node_eligible != nullptr);
  binding_ = binding;
  began_ = true;
  last_delivered_.assign(binding_.node_count, LastDelivered{});
  node_up_.assign(binding_.node_count, true);
  stream_time_ = SimTime::zero();
  last_frame_prune_ = SimTime::zero();
  if (!config_.trace_path.empty()) {
    trace_ = std::fopen(config_.trace_path.c_str(), "w");
    if (trace_ != nullptr) {
      std::fprintf(trace_,
                   "{\"artifact\":\"dissem-trace\",\"node_count\":%zu,"
                   "\"bounded\":%s}\n",
                   binding_.node_count, config_.bounded ? "true" : "false");
    }
  }
}

void DisseminationTracer::on_publish(std::size_t /*index*/,
                                     const core::Event& event,
                                     std::uint32_t /*topic_index*/) {
  FRUGAL_EXPECT(began_ && !ended_);
  const SimTime at = event.published_at;
  advance_stream(at);
  auto live = std::make_unique<LiveEvent>();
  live->event = event;
  live->record.id = event.id;
  live->record.published_at = at;
  live->record.validity = event.validity;
  for (NodeId node = 0; node < binding_.node_count; ++node) {
    if (binding_.node_eligible(node, event)) live->eligible.push_back(node);
  }
  // The publisher holds the event from the instant of publication: hop
  // depth 0, acquisition time = publish time.
  PerNode& publisher = live->nodes[event.id.publisher];
  publisher.depth = 0;
  publisher.acq = at;
  publisher.offered = true;
  const core::EventId id = event.id;
  if (live_.try_emplace(id, std::move(live)).inserted) {
    order_.push_back(id);
    live_high_water_ = std::max(live_high_water_, order_.size());
  }
  if (perfetto_ != nullptr) {
    // Coincides with telemetry's "publish" instant on the publisher track.
    perfetto_->flow_start(id.publisher, "dissem", "dissem", at,
                          flow_id_of(id));
  }
}

void DisseminationTracer::on_delivery(NodeId node, const core::Event& event,
                                      SimTime at) {
  if (!began_ || ended_) return;
  advance_stream(at);
  LiveEvent* live_event = live(event.id);
  if (live_event == nullptr) {
    // Published before the tracer attached, or already retired: count it
    // separately so bounded and unbounded stats stay identical.
    late_deliveries_ += 1;
    return;
  }
  PerNode& state = live_event->nodes[node];
  if (state.delivered) return;  // defensive: callers report fresh only
  state.delivered = true;
  state.delivered_at = at;
  state.hops = state.depth != kDepthUnset ? state.depth : 0;
  live_event->record.deliveries += 1;

  // Latency decomposition via the clamped milestone chain
  // m0 (publish) <= m1 (last-hop carrier acquired) <= m2 (advert heard)
  // <= m3 (request sent) <= m4 (deliver): each segment >= 0 and the four
  // sum exactly to the delivery latency in integer microseconds.
  const SimTime m0 = live_event->record.published_at;
  SimTime m1 = m0;
  const LastDelivered& slot =
      node < last_delivered_.size() ? last_delivered_[node] : LastDelivered{};
  if (slot.end == at &&
      std::find(slot.event_ids.begin(), slot.event_ids.end(), event.id) !=
          slot.event_ids.end()) {
    const PerNode* carrier = live_event->nodes.find(slot.sender);
    if (carrier != nullptr && carrier->depth != kDepthUnset) {
      m1 = std::clamp(carrier->acq, m0, at);
    }
  }
  SimTime m2 = m1;
  if (state.advert_heard && state.advert_at <= at) {
    m2 = std::max(m1, state.advert_at);
  }
  SimTime m3 = m2;
  if (state.requested && state.request_at <= at) {
    m3 = std::max(m2, state.request_at);
  }
  state.segment_us[kSegPublishToCarry] = (m1 - m0).us();
  state.segment_us[kSegCarryToAdvert] = (m2 - m1).us();
  state.segment_us[kSegAdvertToRequest] = (m3 - m2).us();
  state.segment_us[kSegRequestToDeliver] = (at - m3).us();
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    live_event->record.segment_us[s] += state.segment_us[s];
  }
  if (perfetto_ != nullptr) {
    // Coincides with telemetry's "deliver" instant on the receiver track.
    perfetto_->flow_end(node, "dissem", "dissem", at, flow_id_of(event.id));
  }
}

void DisseminationTracer::on_gc_eviction(NodeId node, core::EventId victim,
                                         SimTime at) {
  static_cast<void>(node);
  if (!began_ || ended_) return;
  advance_stream(at);
  LiveEvent* live_event = live(victim);
  if (live_event != nullptr) live_event->gc_evicted = true;
}

void DisseminationTracer::annotate(std::uint64_t frame_id, NodeId sender,
                                   core::DisseminationPhase phase,
                                   const std::vector<core::EventId>& ids) {
  if (!began_ || ended_) return;
  PendingFrame pending;
  pending.sender = sender;
  pending.phase = phase;
  pending.event_ids = ids;
  frames_.try_emplace(frame_id, std::move(pending));
}

void DisseminationTracer::on_frame_sent(const net::Frame& frame, SimTime start,
                                        SimTime end) {
  if (!began_ || ended_) return;
  advance_stream(start);
  PendingFrame* pending = frames_.find(frame.id);
  if (pending == nullptr) return;  // unannotated (heartbeat) frame
  pending->sent = true;
  pending->start = start;
  pending->end = end;

  if (pending->phase == core::DisseminationPhase::kAdvert ||
      pending->phase == core::DisseminationPhase::kRetrieveRequest) {
    // An id-list transmission is the sender's "retrieve request" for every
    // live event it heard advertised but has not yet received: the reply
    // that triggers the holder's RETRIEVEEVENTSTOSEND.
    for (const core::EventId& id : order_) {
      LiveEvent* live_event = live(id);
      if (live_event == nullptr) continue;
      PerNode* state = live_event->nodes.find(pending->sender);
      if (state == nullptr || !state->advert_heard || state->requested ||
          state->delivered) {
        continue;
      }
      if (start < state->advert_at) continue;
      state->requested = true;
      state->request_at = start;
    }
  }

  if (perfetto_ != nullptr && carries_events(pending->phase)) {
    for (const core::EventId& id : pending->event_ids) {
      if (live(id) != nullptr) {
        // Coincides with telemetry's "tx" span start on the sender track.
        perfetto_->flow_step(pending->sender, "dissem", "dissem", start,
                             flow_id_of(id));
      }
    }
  }
}

void DisseminationTracer::on_frame_dropped(const net::Frame& frame,
                                           SimTime at) {
  if (!began_ || ended_) return;
  advance_stream(at);
  frames_.erase(frame.id);
}

void DisseminationTracer::record_edge(const PendingFrame& pending,
                                      std::uint64_t frame_id, NodeId receiver,
                                      EdgeOutcome outcome, SimTime at) {
  for (const core::EventId& id : pending.event_ids) {
    LiveEvent* live_event = live(id);
    if (live_event == nullptr) continue;
    EdgeRecord edge;
    edge.frame_id = frame_id;
    edge.phase = pending.phase;
    edge.from = pending.sender;
    edge.to = receiver;
    edge.sent = pending.sent ? pending.start : at;
    edge.at = at;
    edge.outcome = outcome;
    live_event->record.edges.push_back(edge);
    live_event->nodes[receiver].offered = true;
  }
}

void DisseminationTracer::on_frame_delivered(const net::Frame& frame,
                                             NodeId receiver, SimTime end) {
  if (!began_ || ended_) return;
  advance_stream(end);
  PendingFrame* pending = frames_.find(frame.id);
  if (pending == nullptr) return;
  record_edge(*pending, frame.id, receiver, EdgeOutcome::kDelivered, end);

  if (carries_events(pending->phase)) {
    for (const core::EventId& id : pending->event_ids) {
      LiveEvent* live_event = live(id);
      if (live_event == nullptr) continue;
      live_event->record.receptions += 1;
      if (!live_event->record.has_first_carry) {
        live_event->record.has_first_carry = true;
        live_event->record.first_carry = end;
      }
      // Hop depth: first intact acquisition wins; depth = carrier + 1.
      PerNode& state = live_event->nodes[receiver];
      if (state.depth == kDepthUnset) {
        const PerNode* carrier = live_event->nodes.find(pending->sender);
        const std::uint32_t carrier_depth =
            carrier != nullptr && carrier->depth != kDepthUnset
                ? carrier->depth
                : 0;
        state.depth = carrier_depth + 1;
        state.acq = end;
      }
    }
    if (receiver < last_delivered_.size()) {
      LastDelivered& slot = last_delivered_[receiver];
      slot.end = end;
      slot.sender = pending->sender;
      slot.frame_id = frame.id;
      slot.event_ids = pending->event_ids;
    }
  } else {
    // Advert frames: first advert containing a live event marks the
    // receiver's advert-heard milestone.
    for (const core::EventId& id : pending->event_ids) {
      LiveEvent* live_event = live(id);
      if (live_event == nullptr) continue;
      PerNode& state = live_event->nodes[receiver];
      if (!state.advert_heard) {
        state.advert_heard = true;
        state.advert_at = end;
      }
    }
  }
}

void DisseminationTracer::on_frame_collided(const net::Frame& frame,
                                            NodeId receiver, SimTime end) {
  if (!began_ || ended_) return;
  advance_stream(end);
  const PendingFrame* pending = frames_.find(frame.id);
  if (pending == nullptr) return;
  record_edge(*pending, frame.id, receiver, EdgeOutcome::kCollided, end);
}

void DisseminationTracer::on_frame_missed(const net::Frame& frame,
                                          NodeId receiver,
                                          net::FrameLossReason reason,
                                          SimTime at) {
  if (!began_ || ended_) return;
  advance_stream(at);
  const PendingFrame* pending = frames_.find(frame.id);
  if (pending == nullptr) return;
  EdgeOutcome outcome = EdgeOutcome::kMissedDown;
  switch (reason) {
    case net::FrameLossReason::kBusy:
      outcome = EdgeOutcome::kMissedBusy;
      break;
    case net::FrameLossReason::kAsleep:
      outcome = EdgeOutcome::kMissedAsleep;
      break;
    case net::FrameLossReason::kDown:
      outcome = EdgeOutcome::kMissedDown;
      break;
  }
  record_edge(*pending, frame.id, receiver, outcome, at);
}

void DisseminationTracer::on_up_changed(NodeId node, bool up, SimTime at) {
  if (!began_ || ended_) return;
  advance_stream(at);
  if (node < node_up_.size()) node_up_[node] = up;
}

void DisseminationTracer::advance_stream(SimTime at) {
  if (at < stream_time_) return;  // defensive; the stream is monotone
  stream_time_ = at;
  retire_front(at);
  // Prune annotations of frames whose last receiver callback has passed.
  // Amortized: a sweep at most once per simulated second.
  if (stream_time_ - last_frame_prune_ >= SimDuration::from_seconds(1.0)) {
    last_frame_prune_ = stream_time_;
    const SimTime cutoff = stream_time_;
    frames_.erase_if([cutoff](const auto& entry) {
      return entry.second.sent && entry.second.end < cutoff;
    });
  }
}

void DisseminationTracer::retire_front(SimTime now) {
  while (!order_.empty()) {
    const core::EventId id = order_.front();
    LiveEvent* live_event = live(id);
    if (live_event == nullptr) {
      order_.pop_front();
      continue;
    }
    const SimTime expiry =
        live_event->record.published_at + live_event->record.validity;
    if (expiry > now) break;
    order_.pop_front();

    // Decide each eligible subscriber's terminal outcome (ascending id).
    EventRecord& record = live_event->record;
    for (NodeId node : live_event->eligible) {
      SubscriberRecord row;
      row.node = node;
      row.at = expiry;
      const PerNode* state = live_event->nodes.find(node);
      if (state != nullptr && state->delivered) {
        row.outcome = SubscriberOutcome::kDelivered;
        row.at = state->delivered_at;
        row.hops = state->hops;
      } else if (node < node_up_.size() && !node_up_[node]) {
        row.outcome = SubscriberOutcome::kDiedWithNode;
      } else if (state == nullptr || !state->offered) {
        row.outcome = SubscriberOutcome::kMarooned;
      } else if (live_event->gc_evicted) {
        row.outcome = SubscriberOutcome::kGcEvicted;
      } else {
        row.outcome = SubscriberOutcome::kExpiredInTable;
      }
      record.subscribers.push_back(row);
    }

    fold_stats(record);
    write_record(record);
    if (!config_.bounded) retired_.push_back(std::move(record));
    live_.erase(id);
  }
}

void DisseminationTracer::fold_stats(const EventRecord& record) {
  stats_.events += 1;
  stats_.receptions += record.receptions;
  for (std::uint64_t i = 0; i < record.receptions; ++i) {
    graph_.feed(receptions_op_, record.published_at, 1.0);
  }
  stats_.delivered += record.deliveries;
  for (std::uint64_t i = 0; i < record.deliveries; ++i) {
    graph_.feed(deliveries_op_, record.published_at, 1.0);
  }
  stats_.eligible += record.subscribers.size();
  for (const SubscriberRecord& row : record.subscribers) {
    graph_.feed(outcome_counts_[static_cast<std::size_t>(row.outcome)],
                row.at, 1.0);
    if (row.outcome == SubscriberOutcome::kDelivered) {
      // feed() pushes through hops_sum_ into the KLL sketch downstream.
      graph_.feed(hops_sum_, row.at, static_cast<double>(row.hops));
    }
  }
  if (record.deliveries > 0) {
    stats_.segment_count += record.deliveries;
    for (std::size_t s = 0; s < kSegmentCount; ++s) {
      segment_sums_[s]->add(record.segment_us[s]);
      stats_.segment_us[s] += record.segment_us[s];
    }
  }
}

void DisseminationTracer::write_record(const EventRecord& record) {
  if (trace_ == nullptr) return;
  std::fprintf(trace_,
               "{\"event\":{\"publisher\":%u,\"seq\":%u},"
               "\"published_at_s\":%.6f,\"validity_s\":%.6f",
               record.id.publisher, record.id.seq,
               record.published_at.seconds(), record.validity.seconds());
  std::fputs(",\"edges\":[", trace_);
  bool first = true;
  for (const EdgeRecord& edge : record.edges) {
    if (!first) std::fputc(',', trace_);
    first = false;
    std::fprintf(trace_,
                 "{\"frame\":%" PRIu64
                 ",\"phase\":\"%s\",\"from\":%u,\"to\":%u,"
                 "\"sent_s\":%.6f,\"at_s\":%.6f,\"outcome\":\"%s\"}",
                 edge.frame_id, to_string(edge.phase), edge.from, edge.to,
                 edge.sent.seconds(), edge.at.seconds(),
                 to_string(edge.outcome));
  }
  std::fputs("],\"subscribers\":[", trace_);
  first = true;
  for (const SubscriberRecord& row : record.subscribers) {
    if (!first) std::fputc(',', trace_);
    first = false;
    std::fprintf(trace_,
                 "{\"node\":%u,\"outcome\":\"%s\",\"at_s\":%.6f,"
                 "\"hops\":%u}",
                 row.node, to_string(row.outcome), row.at.seconds(),
                 row.hops);
  }
  std::fprintf(trace_,
               "],\"receptions\":%" PRIu64 ",\"deliveries\":%" PRIu64,
               record.receptions, record.deliveries);
  if (record.has_first_carry) {
    std::fprintf(trace_, ",\"first_carry_s\":%.6f",
                 record.first_carry.seconds());
  }
  std::fprintf(trace_,
               ",\"segments_us\":{\"publish_to_carry\":%" PRId64
               ",\"carry_to_advert\":%" PRId64
               ",\"advert_to_request\":%" PRId64
               ",\"request_to_deliver\":%" PRId64 "}}\n",
               record.segment_us[kSegPublishToCarry],
               record.segment_us[kSegCarryToAdvert],
               record.segment_us[kSegAdvertToRequest],
               record.segment_us[kSegRequestToDeliver]);
}

void DisseminationTracer::end_run(SimTime run_end) {
  FRUGAL_EXPECT(began_);
  if (ended_) return;
  advance_stream(run_end);
  // Retire everything still live, in publish order, regardless of expiry:
  // the run horizon is the final observation point.
  while (!order_.empty()) {
    const core::EventId id = order_.front();
    LiveEvent* live_event = live(id);
    if (live_event == nullptr) {
      order_.pop_front();
      continue;
    }
    // Force-retire by pretending the stream reached the expiry.
    const SimTime expiry =
        live_event->record.published_at + live_event->record.validity;
    retire_front(std::max(run_end, expiry));
  }
  ended_ = true;

  stats_.late_deliveries = late_deliveries_;
  stats_.hops_count = hops_sum_->count();
  stats_.hops_total = hops_sum_->total();
  const stats::KllSketch& sketch = hop_sketch_->sketch();
  if (!sketch.empty()) {
    stats_.hops_p50 = sketch.quantile(0.5);
    stats_.hops_p95 = sketch.quantile(0.95);
    stats_.hops_max = sketch.quantile(1.0);
  }
  // Cross-check the operator-graph carriers against the struct fields the
  // folds maintained in lockstep.
  FRUGAL_EXPECT(stats_.receptions == receptions_op_->count());
  FRUGAL_EXPECT(stats_.delivered == deliveries_op_->count());
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    FRUGAL_EXPECT(stats_.segment_us[s] == segment_sums_[s]->total());
  }
  for (std::size_t o = 0; o < kSubscriberOutcomeCount; ++o) {
    stats_.outcomes[o] = outcome_counts_[o]->count();
  }

  if (trace_ != nullptr) {
    std::fclose(trace_);
    trace_ = nullptr;
  }
}

}  // namespace frugal::telemetry
