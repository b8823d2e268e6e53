// Causal-dissemination-trace equivalence and property tests.
//
// The load-bearing claim of telemetry/causal.hpp: the *streaming* tracer —
// which retires events on the fly, prunes stale frame annotations and keeps
// only bounded live state — produces exactly the per-event DAGs that a naive
// batch pass over the raw callback stream produces. A shim subclass records
// every run-observer callback the tracer consumes verbatim while
// forwarding to the real tracer, and an independent batch reconstruction
// over the captured stream is compared edge-for-edge, outcome-for-outcome
// against records().
//
// On top of the equality proof: outcome-partition totality (every eligible
// subscriber of every event gets exactly one terminal outcome), delivery
// cross-checks against RunResult's materialized delivery times, the exact
// segment-sum latency-decomposition invariant, bounded-mode stats identity,
// and energy / duty-cycle corpora exercising the died-with-node and
// missed-asleep paths the golden corpus alone would not reach.

#include "telemetry/causal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "energy/energy.hpp"
#include "golden_trace.hpp"

namespace frugal::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Raw-stream capture: a shim that logs every tracer input verbatim.

enum class RawKind : std::uint8_t {
  kAnnotate,
  kSent,
  kDropped,
  kDelivered,
  kCollided,
  kMissed,
  kUpChanged,
  kPublish,
  kDelivery,
  kGc,
  kEndRun,
};

struct RawEntry {
  RawKind kind = RawKind::kEndRun;
  std::uint64_t frame_id = 0;
  /// Sender for kAnnotate, receiver for frame fates, the flipped node for
  /// kUpChanged, the delivering/evicting node for kDelivery/kGc.
  NodeId node = kInvalidNode;
  bool up = false;
  net::FrameLossReason reason = net::FrameLossReason::kBusy;
  core::DisseminationPhase phase = core::DisseminationPhase::kPublish;
  std::vector<core::EventId> ids;
  core::Event event;  ///< kPublish / kDelivery payload
  SimTime t0;         ///< at / airtime start / run_end
  SimTime t1;         ///< airtime end (kSent only)
};

class CapturingTracer : public DisseminationTracer {
 public:
  using DisseminationTracer::DisseminationTracer;

  std::vector<RawEntry> log;

  void annotate(std::uint64_t frame_id, NodeId sender,
                core::DisseminationPhase phase,
                const std::vector<core::EventId>& ids) override {
    RawEntry entry;
    entry.kind = RawKind::kAnnotate;
    entry.frame_id = frame_id;
    entry.node = sender;
    entry.phase = phase;
    entry.ids = ids;
    log.push_back(std::move(entry));
    DisseminationTracer::annotate(frame_id, sender, phase, ids);
  }

  void on_frame_sent(const net::Frame& frame, SimTime start,
                     SimTime end) override {
    RawEntry entry;
    entry.kind = RawKind::kSent;
    entry.frame_id = frame.id;
    entry.t0 = start;
    entry.t1 = end;
    log.push_back(std::move(entry));
    DisseminationTracer::on_frame_sent(frame, start, end);
  }

  void on_frame_dropped(const net::Frame& frame, SimTime at) override {
    RawEntry entry;
    entry.kind = RawKind::kDropped;
    entry.frame_id = frame.id;
    entry.t0 = at;
    log.push_back(std::move(entry));
    DisseminationTracer::on_frame_dropped(frame, at);
  }

  void on_frame_delivered(const net::Frame& frame, NodeId receiver,
                          SimTime end) override {
    RawEntry entry;
    entry.kind = RawKind::kDelivered;
    entry.frame_id = frame.id;
    entry.node = receiver;
    entry.t0 = end;
    log.push_back(std::move(entry));
    DisseminationTracer::on_frame_delivered(frame, receiver, end);
  }

  void on_frame_collided(const net::Frame& frame, NodeId receiver,
                         SimTime end) override {
    RawEntry entry;
    entry.kind = RawKind::kCollided;
    entry.frame_id = frame.id;
    entry.node = receiver;
    entry.t0 = end;
    log.push_back(std::move(entry));
    DisseminationTracer::on_frame_collided(frame, receiver, end);
  }

  void on_frame_missed(const net::Frame& frame, NodeId receiver,
                       net::FrameLossReason reason, SimTime at) override {
    RawEntry entry;
    entry.kind = RawKind::kMissed;
    entry.frame_id = frame.id;
    entry.node = receiver;
    entry.reason = reason;
    entry.t0 = at;
    log.push_back(std::move(entry));
    DisseminationTracer::on_frame_missed(frame, receiver, reason, at);
  }

  void on_up_changed(NodeId node, bool up, SimTime at) override {
    RawEntry entry;
    entry.kind = RawKind::kUpChanged;
    entry.node = node;
    entry.up = up;
    entry.t0 = at;
    log.push_back(std::move(entry));
    DisseminationTracer::on_up_changed(node, up, at);
  }

  void on_publish(std::size_t index, const core::Event& event,
                  std::uint32_t topic_index) override {
    RawEntry entry;
    entry.kind = RawKind::kPublish;
    entry.event = event;
    entry.t0 = event.published_at;
    log.push_back(std::move(entry));
    DisseminationTracer::on_publish(index, event, topic_index);
  }

  void on_delivery(NodeId node, const core::Event& event,
                   SimTime at) override {
    RawEntry entry;
    entry.kind = RawKind::kDelivery;
    entry.node = node;
    entry.event = event;
    entry.t0 = at;
    log.push_back(std::move(entry));
    DisseminationTracer::on_delivery(node, event, at);
  }

  void on_gc_eviction(NodeId node, core::EventId victim, SimTime at) override {
    RawEntry entry;
    entry.kind = RawKind::kGc;
    entry.node = node;
    entry.ids.push_back(victim);
    entry.t0 = at;
    log.push_back(std::move(entry));
    DisseminationTracer::on_gc_eviction(node, victim, at);
  }

  void end_run(SimTime run_end) override {
    RawEntry entry;
    entry.kind = RawKind::kEndRun;
    entry.t0 = run_end;
    log.push_back(std::move(entry));
    DisseminationTracer::end_run(run_end);
  }
};

// ---------------------------------------------------------------------------
// Independent batch reconstruction over the captured stream. Deliberately
// naive: plain std::map state, no pruning, no bounded-memory tricks — the
// rules of causal.hpp re-stated from scratch so a bookkeeping bug in the
// streaming implementation (deque management, annotation pruning, retirement
// ordering) shows up as an equality failure here.

constexpr std::uint32_t kUnsetDepth = ~0u;

bool batch_carries_events(core::DisseminationPhase phase) {
  return phase == core::DisseminationPhase::kPublish ||
         phase == core::DisseminationPhase::kEventPush ||
         phase == core::DisseminationPhase::kFloodForward ||
         phase == core::DisseminationPhase::kGossipForward;
}

struct BatchNodeState {
  std::uint32_t depth = kUnsetDepth;
  SimTime acq;
  bool offered = false;
  bool advert_heard = false;
  SimTime advert_at;
  bool requested = false;
  SimTime request_at;
  bool delivered = false;
  SimTime delivered_at;
  std::uint32_t hops = 0;
};

struct BatchLive {
  EventRecord record;  ///< edges / counters accumulate straight into this
  std::vector<NodeId> eligible;
  std::map<NodeId, BatchNodeState> nodes;
  bool gc_evicted = false;
};

struct BatchFrame {
  NodeId sender = kInvalidNode;
  core::DisseminationPhase phase = core::DisseminationPhase::kPublish;
  std::vector<core::EventId> ids;
  bool sent = false;
  SimTime start;
  SimTime end;
};

struct BatchSlot {
  SimTime end = SimTime::from_us(-1);
  NodeId sender = kInvalidNode;
  std::vector<core::EventId> ids;
};

struct BatchOutput {
  std::vector<EventRecord> retired;
  std::uint64_t late_deliveries = 0;
};

/// Eligibility re-derived from the run's own collected outcome tables — an
/// input source independent of the tracer's begin_run binding.
std::vector<NodeId> eligible_from_result(const core::RunResult& result,
                                         const core::Event& event) {
  std::vector<NodeId> out;
  for (std::size_t n = 0; n < result.nodes.size(); ++n) {
    const core::NodeOutcome& node = result.nodes[n];
    if (node.subscribed && node.subscriptions.covers(event.topic)) {
      out.push_back(static_cast<NodeId>(n));
    }
  }
  return out;
}

BatchOutput reconstruct(const std::vector<RawEntry>& log,
                        const core::RunResult& result,
                        std::size_t node_count) {
  BatchOutput out;
  SimTime clock = SimTime::zero();
  std::map<core::EventId, BatchLive> live;
  std::deque<core::EventId> order;
  std::map<std::uint64_t, BatchFrame> frames;
  std::vector<bool> node_up(node_count, true);
  std::vector<BatchSlot> slots(node_count);

  const auto find_live = [&live](core::EventId id) -> BatchLive* {
    auto it = live.find(id);
    return it == live.end() ? nullptr : &it->second;
  };

  const auto retire = [&](SimTime now) {
    while (!order.empty()) {
      const core::EventId id = order.front();
      BatchLive* event = find_live(id);
      if (event == nullptr) {
        order.pop_front();
        continue;
      }
      const SimTime expiry =
          event->record.published_at + event->record.validity;
      if (expiry > now) break;
      order.pop_front();
      for (NodeId n : event->eligible) {
        SubscriberRecord row;
        row.node = n;
        row.at = expiry;
        auto it = event->nodes.find(n);
        const BatchNodeState* state =
            it == event->nodes.end() ? nullptr : &it->second;
        if (state != nullptr && state->delivered) {
          row.outcome = SubscriberOutcome::kDelivered;
          row.at = state->delivered_at;
          row.hops = state->hops;
        } else if (!node_up[n]) {
          row.outcome = SubscriberOutcome::kDiedWithNode;
        } else if (state == nullptr || !state->offered) {
          row.outcome = SubscriberOutcome::kMarooned;
        } else if (event->gc_evicted) {
          row.outcome = SubscriberOutcome::kGcEvicted;
        } else {
          row.outcome = SubscriberOutcome::kExpiredInTable;
        }
        event->record.subscribers.push_back(row);
      }
      out.retired.push_back(std::move(event->record));
      live.erase(id);
    }
  };

  const auto advance = [&](SimTime at) {
    if (at < clock) return;
    clock = at;
    retire(at);
  };

  const auto record_edge = [&](const BatchFrame& frame,
                               std::uint64_t frame_id, NodeId receiver,
                               EdgeOutcome outcome, SimTime at) {
    for (const core::EventId& id : frame.ids) {
      BatchLive* event = find_live(id);
      if (event == nullptr) continue;
      EdgeRecord edge;
      edge.frame_id = frame_id;
      edge.phase = frame.phase;
      edge.from = frame.sender;
      edge.to = receiver;
      edge.sent = frame.sent ? frame.start : at;
      edge.at = at;
      edge.outcome = outcome;
      event->record.edges.push_back(edge);
      event->nodes[receiver].offered = true;
    }
  };

  for (const RawEntry& entry : log) {
    switch (entry.kind) {
      case RawKind::kAnnotate: {
        BatchFrame frame;
        frame.sender = entry.node;
        frame.phase = entry.phase;
        frame.ids = entry.ids;
        frames.try_emplace(entry.frame_id, std::move(frame));
        break;
      }
      case RawKind::kSent: {
        advance(entry.t0);
        auto it = frames.find(entry.frame_id);
        if (it == frames.end()) break;
        BatchFrame& frame = it->second;
        frame.sent = true;
        frame.start = entry.t0;
        frame.end = entry.t1;
        if (frame.phase == core::DisseminationPhase::kAdvert ||
            frame.phase == core::DisseminationPhase::kRetrieveRequest) {
          for (const core::EventId& id : order) {
            BatchLive* event = find_live(id);
            if (event == nullptr) continue;
            auto node_it = event->nodes.find(frame.sender);
            if (node_it == event->nodes.end()) continue;
            BatchNodeState& state = node_it->second;
            if (!state.advert_heard || state.requested || state.delivered) {
              continue;
            }
            if (entry.t0 < state.advert_at) continue;
            state.requested = true;
            state.request_at = entry.t0;
          }
        }
        break;
      }
      case RawKind::kDropped: {
        advance(entry.t0);
        frames.erase(entry.frame_id);
        break;
      }
      case RawKind::kDelivered: {
        advance(entry.t0);
        auto it = frames.find(entry.frame_id);
        if (it == frames.end()) break;
        const BatchFrame& frame = it->second;
        record_edge(frame, entry.frame_id, entry.node, EdgeOutcome::kDelivered,
                    entry.t0);
        if (batch_carries_events(frame.phase)) {
          for (const core::EventId& id : frame.ids) {
            BatchLive* event = find_live(id);
            if (event == nullptr) continue;
            event->record.receptions += 1;
            if (!event->record.has_first_carry) {
              event->record.has_first_carry = true;
              event->record.first_carry = entry.t0;
            }
            BatchNodeState& state = event->nodes[entry.node];
            if (state.depth == kUnsetDepth) {
              auto carrier_it = event->nodes.find(frame.sender);
              const std::uint32_t carrier_depth =
                  carrier_it != event->nodes.end() &&
                          carrier_it->second.depth != kUnsetDepth
                      ? carrier_it->second.depth
                      : 0;
              state.depth = carrier_depth + 1;
              state.acq = entry.t0;
            }
          }
          if (entry.node < slots.size()) {
            BatchSlot& slot = slots[entry.node];
            slot.end = entry.t0;
            slot.sender = frame.sender;
            slot.ids = frame.ids;
          }
        } else {
          for (const core::EventId& id : frame.ids) {
            BatchLive* event = find_live(id);
            if (event == nullptr) continue;
            BatchNodeState& state = event->nodes[entry.node];
            if (!state.advert_heard) {
              state.advert_heard = true;
              state.advert_at = entry.t0;
            }
          }
        }
        break;
      }
      case RawKind::kCollided: {
        advance(entry.t0);
        auto it = frames.find(entry.frame_id);
        if (it == frames.end()) break;
        record_edge(it->second, entry.frame_id, entry.node,
                    EdgeOutcome::kCollided, entry.t0);
        break;
      }
      case RawKind::kMissed: {
        advance(entry.t0);
        auto it = frames.find(entry.frame_id);
        if (it == frames.end()) break;
        EdgeOutcome outcome = EdgeOutcome::kMissedDown;
        if (entry.reason == net::FrameLossReason::kBusy) {
          outcome = EdgeOutcome::kMissedBusy;
        } else if (entry.reason == net::FrameLossReason::kAsleep) {
          outcome = EdgeOutcome::kMissedAsleep;
        }
        record_edge(it->second, entry.frame_id, entry.node, outcome, entry.t0);
        break;
      }
      case RawKind::kUpChanged: {
        advance(entry.t0);
        if (entry.node < node_up.size()) node_up[entry.node] = entry.up;
        break;
      }
      case RawKind::kPublish: {
        advance(entry.t0);
        BatchLive event;
        event.record.id = entry.event.id;
        event.record.published_at = entry.t0;
        event.record.validity = entry.event.validity;
        event.eligible = eligible_from_result(result, entry.event);
        BatchNodeState& publisher = event.nodes[entry.event.id.publisher];
        publisher.depth = 0;
        publisher.acq = entry.t0;
        publisher.offered = true;
        const core::EventId id = entry.event.id;
        if (live.try_emplace(id, std::move(event)).second) {
          order.push_back(id);
        }
        break;
      }
      case RawKind::kDelivery: {
        advance(entry.t0);
        BatchLive* event = find_live(entry.event.id);
        if (event == nullptr) {
          out.late_deliveries += 1;
          break;
        }
        BatchNodeState& state = event->nodes[entry.node];
        if (state.delivered) break;
        state.delivered = true;
        state.delivered_at = entry.t0;
        state.hops = state.depth != kUnsetDepth ? state.depth : 0;
        event->record.deliveries += 1;
        const SimTime m0 = event->record.published_at;
        SimTime m1 = m0;
        const BatchSlot& slot =
            entry.node < slots.size() ? slots[entry.node] : BatchSlot{};
        if (slot.end == entry.t0 &&
            std::find(slot.ids.begin(), slot.ids.end(), entry.event.id) !=
                slot.ids.end()) {
          auto carrier_it = event->nodes.find(slot.sender);
          if (carrier_it != event->nodes.end() &&
              carrier_it->second.depth != kUnsetDepth) {
            m1 = std::clamp(carrier_it->second.acq, m0, entry.t0);
          }
        }
        SimTime m2 = m1;
        if (state.advert_heard && state.advert_at <= entry.t0) {
          m2 = std::max(m1, state.advert_at);
        }
        SimTime m3 = m2;
        if (state.requested && state.request_at <= entry.t0) {
          m3 = std::max(m2, state.request_at);
        }
        event->record.segment_us[kSegPublishToCarry] += (m1 - m0).us();
        event->record.segment_us[kSegCarryToAdvert] += (m2 - m1).us();
        event->record.segment_us[kSegAdvertToRequest] += (m3 - m2).us();
        event->record.segment_us[kSegRequestToDeliver] += (entry.t0 - m3).us();
        break;
      }
      case RawKind::kGc: {
        advance(entry.t0);
        BatchLive* event = find_live(entry.ids.front());
        if (event != nullptr) event->gc_evicted = true;
        break;
      }
      case RawKind::kEndRun: {
        advance(entry.t0);
        while (!order.empty()) {
          BatchLive* event = find_live(order.front());
          if (event == nullptr) {
            order.pop_front();
            continue;
          }
          const SimTime expiry =
              event->record.published_at + event->record.validity;
          retire(std::max(entry.t0, expiry));
        }
        return out;  // the streaming tracer ignores post-end callbacks
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Comparison helpers.

void expect_records_equal(const std::vector<EventRecord>& streamed,
                          const std::vector<EventRecord>& batch) {
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t r = 0; r < streamed.size(); ++r) {
    SCOPED_TRACE("record " + std::to_string(r));
    const EventRecord& a = streamed[r];
    const EventRecord& b = batch[r];
    EXPECT_EQ(a.id.publisher, b.id.publisher);
    EXPECT_EQ(a.id.seq, b.id.seq);
    EXPECT_EQ(a.published_at.us(), b.published_at.us());
    EXPECT_EQ(a.validity.us(), b.validity.us());
    EXPECT_EQ(a.receptions, b.receptions);
    EXPECT_EQ(a.deliveries, b.deliveries);
    EXPECT_EQ(a.has_first_carry, b.has_first_carry);
    if (a.has_first_carry && b.has_first_carry) {
      EXPECT_EQ(a.first_carry.us(), b.first_carry.us());
    }
    for (std::size_t s = 0; s < kSegmentCount; ++s) {
      EXPECT_EQ(a.segment_us[s], b.segment_us[s]) << "segment " << s;
    }
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t e = 0; e < a.edges.size(); ++e) {
      SCOPED_TRACE("edge " + std::to_string(e));
      EXPECT_EQ(a.edges[e].frame_id, b.edges[e].frame_id);
      EXPECT_STREQ(to_string(a.edges[e].phase), to_string(b.edges[e].phase));
      EXPECT_EQ(a.edges[e].from, b.edges[e].from);
      EXPECT_EQ(a.edges[e].to, b.edges[e].to);
      EXPECT_EQ(a.edges[e].sent.us(), b.edges[e].sent.us());
      EXPECT_EQ(a.edges[e].at.us(), b.edges[e].at.us());
      EXPECT_STREQ(to_string(a.edges[e].outcome),
                   to_string(b.edges[e].outcome));
    }
    ASSERT_EQ(a.subscribers.size(), b.subscribers.size());
    for (std::size_t n = 0; n < a.subscribers.size(); ++n) {
      SCOPED_TRACE("subscriber " + std::to_string(n));
      EXPECT_EQ(a.subscribers[n].node, b.subscribers[n].node);
      EXPECT_STREQ(to_string(a.subscribers[n].outcome),
                   to_string(b.subscribers[n].outcome));
      EXPECT_EQ(a.subscribers[n].at.us(), b.subscribers[n].at.us());
      EXPECT_EQ(a.subscribers[n].hops, b.subscribers[n].hops);
    }
  }
}

DisseminationStats derive_stats(const BatchOutput& batch) {
  DisseminationStats stats;
  for (const EventRecord& record : batch.retired) {
    stats.events += 1;
    stats.receptions += record.receptions;
    stats.delivered += record.deliveries;
    stats.eligible += record.subscribers.size();
    for (const SubscriberRecord& row : record.subscribers) {
      stats.outcomes[static_cast<std::size_t>(row.outcome)] += 1;
      if (row.outcome == SubscriberOutcome::kDelivered) {
        stats.hops_count += 1;
        stats.hops_total += row.hops;
      }
    }
    if (record.deliveries > 0) {
      stats.segment_count += record.deliveries;
      for (std::size_t s = 0; s < kSegmentCount; ++s) {
        stats.segment_us[s] += record.segment_us[s];
      }
    }
  }
  stats.late_deliveries = batch.late_deliveries;
  return stats;
}

void expect_core_stats_equal(const DisseminationStats& a,
                             const DisseminationStats& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.eligible, b.eligible);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.receptions, b.receptions);
  EXPECT_EQ(a.late_deliveries, b.late_deliveries);
  for (std::size_t o = 0; o < kSubscriberOutcomeCount; ++o) {
    EXPECT_EQ(a.outcomes[o], b.outcomes[o]) << "outcome " << o;
  }
  EXPECT_EQ(a.hops_count, b.hops_count);
  EXPECT_EQ(a.hops_total, b.hops_total);
  EXPECT_EQ(a.segment_count, b.segment_count);
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    EXPECT_EQ(a.segment_us[s], b.segment_us[s]) << "segment " << s;
  }
}

struct ScenarioOutcome {
  core::RunResult result;
  std::vector<EventRecord> streamed;
  DisseminationStats stats;
  std::size_t high_water = 0;
  BatchOutput batch;
};

/// Runs the scenario once with the capturing shim attached, reconstructs the
/// DAGs from the captured raw stream, and asserts streaming == batch plus
/// the structural properties. Out-parameter because ASSERT_* needs a void
/// function.
void verify_scenario(const std::string& name, core::ExperimentConfig config,
                     ScenarioOutcome& out) {
  SCOPED_TRACE(name);
  CapturingTracer tracer;
  config.dissem_tracer = &tracer;
  out.result = core::run_experiment(config);
  out.streamed = tracer.records();
  out.stats = tracer.stats();
  out.high_water = tracer.live_event_high_water();

  // The dissem aggregates travel into RunResult.
  ASSERT_TRUE(out.result.dissem.has_value());
  expect_core_stats_equal(*out.result.dissem, out.stats);

  // Streaming == batch, record for record.
  out.batch = reconstruct(tracer.log, out.result, config.node_count);
  expect_records_equal(out.streamed, out.batch.retired);

  // The folded run stats match a from-scratch fold over the batch records.
  const DisseminationStats derived = derive_stats(out.batch);
  expect_core_stats_equal(out.stats, derived);

  // KLL hop quantiles: monotone and inside the exact hop range.
  std::vector<std::uint32_t> hop_samples;
  for (const EventRecord& record : out.streamed) {
    for (const SubscriberRecord& row : record.subscribers) {
      if (row.outcome == SubscriberOutcome::kDelivered) {
        hop_samples.push_back(row.hops);
      }
    }
  }
  if (hop_samples.empty()) {
    EXPECT_EQ(out.stats.hops_count, 0u);
  } else {
    const auto [min_it, max_it] =
        std::minmax_element(hop_samples.begin(), hop_samples.end());
    EXPECT_LE(out.stats.hops_p50, out.stats.hops_p95);
    EXPECT_LE(out.stats.hops_p95, out.stats.hops_max);
    EXPECT_GE(out.stats.hops_p50, static_cast<double>(*min_it));
    EXPECT_LE(out.stats.hops_max, static_cast<double>(*max_it));
  }

  // Property: the terminal outcomes are a total partition — every eligible
  // subscriber appears exactly once, and the outcome histogram exhausts the
  // eligible count (per event and in the run stats).
  std::uint64_t eligible_total = 0;
  for (std::size_t r = 0; r < out.streamed.size(); ++r) {
    SCOPED_TRACE("partition of record " + std::to_string(r));
    const EventRecord& record = out.streamed[r];
    ASSERT_LT(r, out.result.events.size());
    EXPECT_EQ(record.id.publisher, out.result.events[r].id.publisher);
    EXPECT_EQ(record.id.seq, out.result.events[r].id.seq);

    core::Event event;
    event.topic = out.result.events[r].topic;
    const std::vector<NodeId> eligible =
        eligible_from_result(out.result, event);
    ASSERT_EQ(record.subscribers.size(), eligible.size());
    std::uint64_t histogram[kSubscriberOutcomeCount] = {0, 0, 0, 0, 0};
    for (std::size_t n = 0; n < eligible.size(); ++n) {
      EXPECT_EQ(record.subscribers[n].node, eligible[n]);
      histogram[static_cast<std::size_t>(record.subscribers[n].outcome)] += 1;
    }
    std::uint64_t sum = 0;
    for (const std::uint64_t count : histogram) sum += count;
    EXPECT_EQ(sum, record.subscribers.size());
    eligible_total += record.subscribers.size();
  }
  std::uint64_t outcome_sum = 0;
  for (const std::uint64_t count : out.stats.outcomes) outcome_sum += count;
  EXPECT_EQ(outcome_sum, out.stats.eligible);
  EXPECT_EQ(eligible_total, out.stats.eligible);

  // Property: the four latency segments of an event sum exactly to the sum
  // of its deliveries' latencies (integer microseconds, no rounding slack).
  // deliveries counts every fresh delivery; delivered subscriber rows cover
  // the eligible ones — equal on these flat-workload corpora, so the sums
  // must match exactly whenever they agree.
  for (const EventRecord& record : out.streamed) {
    std::int64_t segment_sum = 0;
    for (std::size_t s = 0; s < kSegmentCount; ++s) {
      segment_sum += record.segment_us[s];
    }
    std::int64_t latency_sum = 0;
    std::uint64_t delivered_rows = 0;
    for (const SubscriberRecord& row : record.subscribers) {
      if (row.outcome == SubscriberOutcome::kDelivered) {
        latency_sum += (row.at - record.published_at).us();
        delivered_rows += 1;
      }
    }
    if (record.deliveries == delivered_rows) {
      EXPECT_EQ(segment_sum, latency_sum);
    }
  }

  // Property: every delivery has a DAG path — a delivered subscriber other
  // than the publisher shows at least one intact event-carrying edge into it
  // no later than the delivery instant, and its hop depth is >= 1.
  for (const EventRecord& record : out.streamed) {
    for (const SubscriberRecord& row : record.subscribers) {
      if (row.outcome != SubscriberOutcome::kDelivered) continue;
      if (row.node == record.id.publisher) {
        EXPECT_EQ(row.hops, 0u);
        continue;
      }
      EXPECT_GE(row.hops, 1u);
      const bool has_carry_edge = std::any_of(
          record.edges.begin(), record.edges.end(),
          [&row](const EdgeRecord& edge) {
            return edge.to == row.node &&
                   edge.outcome == EdgeOutcome::kDelivered &&
                   batch_carries_events(edge.phase) && edge.at <= row.at;
          });
      EXPECT_TRUE(has_carry_edge)
          << "delivered subscriber " << row.node << " has no intact "
          << "event-carrying edge at or before its delivery";
    }
  }

  // Cross-check against the materialized delivery times the experiment
  // collected independently of the tracer.
  if (out.stats.late_deliveries == 0) {
    for (std::size_t r = 0; r < out.streamed.size(); ++r) {
      const EventRecord& record = out.streamed[r];
      for (const SubscriberRecord& row : record.subscribers) {
        ASSERT_LT(row.node, out.result.nodes.size());
        const auto& delivered_at = out.result.nodes[row.node].delivered_at;
        ASSERT_LT(r, delivered_at.size());
        if (row.outcome == SubscriberOutcome::kDelivered) {
          ASSERT_TRUE(delivered_at[r].has_value())
              << "tracer says delivered, run result disagrees (event " << r
              << ", node " << row.node << ")";
          EXPECT_EQ(row.at.us(), delivered_at[r]->us());
        } else {
          EXPECT_FALSE(delivered_at[r].has_value())
              << "run result says delivered, tracer disagrees (event " << r
              << ", node " << row.node << ")";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The tests.

TEST(CausalTraceTest, StreamingMatchesBatchOnGoldenCorpus) {
  std::uint64_t delivered_total = 0;
  std::uint64_t receptions_total = 0;
  for (const frugal::testing::GoldenScenario& scenario :
       frugal::testing::golden_scenarios()) {
    ScenarioOutcome outcome;
    verify_scenario(scenario.name, scenario.config, outcome);
    delivered_total += outcome.stats.delivered;
    receptions_total += outcome.stats.receptions;
    EXPECT_LE(outcome.high_water, scenario.config.event_count);
  }
  // The corpus as a whole disseminates: deliveries happen, and broadcast
  // redundancy means strictly more intact receptions than unique deliveries.
  EXPECT_GT(delivered_total, 0u);
  EXPECT_GT(receptions_total, delivered_total);
}

TEST(CausalTraceTest, BoundedModeFoldsIdenticalStatsWithoutRecords) {
  for (const frugal::testing::GoldenScenario& scenario :
       frugal::testing::golden_scenarios()) {
    SCOPED_TRACE(scenario.name);
    DisseminationTracer unbounded;
    core::ExperimentConfig config = scenario.config;
    config.dissem_tracer = &unbounded;
    (void)core::run_experiment(config);

    TracerConfig bounded_config;
    bounded_config.bounded = true;
    DisseminationTracer bounded(bounded_config);
    config.dissem_tracer = &bounded;
    (void)core::run_experiment(config);

    EXPECT_FALSE(unbounded.records().empty());
    EXPECT_TRUE(bounded.records().empty());
    expect_core_stats_equal(unbounded.stats(), bounded.stats());
    EXPECT_EQ(unbounded.stats().hops_p50, bounded.stats().hops_p50);
    EXPECT_EQ(unbounded.stats().hops_p95, bounded.stats().hops_p95);
    EXPECT_EQ(unbounded.stats().hops_max, bounded.stats().hops_max);
    EXPECT_EQ(unbounded.live_event_high_water(),
              bounded.live_event_high_water());
  }
}

// Energy deaths: half the fleet runs on batteries that empty before the
// first publication, so their radios are down for the whole dissemination —
// the died-with-node outcome must show up and the equality must hold through
// the radio-down edges.
TEST(CausalTraceTest, EnergyDepletionYieldsDiedWithNodeOutcomes) {
  core::ExperimentConfig config;
  config.node_count = 16;
  config.interest_fraction = 0.75;
  config.warmup = SimDuration::from_seconds(20);
  config.event_validity = SimDuration::from_seconds(40);
  config.event_count = 2;
  config.seed = 23;
  core::RandomWaypointSetup rwp;
  rwp.config.width_m = 1200.0;
  rwp.config.height_m = 1200.0;
  rwp.config.speed_min_mps = 5.0;
  rwp.config.speed_max_mps = 15.0;
  config.mobility = rwp;
  energy::EnergyConfig energy;
  // Odd nodes get ~12 J — idle draw alone empties that in ~14 s, before the
  // 20 s warm-up ends. Even nodes are unlimited so dissemination continues.
  energy.battery_capacity_per_node_j.assign(config.node_count, 0.0);
  for (std::size_t n = 1; n < config.node_count; n += 2) {
    energy.battery_capacity_per_node_j[n] = 12.0;
  }
  config.energy = energy;

  ScenarioOutcome outcome;
  verify_scenario("energy_depletion", config, outcome);
  const std::uint64_t died = outcome.stats.outcomes[static_cast<std::size_t>(
      SubscriberOutcome::kDiedWithNode)];
  EXPECT_GT(died, 0u);
}

// Duty cycling: power-save sleep makes receivers miss annotated frames, so
// missed-asleep edges appear in the DAGs and the equality must hold through
// the sleep schedule's loss pattern.
TEST(CausalTraceTest, DutyCycleYieldsMissedAsleepEdges) {
  core::ExperimentConfig config;
  config.node_count = 16;
  config.interest_fraction = 0.75;
  config.warmup = SimDuration::from_seconds(20);
  config.event_validity = SimDuration::from_seconds(40);
  config.event_count = 2;
  config.seed = 37;
  config.mobility = core::StaticSetup{1200.0, 1200.0};
  energy::EnergyConfig energy;
  energy.sleep_fraction = 0.4;
  energy.duty_period = SimDuration::from_seconds(1.0);
  // Every node unlimited, spelled per node: with the per-node list left
  // empty, GCC 12 at -O3 reports the copy into the optional as
  // -Werror=maybe-uninitialized.
  energy.battery_capacity_per_node_j.assign(config.node_count, 0.0);
  config.energy = energy;

  ScenarioOutcome outcome;
  verify_scenario("duty_cycle", config, outcome);
  std::uint64_t missed_asleep = 0;
  for (const EventRecord& record : outcome.streamed) {
    for (const EdgeRecord& edge : record.edges) {
      if (edge.outcome == EdgeOutcome::kMissedAsleep) missed_asleep += 1;
    }
  }
  EXPECT_GT(missed_asleep, 0u);
}

}  // namespace
}  // namespace frugal::telemetry
