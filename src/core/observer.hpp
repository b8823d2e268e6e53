// Run observers: the one interface behind everything that watches a run.
//
// An observer sees the medium's radio activity and frame fates
// (net::MediumObserver), the workload's publications, the protocol nodes'
// deliveries, GC collections and frame phase annotations, and the run's
// start and end. The energy model, the telemetry hub, the dissemination
// tracer and the trace recorder all implement it. run_experiment builds one
// ObserverFanOut over the observers a config attaches, in a fixed order,
// and hands that single observer to the medium and to every node.
//
// Observers never schedule simulator tasks, draw from RNG streams or mutate
// simulation objects, with one exception: the energy model's before_tx may
// power a depleted radio down. That is why it comes first in the fan-out.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/event.hpp"
#include "net/medium.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace frugal::sim {
class Profiler;
}

namespace frugal::core {

/// Protocol-level meaning of one broadcast frame, annotated by the sending
/// node for observers (the dissemination tracer). Heartbeats are deliberately
/// unannotated: they carry no event payload, so tracers ignore their frames.
enum class DisseminationPhase : std::uint8_t {
  kPublish,          ///< publisher's initial transmission of a fresh event
  kAdvert,           ///< frugal: EventIdList advertising stored event ids
  kRetrieveRequest,  ///< frugal: empty EventIdList — pure retrieve trigger
  kEventPush,        ///< frugal: EventBundle answering a neighbor's advert
  kFloodForward,     ///< flooding: periodic retransmission of a stored event
  kGossipForward,    ///< gossip: coin-flip retransmission of a stored event
};

/// Everything an observer may need from one experiment run, handed to
/// begin_run. The callable members borrow experiment-local state
/// (subscription tables, the energy model): they are valid from begin_run
/// until end_run, which is why end_run happens before the experiment moves
/// that state into its results.
struct RunBinding {
  std::size_t node_count = 0;
  std::size_t event_count = 0;
  std::size_t topic_count = 1;
  /// Round-robin publisher ring: event i is published by
  /// publishers[i % publishers.size()].
  std::vector<NodeId> publishers;
  SimDuration run_validity;
  SimTime run_end;
  /// Whether `node` counts toward an event's reached set (subscribed and
  /// its subscriptions cover the event's topic).
  std::function<bool(NodeId, const Event&)> node_eligible;
  /// Number of eligible nodes for events of a given topic-pool index.
  std::function<std::uint32_t(std::uint32_t)> eligible_count;
  /// Total joules spent across all nodes as of `t` (null when the run has
  /// no energy model); must not mutate the model.
  std::function<double(SimTime)> total_joules_at;
  sim::Profiler* profiler = nullptr;
};

/// Observer of one run. Every method defaults to a no-op.
class RunObserver : public net::MediumObserver {
 public:
  /// Called once, after every node is built and before the first simulated
  /// task runs.
  virtual void begin_run(const RunBinding& /*binding*/) {}
  /// Publication `index` (global publish order) of `event`, which already
  /// carries its final id and publish time. Reported *before* the node's
  /// publish(), which may self-deliver synchronously.
  virtual void on_publish(std::size_t /*index*/, const Event& /*event*/,
                          std::uint32_t /*topic_index*/) {}
  /// Fired once per fresh application-level delivery.
  virtual void on_delivery(NodeId /*node*/, const Event& /*event*/,
                           SimTime /*at*/) {}
  /// Fired once per event-table GC collection, with the id of the evicted
  /// or rejected event.
  virtual void on_gc_eviction(NodeId /*node*/, EventId /*victim*/,
                              SimTime /*at*/) {}
  /// What an event-carrying or advert frame means. Nodes call this right
  /// after Medium::broadcast returns the frame id, with the event ids the
  /// frame carries (advertised ids for an EventIdList, bundled ids for an
  /// EventBundle; empty for a retrieve-request).
  virtual void annotate(std::uint64_t /*frame_id*/, NodeId /*sender*/,
                        DisseminationPhase /*phase*/,
                        const std::vector<EventId>& /*event_ids*/) {}
  /// Final drain at the run horizon, before the experiment collects its
  /// results.
  virtual void end_run(SimTime /*run_end*/) {}
};

/// Forwards every callback to a fixed list of observers in list order;
/// end_run goes in reverse order, so an observer that writes into another's
/// artifact (the tracer into the hub's Perfetto trace) drains first. Null
/// entries are dropped.
class ObserverFanOut final : public RunObserver {
 public:
  explicit ObserverFanOut(std::vector<RunObserver*> observers)
      : observers_{std::move(observers)} {
    std::erase(observers_, nullptr);
  }

  [[nodiscard]] bool empty() const { return observers_.empty(); }

  void before_tx(NodeId sender, SimTime now) override {
    for (RunObserver* o : observers_) o->before_tx(sender, now);
  }
  void on_tx(NodeId sender, SimTime start, SimTime end) override {
    for (RunObserver* o : observers_) o->on_tx(sender, start, end);
  }
  void on_rx(NodeId receiver, SimTime start, SimTime end) override {
    for (RunObserver* o : observers_) o->on_rx(receiver, start, end);
  }
  void on_up_changed(NodeId node, bool up, SimTime at) override {
    for (RunObserver* o : observers_) o->on_up_changed(node, up, at);
  }
  void on_sleep_changed(NodeId node, bool sleeping, SimTime at) override {
    for (RunObserver* o : observers_) o->on_sleep_changed(node, sleeping, at);
  }
  void on_frame_sent(const net::Frame& frame, SimTime start,
                     SimTime end) override {
    for (RunObserver* o : observers_) o->on_frame_sent(frame, start, end);
  }
  void on_frame_dropped(const net::Frame& frame, SimTime at) override {
    for (RunObserver* o : observers_) o->on_frame_dropped(frame, at);
  }
  void on_frame_delivered(const net::Frame& frame, NodeId receiver,
                          SimTime end) override {
    for (RunObserver* o : observers_) {
      o->on_frame_delivered(frame, receiver, end);
    }
  }
  void on_frame_collided(const net::Frame& frame, NodeId receiver,
                         SimTime end) override {
    for (RunObserver* o : observers_) {
      o->on_frame_collided(frame, receiver, end);
    }
  }
  void on_frame_missed(const net::Frame& frame, NodeId receiver,
                       net::FrameLossReason reason, SimTime at) override {
    for (RunObserver* o : observers_) {
      o->on_frame_missed(frame, receiver, reason, at);
    }
  }
  void begin_run(const RunBinding& binding) override {
    for (RunObserver* o : observers_) o->begin_run(binding);
  }
  void on_publish(std::size_t index, const Event& event,
                  std::uint32_t topic_index) override {
    for (RunObserver* o : observers_) o->on_publish(index, event, topic_index);
  }
  void on_delivery(NodeId node, const Event& event, SimTime at) override {
    for (RunObserver* o : observers_) o->on_delivery(node, event, at);
  }
  void on_gc_eviction(NodeId node, EventId victim, SimTime at) override {
    for (RunObserver* o : observers_) o->on_gc_eviction(node, victim, at);
  }
  void annotate(std::uint64_t frame_id, NodeId sender,
                DisseminationPhase phase,
                const std::vector<EventId>& event_ids) override {
    for (RunObserver* o : observers_) {
      o->annotate(frame_id, sender, phase, event_ids);
    }
  }
  void end_run(SimTime run_end) override {
    for (auto it = observers_.rbegin(); it != observers_.rend(); ++it) {
      (*it)->end_run(run_end);
    }
  }

 private:
  std::vector<RunObserver*> observers_;
};

}  // namespace frugal::core
