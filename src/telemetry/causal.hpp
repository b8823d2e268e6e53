// Causal dissemination tracing: per-event propagation DAGs.
//
// The DisseminationTracer is a pure observer that reconstructs, for every
// published workload event, the causal DAG of its propagation:
//   nodes  = (process, sim-time) states — the instants a process acquired,
//            advertised, requested or delivered the event,
//   edges  = (frame id, sender -> receiver, phase) for every frame offer the
//            medium reported, labeled with the offer's outcome (delivered /
//            collided / missed-{busy,asleep,down}),
//   leaves = one terminal outcome per eligible subscriber:
//            delivered / expired-in-table / gc-evicted / marooned /
//            died-with-node (a total partition — causal_trace_test proves it).
//
// The tracer is a core::RunObserver. Its inputs are the medium's frame-fate
// callbacks (keyed by stable frame ids), the protocol nodes' annotate calls
// (what each event-carrying or advert frame means) and the run's publish,
// delivery, GC and up/down streams. The tracer NEVER schedules tasks, draws
// RNG, or mutates simulation state: attaching it is provably
// perturbation-free (goldens and sweep CSVs byte-identical with tracing on
// and off).
//
// From the DAG it derives per-run metrics through the PR 7 operator graph:
// hop-count distribution (KLL sketch), redundancy ratio (intact receptions
// per unique delivery), and a four-segment latency decomposition
//   publish -> first-carry -> advert-heard -> retrieve-request -> deliver
// via a clamped milestone chain m0 <= m1 <= m2 <= m3 <= m4, so the segments
// are each >= 0 and sum exactly (in integer microseconds) to the delivery
// latency. Flooding runs naturally show zero advert/request segments, which
// is what makes the frugal-vs-flooding latency gap attributable to protocol
// phases.
//
// Exports: a JSONL trace (one self-describing record per event; see
// EXPERIMENTS.md for the schema) consumed by scripts/explain_event.py and
// scripts/plot_figures.py, and Perfetto flow events stitched onto the
// telemetry writer's per-node tracks. In bounded mode, records are retired
// (row written, stats folded, memory freed) once the stream clock passes the
// event's validity expiry, so memory is flat in event count; stats and JSONL
// are byte-identical between bounded and unbounded modes because both fold
// at retirement and count post-retirement deliveries separately.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/event.hpp"
#include "core/observer.hpp"
#include "stats/kll_sketch.hpp"
#include "telemetry/dag.hpp"
#include "telemetry/perfetto.hpp"
#include "util/stable_map.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace frugal::telemetry {

/// Terminal outcome of one eligible subscriber for one event (a total
/// partition, decided at the event's validity expiry, priority top-down).
enum class SubscriberOutcome : std::uint8_t {
  kDelivered,       ///< the application saw the event before expiry
  kDiedWithNode,    ///< the subscriber's radio was down at expiry
  kMarooned,        ///< no frame referencing the event was ever offered
  kGcEvicted,       ///< heard of the event, but it was GC-evicted somewhere
  kExpiredInTable,  ///< heard of the event, validity ran out anyway
};
inline constexpr std::size_t kSubscriberOutcomeCount = 5;

[[nodiscard]] const char* to_string(SubscriberOutcome outcome);

/// What happened to one frame offer at one receiver.
enum class EdgeOutcome : std::uint8_t {
  kDelivered,
  kCollided,
  kMissedBusy,
  kMissedAsleep,
  kMissedDown,
};

[[nodiscard]] const char* to_string(EdgeOutcome outcome);
[[nodiscard]] const char* to_string(core::DisseminationPhase phase);

/// One edge of an event's propagation DAG: a frame referencing the event,
/// offered by `from` to `to`, with the offer's fate.
struct EdgeRecord {
  std::uint64_t frame_id = 0;
  core::DisseminationPhase phase = core::DisseminationPhase::kPublish;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  SimTime sent;  ///< airtime start (the tx commit instant)
  SimTime at;    ///< outcome instant (offer time for busy/asleep, else end)
  EdgeOutcome outcome = EdgeOutcome::kDelivered;
};

/// Terminal row for one eligible subscriber.
struct SubscriberRecord {
  NodeId node = kInvalidNode;
  SubscriberOutcome outcome = SubscriberOutcome::kExpiredInTable;
  /// Delivery time for kDelivered, the event's expiry otherwise.
  SimTime at;
  /// Hop depth of the delivery path (0 = publisher self-delivery); 0 for
  /// non-delivered outcomes.
  std::uint32_t hops = 0;
};

/// Indices into the four-segment latency decomposition.
enum : std::size_t {
  kSegPublishToCarry = 0,   ///< publish -> last-hop carrier acquired it
  kSegCarryToAdvert = 1,    ///< carrier had it -> subscriber heard an advert
  kSegAdvertToRequest = 2,  ///< advert heard -> subscriber's id-list reply
  kSegRequestToDeliver = 3, ///< request -> application delivery
  kSegmentCount = 4,
};

/// The reconstructed DAG of one event, frozen at retirement.
struct EventRecord {
  core::EventId id;
  SimTime published_at;
  SimDuration validity;
  std::vector<EdgeRecord> edges;             ///< medium arrival order
  std::vector<SubscriberRecord> subscribers; ///< ascending node id
  bool has_first_carry = false;
  SimTime first_carry;  ///< first intact reception of the event anywhere
  std::uint64_t receptions = 0;  ///< intact event-carrying receptions
  std::uint64_t deliveries = 0;  ///< fresh app deliveries before retirement
  /// Per-segment latency totals (microseconds) summed over this event's
  /// deliveries; each delivery's four segments sum to its exact latency.
  std::int64_t segment_us[kSegmentCount] = {0, 0, 0, 0};
};

/// Per-run aggregates derived from the DAGs, carried into RunResult.
struct DisseminationStats {
  std::uint64_t events = 0;          ///< published workload events observed
  std::uint64_t eligible = 0;        ///< sum of per-event eligible counts
  std::uint64_t delivered = 0;       ///< fresh deliveries before retirement
  std::uint64_t receptions = 0;      ///< intact event-carrying receptions
  std::uint64_t late_deliveries = 0; ///< deliveries after retirement (rare)
  std::uint64_t outcomes[kSubscriberOutcomeCount] = {0, 0, 0, 0, 0};
  std::uint64_t hops_count = 0;
  std::int64_t hops_total = 0;
  double hops_p50 = 0.0;
  double hops_p95 = 0.0;
  double hops_max = 0.0;
  std::uint64_t segment_count = 0;  ///< deliveries with a decomposition
  std::int64_t segment_us[kSegmentCount] = {0, 0, 0, 0};

  /// Mean hop depth over all fresh deliveries (0 when none).
  [[nodiscard]] double mean_hops() const {
    return hops_count == 0
               ? 0.0
               : static_cast<double>(hops_total) /
                     static_cast<double>(hops_count);
  }
  /// Intact event-carrying receptions per unique delivery (0 when none).
  [[nodiscard]] double redundancy_ratio() const {
    return delivered == 0 ? 0.0
                          : static_cast<double>(receptions) /
                                static_cast<double>(delivered);
  }
  /// Mean seconds spent in one latency segment per decomposed delivery.
  [[nodiscard]] double mean_segment_s(std::size_t segment) const {
    return segment_count == 0
               ? 0.0
               : static_cast<double>(segment_us[segment]) / 1e6 /
                     static_cast<double>(segment_count);
  }
};

struct TracerConfig {
  /// When non-empty, write the dissem-trace JSONL here.
  std::string trace_path;
  /// Bounded-memory mode: free each event's record at retirement instead of
  /// keeping it for post-run introspection. Stats and JSONL are identical
  /// either way.
  bool bounded = false;
};

/// The pure-observer tracer, attached through ExperimentConfig::dissem_tracer.
///
/// Every input callback is a virtual RunObserver method, so
/// causal_trace_test can interpose a recording shim: the shim captures the
/// raw callback stream verbatim, forwards to the base class, and a batch
/// reconstruction over the captured stream is then compared against the
/// streaming DAGs for equality.
class DisseminationTracer : public core::RunObserver {
 public:
  explicit DisseminationTracer(TracerConfig config = {});
  ~DisseminationTracer() override;

  DisseminationTracer(const DisseminationTracer&) = delete;
  DisseminationTracer& operator=(const DisseminationTracer&) = delete;

  /// Optional: stitch Perfetto flow events (publish -> tx spans ->
  /// deliveries) onto an existing writer's per-node tracks. Borrowed; must
  /// outlive the run. Call after begin_run.
  void set_perfetto(PerfettoWriter* writer) { perfetto_ = writer; }

  // -- core::RunObserver -----------------------------------------------------
  /// Reads node_count and node_eligible; the binding's callables are
  /// borrowed until end_run.
  void begin_run(const core::RunBinding& binding) override;
  void on_publish(std::size_t index, const core::Event& event,
                  std::uint32_t topic_index) override;
  void on_delivery(NodeId node, const core::Event& event,
                   SimTime at) override;
  void on_gc_eviction(NodeId node, core::EventId victim, SimTime at) override;
  void annotate(std::uint64_t frame_id, NodeId sender,
                core::DisseminationPhase phase,
                const std::vector<core::EventId>& event_ids) override;
  /// Retires every outstanding event, finalizes stats and closes the trace
  /// file. Must run before the experiment tears down the bound state.
  void end_run(SimTime run_end) override;
  void on_frame_sent(const net::Frame& frame, SimTime start,
                     SimTime end) override;
  void on_frame_dropped(const net::Frame& frame, SimTime at) override;
  void on_frame_delivered(const net::Frame& frame, NodeId receiver,
                          SimTime end) override;
  void on_frame_collided(const net::Frame& frame, NodeId receiver,
                         SimTime end) override;
  void on_frame_missed(const net::Frame& frame, NodeId receiver,
                       net::FrameLossReason reason, SimTime at) override;
  void on_up_changed(NodeId node, bool up, SimTime at) override;

  /// Valid after end_run.
  [[nodiscard]] const DisseminationStats& stats() const { return stats_; }

  /// Retired per-event records in publish order. Empty in bounded mode
  /// (records are freed at retirement); tests and explain tooling use the
  /// unbounded mode.
  [[nodiscard]] const std::vector<EventRecord>& records() const {
    return retired_;
  }

  /// Peak number of simultaneously live (unretired) events — the memory
  /// bound bench_dissem_overhead asserts against in bounded mode.
  [[nodiscard]] std::size_t live_event_high_water() const {
    return live_high_water_;
  }

  [[nodiscard]] bool bounded() const { return config_.bounded; }

 private:
  static constexpr std::uint32_t kDepthUnset = ~0u;

  /// Per-(event, process) causal state while the event is live.
  struct PerNode {
    std::uint32_t depth = kDepthUnset;  ///< hop depth at acquisition
    SimTime acq;                        ///< when depth was set
    bool offered = false;      ///< any frame referencing the event offered
    bool advert_heard = false;
    SimTime advert_at;
    bool requested = false;
    SimTime request_at;
    bool delivered = false;
    SimTime delivered_at;
    std::uint32_t hops = 0;
    std::int64_t segment_us[kSegmentCount] = {0, 0, 0, 0};
  };

  struct LiveEvent {
    EventRecord record;
    core::Event event;  ///< id/topic/validity copy for eligibility checks
    std::vector<NodeId> eligible;  ///< ascending
    det::hash_map<NodeId, PerNode> nodes;
    bool gc_evicted = false;
  };

  /// One annotated frame in flight (issued, possibly not yet on air).
  struct PendingFrame {
    NodeId sender = kInvalidNode;
    core::DisseminationPhase phase = core::DisseminationPhase::kPublish;
    std::vector<core::EventId> event_ids;
    bool sent = false;
    SimTime start;
    SimTime end;
  };

  /// Last intact event-carrying frame delivered to each receiver — how
  /// on_delivery (synchronous with on_frame) identifies the delivering
  /// frame and hence the last-hop carrier for the latency decomposition.
  struct LastDelivered {
    SimTime end = SimTime::from_us(-1);
    NodeId sender = kInvalidNode;
    std::uint64_t frame_id = 0;
    std::vector<core::EventId> event_ids;
  };

  [[nodiscard]] static bool carries_events(core::DisseminationPhase phase) {
    return phase == core::DisseminationPhase::kPublish ||
           phase == core::DisseminationPhase::kEventPush ||
           phase == core::DisseminationPhase::kFloodForward ||
           phase == core::DisseminationPhase::kGossipForward;
  }

  [[nodiscard]] static std::uint64_t flow_id_of(core::EventId id) {
    return (static_cast<std::uint64_t>(id.publisher) << 32) | id.seq;
  }

  [[nodiscard]] LiveEvent* live(core::EventId id) {
    auto* entry = live_.find(id);
    return entry != nullptr ? entry->get() : nullptr;
  }

  /// Advances the monotone stream clock: retires expired events and prunes
  /// stale frame annotations.
  void advance_stream(SimTime at);
  void record_edge(const PendingFrame& pending, std::uint64_t frame_id,
                   NodeId receiver, EdgeOutcome outcome, SimTime at);
  void retire_front(SimTime now);
  void write_record(const EventRecord& record);
  void fold_stats(const EventRecord& record);

  TracerConfig config_;
  core::RunBinding binding_;
  bool began_ = false;
  bool ended_ = false;

  // Operator DAG carrying the run aggregates (PR 7 engine): exact integer
  // sums for hop totals and segment times, a count per outcome class, and
  // the KLL hop sketch.
  Graph graph_;
  IntSum* hops_sum_ = nullptr;
  IntSum* segment_sums_[kSegmentCount] = {nullptr, nullptr, nullptr, nullptr};
  Count* outcome_counts_[kSubscriberOutcomeCount] = {nullptr, nullptr,
                                                     nullptr, nullptr,
                                                     nullptr};
  Count* receptions_op_ = nullptr;
  Count* deliveries_op_ = nullptr;
  QuantileSketchOp* hop_sketch_ = nullptr;

  /// Live events by id, plus their publish order (the retirement order).
  det::hash_map<core::EventId, std::unique_ptr<LiveEvent>, core::EventIdHash>
      live_;
  std::deque<core::EventId> order_;
  std::size_t live_high_water_ = 0;

  /// Annotated frames in flight, pruned once the stream passes their end.
  det::hash_map<std::uint64_t, PendingFrame> frames_;
  SimTime last_frame_prune_;

  std::vector<LastDelivered> last_delivered_;
  std::vector<bool> node_up_;

  SimTime stream_time_;
  std::uint64_t late_deliveries_ = 0;

  std::vector<EventRecord> retired_;  ///< unbounded mode only
  std::FILE* trace_ = nullptr;
  PerfettoWriter* perfetto_ = nullptr;

  DisseminationStats stats_;
};

}  // namespace frugal::telemetry
