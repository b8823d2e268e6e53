// Simulation trace recording.
//
// A TraceRecorder collects timestamped protocol events (publications,
// deliveries, node up/down flips and periodic position samples) during a
// run and writes them as CSV for offline inspection/plotting. The examples,
// the golden traces and the debugging workflow use it; the figure harnesses
// do not (they only need aggregates).
//
// Attached to a run (ExperimentConfig::trace) it is a live core::RunObserver:
// it records publications, fresh deliveries and radio up/down flips as they
// happen, and at end_run sorts the run's records by (time, kind, node,
// event index). The event index orders the events of one bundle, which a
// node delivers in bundle order, by publication instead.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/event.hpp"
#include "core/observer.hpp"
#include "util/time.hpp"
#include "util/types.hpp"
#include "util/vec2.hpp"

namespace frugal::trace {

enum class TraceKind : std::uint8_t {
  kPublish,
  kDeliver,
  kNodeDown,
  kNodeUp,
  kPosition,
};

[[nodiscard]] const char* to_string(TraceKind kind);

struct TraceRecord {
  SimTime at;
  TraceKind kind = TraceKind::kPosition;
  NodeId node = kInvalidNode;
  /// For kPublish/kDeliver: the event involved.
  std::optional<core::EventId> event;
  /// For kPosition: where the node is.
  std::optional<Vec2> position;
};

class TraceRecorder final : public core::RunObserver {
 public:
  void publish(SimTime at, NodeId node, core::EventId event) {
    records_.push_back({at, TraceKind::kPublish, node, event, {}});
  }
  void deliver(SimTime at, NodeId node, core::EventId event) {
    records_.push_back({at, TraceKind::kDeliver, node, event, {}});
  }
  void node_down(SimTime at, NodeId node) {
    records_.push_back({at, TraceKind::kNodeDown, node, {}, {}});
  }
  void node_up(SimTime at, NodeId node) {
    records_.push_back({at, TraceKind::kNodeUp, node, {}, {}});
  }
  void position(SimTime at, NodeId node, Vec2 where) {
    records_.push_back({at, TraceKind::kPosition, node, {}, where});
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  // -- core::RunObserver -----------------------------------------------------
  void begin_run(const core::RunBinding& binding) override;
  void on_publish(std::size_t index, const core::Event& event,
                  std::uint32_t topic_index) override;
  void on_delivery(NodeId node, const core::Event& event,
                   SimTime at) override;
  void on_up_changed(NodeId node, bool up, SimTime at) override;
  void end_run(SimTime run_end) override;

  /// Records of one kind, in time order (records are appended in time order
  /// by construction — the simulator is single-threaded).
  [[nodiscard]] std::vector<TraceRecord> filter(TraceKind kind) const;

  /// Writes "time_s,kind,node,event_publisher,event_seq,x,y" rows. Returns
  /// false when the file cannot be opened.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::vector<TraceRecord> records_;
  /// First record of the attached run; end_run sorts from here on.
  std::size_t run_begin_ = 0;
  /// Publish index of every event of the attached run: the sort's last key.
  std::map<core::EventId, std::size_t> index_of_;
};

}  // namespace frugal::trace
