// Streaming telemetry engine: the per-run hub that folds simulator event
// streams through the operator DAG (dag.hpp) into
//   (a) RunResult-equivalent aggregates (aggregates.hpp) — bit-equal to the
//       materialized math, which is what lets bounded-memory runs skip the
//       per-event and per-(node,event) records entirely,
//   (b) a windowed time-series artifact (JSONL, one row per tumbling
//       window: reliability, latency quantiles, frames/s, GC evictions/s,
//       live nodes, joules/s) rendered by scripts/plot_figures.py, and
//   (c) a Chrome/Perfetto trace (perfetto.hpp): per-node TX/RX/down/sleep
//       spans, publish/delivery/GC instants, windowed counter tracks.
//
// The hub is a core::RunObserver. run_experiment's fan-out calls it after
// the energy model (whose accounts settle before the hub reads joules) and
// before the dissemination tracer; end_run goes in reverse, so the tracer's
// Perfetto flow events land before the hub finalizes the trace.
//
// Invariants the experiment layer relies on:
//   - The hub NEVER schedules simulator tasks, draws from simulator RNG
//     streams, or mutates any simulation object. Attaching telemetry cannot
//     perturb a run (telemetry_test proves sweep CSVs stay byte-identical).
//   - Memory is bounded by the live-event window (events whose newest probe
//     deadline has not yet passed — at most validity/spacing events) plus
//     the DAG's O(1)/O(sketch) operators, never by run length.
//
// Reliability probes: reliability_within(v) is a per-event fold, so bounded
// runs can only answer validities registered before the run starts (the
// sweep runner registers each scenario's probe validities plus the run
// validity automatically).
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/event.hpp"
#include "core/observer.hpp"
#include "sim/profiler.hpp"
#include "telemetry/aggregates.hpp"
#include "telemetry/dag.hpp"
#include "telemetry/perfetto.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace frugal::telemetry {

struct TelemetryConfig {
  /// When true the experiment skips materializing per-event records and
  /// per-node delivered_at vectors; every RunResult delivery metric is
  /// answered from the streamed aggregates instead.
  bool bounded_memory = false;
  /// Reliability-probe validities (seconds) beyond the run validity, which
  /// is always registered.
  std::vector<double> probe_validities_s;
  /// Tumbling-window width for the time-series artifact.
  double window_s = 10.0;
  /// When non-empty, write the windowed time-series as JSONL here.
  std::string timeseries_path;
  /// When non-empty, write a Chrome trace-event JSON here.
  std::string perfetto_path;
};

class RunTelemetry final : public core::RunObserver {
 public:
  explicit RunTelemetry(TelemetryConfig config);
  ~RunTelemetry() override;

  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  // -- core::RunObserver -----------------------------------------------------
  void begin_run(const core::RunBinding& binding) override;
  /// `index` is the global publish index; ids follow
  /// EventId{publishers[index % P], index / P}.
  void on_publish(std::size_t index, const core::Event& event,
                  std::uint32_t topic_index) override;
  void on_delivery(NodeId node, const core::Event& event,
                   SimTime at) override;
  void on_gc_eviction(NodeId node, core::EventId victim, SimTime at) override;
  /// Final drain: retires every outstanding probe fold, flushes the tail
  /// window, closes open Perfetto spans and finalizes both artifacts.
  void end_run(SimTime run_end) override;
  void on_tx(NodeId sender, SimTime start, SimTime end) override;
  void on_rx(NodeId receiver, SimTime start, SimTime end) override;
  void on_up_changed(NodeId node, bool up, SimTime at) override;
  void on_sleep_changed(NodeId node, bool sleeping, SimTime at) override;

  /// Valid after end_run.
  [[nodiscard]] const RunAggregates& aggregates() const;

  [[nodiscard]] bool bounded() const { return config_.bounded_memory; }
  [[nodiscard]] const TelemetryConfig& config() const { return config_; }

  /// Peak number of simultaneously live (unretired) events — the memory
  /// bound bench_telemetry_rss asserts against.
  [[nodiscard]] std::size_t live_event_high_water() const {
    return live_high_water_;
  }

  /// The Perfetto writer, when the config asked for one (null otherwise).
  /// Valid between begin_run and end_run; the dissemination tracer threads
  /// its flow events onto the same per-node tracks through this.
  [[nodiscard]] PerfettoWriter* perfetto_writer() { return perfetto_.get(); }

 private:
  /// One event still inside some probe's validity horizon.
  struct LiveEvent {
    SimTime published_at;
    std::uint32_t eligible = 0;
    /// reached[p]: eligible nodes that got the event within probe p's
    /// validity. Frozen once the stream clock passes the probe deadline.
    std::vector<std::uint32_t> reached;
  };

  struct Probe {
    std::int64_t validity_us = 0;
    /// Next publish index to retire (fold into the Sum) for this probe.
    std::size_t cursor = 0;
    /// Per-event reached/eligible fractions, added in publish-index order —
    /// the exact double-addition order of the materialized fold.
    Sum* fraction_sum = nullptr;
  };

  void advance_stream(SimTime t);
  void retire_probes_before(SimTime t);
  void flush_window(SimTime window_end);
  void write_series_row(SimTime window_end, double reliability,
                        bool have_reliability, double p50, double p95,
                        double p99, bool have_latency, double deliveries_ps,
                        double frames_ps, double gc_ps, double joules_ps,
                        bool have_joules);
  [[nodiscard]] std::size_t event_index_of(core::EventId id) const;
  [[nodiscard]] std::uint32_t eligible_for_topic(std::uint32_t topic_index);

  TelemetryConfig config_;
  core::RunBinding binding_;
  bool began_ = false;
  bool ended_ = false;

  // Operator DAG: aggregate carriers plus windowed series operators.
  Graph graph_;
  Count* delivered_op_ = nullptr;
  IntSum* latency_us_op_ = nullptr;
  WindowedRate* win_deliveries_ = nullptr;
  WindowedRate* win_tx_ = nullptr;
  WindowedRate* win_gc_ = nullptr;
  QuantileSketchOp* win_latency_ = nullptr;
  Gauge* live_nodes_ = nullptr;
  Gauge* last_p50_ = nullptr;
  Mean* mean_delivery_rate_ = nullptr;

  std::vector<Probe> probes_;
  std::size_t run_probe_index_ = 0;

  // Live-event ring: publish indices [base_index_, published_count_).
  std::deque<LiveEvent> ring_;
  std::size_t base_index_ = 0;
  std::size_t published_count_ = 0;
  std::size_t live_high_water_ = 0;

  /// Cached eligible-node counts, one per topic-pool index (-1 = unknown).
  std::vector<std::int64_t> eligible_by_topic_;
  std::vector<std::uint32_t> slot_of_node_;

  SimTime stream_time_;
  SimTime next_window_end_;
  SimDuration window_;
  SimTime last_flush_end_;

  // Windowed-reliability accumulator (per run-validity-probe retirements
  // inside the current window).
  double window_rel_sum_ = 0.0;
  std::uint64_t window_rel_count_ = 0;

  std::size_t up_count_ = 0;
  double last_joules_total_ = 0.0;

  std::FILE* series_ = nullptr;
  std::unique_ptr<PerfettoWriter> perfetto_;
  std::vector<std::optional<SimTime>> down_since_;
  std::vector<std::optional<SimTime>> sleep_since_;

  RunAggregates aggregates_;
};

}  // namespace frugal::telemetry
