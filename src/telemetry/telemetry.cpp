#include "telemetry/telemetry.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace frugal::telemetry {

RunTelemetry::RunTelemetry(TelemetryConfig config)
    : config_{std::move(config)} {
  FRUGAL_EXPECT(config_.window_s > 0);
}

RunTelemetry::~RunTelemetry() {
  if (series_ != nullptr) std::fclose(series_);
}

void RunTelemetry::begin_run(const core::RunBinding& binding) {
  FRUGAL_EXPECT(!began_);
  FRUGAL_EXPECT(binding.node_count > 0);
  FRUGAL_EXPECT(!binding.publishers.empty());
  FRUGAL_EXPECT(binding.node_eligible != nullptr);
  FRUGAL_EXPECT(binding.eligible_count != nullptr);
  binding_ = binding;
  began_ = true;

  // Operator DAG. Insertion order is topological order; the two edges wired
  // below feed windowed emissions into their running summaries.
  delivered_op_ = graph_.add<Count>();
  latency_us_op_ = graph_.add<IntSum>();
  window_ = SimDuration::from_seconds(config_.window_s);
  win_deliveries_ = graph_.add<WindowedRate>(window_);
  win_tx_ = graph_.add<WindowedRate>(window_);
  win_gc_ = graph_.add<WindowedRate>(window_);
  win_latency_ = graph_.add<QuantileSketchOp>();
  live_nodes_ = graph_.add<Gauge>(static_cast<double>(binding_.node_count));
  last_p50_ = graph_.add<Gauge>();
  mean_delivery_rate_ = graph_.add<Mean>();
  graph_.connect(win_latency_, last_p50_);
  graph_.connect(win_deliveries_, mean_delivery_rate_);

  // Reliability probes: the run validity always, then any extras (deduped
  // by exact microsecond value — probes are matched exactly at query time).
  auto add_probe = [this](std::int64_t validity_us) {
    for (const Probe& probe : probes_) {
      if (probe.validity_us == validity_us) return;
    }
    probes_.push_back(Probe{validity_us, 0, graph_.add<Sum>()});
  };
  add_probe(binding_.run_validity.us());
  run_probe_index_ = 0;
  for (const double v_s : config_.probe_validities_s) {
    add_probe(SimDuration::from_seconds(v_s).us());
  }

  slot_of_node_.assign(binding_.node_count, kInvalidNode);
  for (std::size_t slot = 0; slot < binding_.publishers.size(); ++slot) {
    const NodeId node = binding_.publishers[slot];
    FRUGAL_EXPECT(node < binding_.node_count);
    FRUGAL_EXPECT(slot_of_node_[node] == kInvalidNode);
    slot_of_node_[node] = static_cast<std::uint32_t>(slot);
  }

  eligible_by_topic_.assign(binding_.topic_count, -1);
  up_count_ = binding_.node_count;
  stream_time_ = SimTime::zero();
  next_window_end_ = SimTime::zero() + window_;
  last_flush_end_ = SimTime::zero();

  if (!config_.timeseries_path.empty()) {
    series_ = std::fopen(config_.timeseries_path.c_str(), "w");
    FRUGAL_EXPECT(series_ != nullptr && "cannot open --timeseries path");
    std::fprintf(series_,
                 "{\"artifact\":\"timeseries\",\"window_s\":%.10g,"
                 "\"node_count\":%zu,\"event_count\":%zu,"
                 "\"run_validity_s\":%.10g,\"run_end_s\":%.10g}\n",
                 config_.window_s, binding_.node_count, binding_.event_count,
                 binding_.run_validity.seconds(),
                 binding_.run_end.seconds());
  }
  if (!config_.perfetto_path.empty()) {
    perfetto_ = std::make_unique<PerfettoWriter>(config_.perfetto_path,
                                                 binding_.node_count);
    FRUGAL_EXPECT(perfetto_->ok() && "cannot open --perfetto path");
    down_since_.assign(binding_.node_count, std::nullopt);
    sleep_since_.assign(binding_.node_count, std::nullopt);
  }
}

std::size_t RunTelemetry::event_index_of(core::EventId id) const {
  FRUGAL_EXPECT(id.publisher < slot_of_node_.size());
  const std::uint32_t slot = slot_of_node_[id.publisher];
  FRUGAL_EXPECT(slot != kInvalidNode);
  // Round-robin publishing: publisher at `slot` emits events slot, slot+P,
  // slot+2P, ... with consecutive per-publisher sequence numbers from 0.
  return static_cast<std::size_t>(id.seq) * binding_.publishers.size() + slot;
}

std::uint32_t RunTelemetry::eligible_for_topic(std::uint32_t topic_index) {
  FRUGAL_EXPECT(topic_index < eligible_by_topic_.size());
  if (eligible_by_topic_[topic_index] < 0) {
    eligible_by_topic_[topic_index] = binding_.eligible_count(topic_index);
  }
  return static_cast<std::uint32_t>(eligible_by_topic_[topic_index]);
}

void RunTelemetry::on_publish(std::size_t index, const core::Event& event,
                              std::uint32_t topic_index) {
  FRUGAL_EXPECT(began_ && !ended_);
  const core::EventId id = event.id;
  const SimTime at = event.published_at;
  sim::ProfileScope<"telemetry.ingest"> scope{binding_.profiler};
  advance_stream(at);
  FRUGAL_EXPECT(index == published_count_);
  FRUGAL_EXPECT(event_index_of(id) == index);
  LiveEvent live;
  live.published_at = at;
  live.eligible = eligible_for_topic(topic_index);
  live.reached.assign(probes_.size(), 0);
  ring_.push_back(std::move(live));
  ++published_count_;
  live_high_water_ = std::max(live_high_water_, ring_.size());
  if (perfetto_) perfetto_->instant(id.publisher, "publish", "app", at);
}

void RunTelemetry::on_delivery(NodeId node, const core::Event& event,
                               SimTime at) {
  FRUGAL_EXPECT(began_ && !ended_);
  sim::ProfileScope<"telemetry.ingest"> scope{binding_.profiler};
  advance_stream(at);

  const std::int64_t latency_us = (at - event.published_at).us();
  FRUGAL_EXPECT(latency_us >= 0);
  graph_.feed(delivered_op_, at, 1.0);
  latency_us_op_->add(latency_us);
  graph_.feed(win_deliveries_, at, 1.0);
  graph_.feed(win_latency_, at, static_cast<double>(latency_us) / 1e6);

  const std::size_t index = event_index_of(event.id);
  FRUGAL_EXPECT(index < published_count_);
  if (index >= base_index_) {
    LiveEvent& live = ring_[index - base_index_];
    if (live.eligible > 0 && binding_.node_eligible(node, event)) {
      for (std::size_t p = 0; p < probes_.size(); ++p) {
        if (latency_us <= probes_[p].validity_us) ++live.reached[p];
      }
    }
  }
  // else: a late delivery (past every probe deadline, record pruned) — it
  // still counts toward delivered/latency, exactly as the materialized path
  // counts post-deadline delivered_at entries.

  if (perfetto_) perfetto_->instant(node, "deliver", "app", at);
}

void RunTelemetry::on_gc_eviction(NodeId node, core::EventId /*victim*/,
                                  SimTime at) {
  FRUGAL_EXPECT(began_ && !ended_);
  sim::ProfileScope<"telemetry.ingest"> scope{binding_.profiler};
  advance_stream(at);
  graph_.feed(win_gc_, at, 1.0);
  if (perfetto_) perfetto_->instant(node, "gc", "table", at);
}

void RunTelemetry::on_tx(NodeId sender, SimTime start, SimTime end) {
  FRUGAL_EXPECT(began_ && !ended_);
  sim::ProfileScope<"telemetry.ingest"> scope{binding_.profiler};
  advance_stream(start);
  graph_.feed(win_tx_, start, 1.0);
  if (perfetto_) perfetto_->span(sender, "tx", "radio", start, end);
}

void RunTelemetry::on_rx(NodeId receiver, SimTime start, SimTime end) {
  FRUGAL_EXPECT(began_ && !ended_);
  sim::ProfileScope<"telemetry.ingest"> scope{binding_.profiler};
  advance_stream(start);
  if (perfetto_) perfetto_->span(receiver, "rx", "radio", start, end);
}

void RunTelemetry::on_up_changed(NodeId node, bool up, SimTime at) {
  FRUGAL_EXPECT(began_ && !ended_);
  sim::ProfileScope<"telemetry.ingest"> scope{binding_.profiler};
  advance_stream(at);
  if (up) {
    ++up_count_;
  } else {
    FRUGAL_EXPECT(up_count_ > 0);
    --up_count_;
  }
  graph_.feed(live_nodes_, at, static_cast<double>(up_count_));
  if (perfetto_) {
    if (!up) {
      down_since_[node] = at;
    } else if (down_since_[node]) {
      perfetto_->span(node, "down", "power", *down_since_[node], at);
      down_since_[node].reset();
    }
  }
}

void RunTelemetry::on_sleep_changed(NodeId node, bool sleeping, SimTime at) {
  FRUGAL_EXPECT(began_ && !ended_);
  sim::ProfileScope<"telemetry.ingest"> scope{binding_.profiler};
  advance_stream(at);
  if (perfetto_) {
    if (sleeping) {
      sleep_since_[node] = at;
    } else if (sleep_since_[node]) {
      perfetto_->span(node, "sleep", "power", *sleep_since_[node], at);
      sleep_since_[node].reset();
    }
  }
}

void RunTelemetry::advance_stream(SimTime t) {
  // Callback timestamps are monotone (they come from scheduler tasks), but
  // clamp defensively: windows only ever move forward.
  if (t < stream_time_) t = stream_time_;
  while (next_window_end_ <= t) {
    // Retirements whose deadline precedes the boundary belong to the
    // closing window ([start, end) convention); interleave before flushing.
    retire_probes_before(next_window_end_);
    flush_window(next_window_end_);
    next_window_end_ = next_window_end_ + window_;
  }
  retire_probes_before(t);
  stream_time_ = t;
}

void RunTelemetry::retire_probes_before(SimTime t) {
  for (std::size_t p = 0; p < probes_.size(); ++p) {
    Probe& probe = probes_[p];
    while (probe.cursor < published_count_) {
      const LiveEvent& live = ring_[probe.cursor - base_index_];
      const std::int64_t deadline_us =
          live.published_at.us() + probe.validity_us;
      // A delivery AT the deadline still counts (<=), so an event only
      // retires once the stream is strictly past it.
      if (deadline_us >= t.us()) break;
      if (live.eligible > 0) {
        const double fraction = static_cast<double>(live.reached[p]) /
                                static_cast<double>(live.eligible);
        graph_.feed(probe.fraction_sum, SimTime::from_us(deadline_us),
                    fraction);
        if (p == run_probe_index_) {
          window_rel_sum_ += fraction;
          ++window_rel_count_;
        }
      }
      ++probe.cursor;
    }
  }
  std::size_t min_cursor = published_count_;
  for (const Probe& probe : probes_) {
    min_cursor = std::min(min_cursor, probe.cursor);
  }
  while (base_index_ < min_cursor) {
    ring_.pop_front();
    ++base_index_;
  }
}

void RunTelemetry::flush_window(SimTime window_end) {
  sim::ProfileScope<"telemetry.flush"> scope{binding_.profiler};
  const bool have_rel = window_rel_count_ > 0;
  const double reliability =
      have_rel
          ? window_rel_sum_ / static_cast<double>(window_rel_count_)
          : 0.0;
  const bool have_latency = !win_latency_->sketch().empty();
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  if (have_latency) {
    p50 = win_latency_->sketch().quantile(0.5);
    p95 = win_latency_->sketch().quantile(0.95);
    p99 = win_latency_->sketch().quantile(0.99);
  }

  graph_.close_window(window_end);

  const double deliveries_ps = win_deliveries_->value();
  const double frames_ps = win_tx_->value();
  const double gc_ps = win_gc_->value();
  const bool have_joules = static_cast<bool>(binding_.total_joules_at);
  double joules_ps = 0.0;
  if (have_joules) {
    const double total = binding_.total_joules_at(window_end);
    joules_ps = (total - last_joules_total_) / window_.seconds();
    last_joules_total_ = total;
  }

  if (series_ != nullptr) {
    write_series_row(window_end, reliability, have_rel, p50, p95, p99,
                     have_latency, deliveries_ps, frames_ps, gc_ps, joules_ps,
                     have_joules);
  }
  if (perfetto_) {
    if (have_rel) perfetto_->counter("reliability", window_end, reliability);
    if (have_latency) {
      perfetto_->counter("latency_p95_s", window_end, p95);
    }
    perfetto_->counter("deliveries_per_s", window_end, deliveries_ps);
    perfetto_->counter("frames_per_s", window_end, frames_ps);
    perfetto_->counter("gc_per_s", window_end, gc_ps);
    perfetto_->counter("live_nodes", window_end,
                       static_cast<double>(up_count_));
    if (have_joules) {
      perfetto_->counter("joules_per_s", window_end, joules_ps);
    }
  }

  window_rel_sum_ = 0.0;
  window_rel_count_ = 0;
  last_flush_end_ = window_end;
}

void RunTelemetry::write_series_row(SimTime window_end, double reliability,
                                    bool have_reliability, double p50,
                                    double p95, double p99, bool have_latency,
                                    double deliveries_ps, double frames_ps,
                                    double gc_ps, double joules_ps,
                                    bool have_joules) {
  char rel[32] = "null";
  char l50[32] = "null";
  char l95[32] = "null";
  char l99[32] = "null";
  char jps[32] = "null";
  if (have_reliability) std::snprintf(rel, sizeof rel, "%.10g", reliability);
  if (have_latency) {
    std::snprintf(l50, sizeof l50, "%.10g", p50);
    std::snprintf(l95, sizeof l95, "%.10g", p95);
    std::snprintf(l99, sizeof l99, "%.10g", p99);
  }
  if (have_joules) std::snprintf(jps, sizeof jps, "%.10g", joules_ps);
  std::fprintf(series_,
               "{\"t_s\":%.10g,\"reliability\":%s,\"latency_p50_s\":%s,"
               "\"latency_p95_s\":%s,\"latency_p99_s\":%s,"
               "\"deliveries_per_s\":%.10g,\"frames_per_s\":%.10g,"
               "\"gc_per_s\":%.10g,\"live_nodes\":%zu,"
               "\"joules_per_s\":%s}\n",
               window_end.seconds(), rel, l50, l95, l99, deliveries_ps,
               frames_ps, gc_ps, up_count_, jps);
}

void RunTelemetry::end_run(SimTime run_end) {
  FRUGAL_EXPECT(began_ && !ended_);
  sim::ProfileScope<"telemetry.flush"> scope{binding_.profiler};
  advance_stream(run_end);
  // Deadlines at or past the run horizon never see another delivery (the
  // simulation has drained), so every outstanding fold finalizes now with
  // reached counts exactly as the materialized path would read them.
  retire_probes_before(SimTime::max());
  if (last_flush_end_ < run_end || window_rel_count_ > 0) {
    // Tail window (possibly partial; rates still divide by the full window
    // width — documented in EXPERIMENTS.md).
    flush_window(run_end);
  }

  if (perfetto_) {
    for (NodeId node = 0; node < down_since_.size(); ++node) {
      if (down_since_[node]) {
        perfetto_->span(node, "down", "power", *down_since_[node], run_end);
      }
    }
    for (NodeId node = 0; node < sleep_since_.size(); ++node) {
      if (sleep_since_[node]) {
        perfetto_->span(node, "sleep", "power", *sleep_since_[node], run_end);
      }
    }
    perfetto_->finish();
  }
  if (series_ != nullptr) {
    std::fclose(series_);
    series_ = nullptr;
  }

  aggregates_.probes.clear();
  for (const Probe& probe : probes_) {
    aggregates_.probes.push_back(ProbeAggregate{
        probe.validity_us, probe.fraction_sum->value(),
        probe.fraction_sum->count()});
  }
  aggregates_.run_validity_us = binding_.run_validity.us();
  aggregates_.delivered = delivered_op_->count();
  aggregates_.latency_sum_us = latency_us_op_->total();
  ended_ = true;
}

const RunAggregates& RunTelemetry::aggregates() const {
  FRUGAL_EXPECT(ended_);
  return aggregates_;
}

}  // namespace frugal::telemetry
