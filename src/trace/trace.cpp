#include "trace/trace.hpp"

#include <algorithm>
#include <fstream>
#include <tuple>
#include <utility>

#include "util/expect.hpp"

namespace frugal::trace {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPublish:
      return "publish";
    case TraceKind::kDeliver:
      return "deliver";
    case TraceKind::kNodeDown:
      return "down";
    case TraceKind::kNodeUp:
      return "up";
    case TraceKind::kPosition:
      return "position";
  }
  return "?";
}

std::vector<TraceRecord> TraceRecorder::filter(TraceKind kind) const {
  std::vector<TraceRecord> out;
  for (const TraceRecord& record : records_) {
    if (record.kind == kind) out.push_back(record);
  }
  return out;
}

void TraceRecorder::begin_run(const core::RunBinding& /*binding*/) {
  run_begin_ = records_.size();
  index_of_.clear();
}

void TraceRecorder::on_publish(std::size_t index, const core::Event& event,
                               std::uint32_t /*topic_index*/) {
  index_of_[event.id] = index;
  publish(event.published_at, event.id.publisher, event.id);
}

void TraceRecorder::on_delivery(NodeId node, const core::Event& event,
                                SimTime at) {
  deliver(at, node, event.id);
}

void TraceRecorder::on_up_changed(NodeId node, bool up, SimTime at) {
  if (up) {
    node_up(at, node);
  } else {
    node_down(at, node);
  }
}

void TraceRecorder::end_run(SimTime /*run_end*/) {
  const auto key = [this](const TraceRecord& record) {
    std::size_t index = 0;
    if (record.event.has_value()) {
      const auto it = index_of_.find(*record.event);
      FRUGAL_EXPECT(it != index_of_.end());
      index = it->second;
    }
    return std::make_tuple(record.at, record.kind, record.node, index);
  };
  std::stable_sort(records_.begin() + static_cast<std::ptrdiff_t>(run_begin_),
                   records_.end(),
                   [&key](const TraceRecord& a, const TraceRecord& b) {
                     return key(a) < key(b);
                   });
}

bool TraceRecorder::write_csv(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "time_s,kind,node,event_publisher,event_seq,x,y\n";
  for (const TraceRecord& record : records_) {
    out << record.at.seconds() << ',' << to_string(record.kind) << ','
        << record.node << ',';
    if (record.event.has_value()) {
      out << record.event->publisher << ',' << record.event->seq;
    } else {
      out << ',';
    }
    out << ',';
    if (record.position.has_value()) {
      out << record.position->x << ',' << record.position->y;
    } else {
      out << ',';
    }
    out << '\n';
  }
  return true;
}

}  // namespace frugal::trace
