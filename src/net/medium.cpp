#include "net/medium.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/expect.hpp"
#include "util/logging.hpp"

namespace frugal::net {

Medium::Medium(sim::Scheduler& scheduler, mobility::MobilityModel& mobility,
               MediumConfig config, Rng jitter_rng)
    : scheduler_{scheduler},
      mobility_{mobility},
      config_{config},
      rng_{jitter_rng},
      clients_(mobility.node_count(), nullptr),
      up_(mobility.node_count(), true),
      sleeping_(mobility.node_count(), false),
      counters_(mobility.node_count()),
      tx_busy_until_(mobility.node_count(), SimTime::zero()),
      receptions_(mobility.node_count()) {
  FRUGAL_EXPECT(config.range_m > 0);
  FRUGAL_EXPECT(config.rate_bps > 0);
  FRUGAL_EXPECT(!config.max_jitter.is_negative());
  if (config_.use_spatial_index) {
    index_ = std::make_unique<SpatialIndex>(mobility_, config_.range_m);
  }
}

void Medium::attach(NodeId node, MediumClient* client) {
  FRUGAL_EXPECT(node < clients_.size());
  FRUGAL_EXPECT(client != nullptr);
  clients_[node] = client;
}

void Medium::set_up(NodeId node, bool up) {
  FRUGAL_EXPECT(node < up_.size());
  if (up_[node] == up) return;
  up_[node] = up;
  if (observer_ != nullptr) {
    observer_->on_up_changed(node, up, scheduler_.now());
  }
}

bool Medium::is_up(NodeId node) const {
  FRUGAL_EXPECT(node < up_.size());
  return up_[node];
}

void Medium::set_sleeping(NodeId node, bool sleeping) {
  FRUGAL_EXPECT(node < sleeping_.size());
  if (sleeping_[node] == sleeping) return;
  sleeping_[node] = sleeping;
  if (observer_ != nullptr) {
    observer_->on_sleep_changed(node, sleeping, scheduler_.now());
  }
}

bool Medium::is_sleeping(NodeId node) const {
  FRUGAL_EXPECT(node < sleeping_.size());
  return sleeping_[node];
}

const TrafficCounters& Medium::counters(NodeId node) const {
  FRUGAL_EXPECT(node < counters_.size());
  return counters_[node];
}

std::vector<NodeId> Medium::nodes_in_range(NodeId node) const {
  FRUGAL_EXPECT(node < clients_.size());
  const SimTime now = scheduler_.now();
  const Vec2 here = mobility_.position(node, now);
  const double range_sq = config_.range_m * config_.range_m;
  std::vector<NodeId> result;
  auto consider = [&](NodeId other) {
    if (!can_receive(other, node)) return;
    if (distance_sq(here, mobility_.position(other, now)) <= range_sq) {
      result.push_back(other);
    }
  };
  if (index_ != nullptr) {
    // Candidates come back sorted, so `result` matches the brute-force
    // ascending order exactly.
    for (NodeId other : index_->candidates(here, config_.range_m, now)) {
      consider(other);
    }
  } else {
    for (NodeId other = 0; other < clients_.size(); ++other) consider(other);
  }
  return result;
}

std::uint64_t Medium::broadcast(NodeId sender, std::uint32_t size_bytes,
                                std::any payload) {
  sim::ProfileScope<"medium.broadcast"> profile{scheduler_.profiler()};
  FRUGAL_EXPECT(sender < clients_.size());
  FRUGAL_EXPECT(size_bytes > 0);
  // Every issued frame gets an id, even one dropped on the spot: the fate
  // contract (exactly one of sent/dropped per issue) then holds per id too.
  const std::uint64_t frame_id = next_frame_id_++;
  if (!up_[sender]) {
    // Issued while down: the counters contract promises every issued frame
    // lands in exactly one of frames_sent / frames_dropped, same as the
    // crashed-while-queued path below.
    counters_[sender].frames_dropped += 1;
    if (observer_ != nullptr) {
      observer_->on_frame_dropped(
          Frame{sender, size_bytes, {}, frame_id}, scheduler_.now());
    }
    return frame_id;
  }

  auto frame = std::make_shared<Frame>(
      Frame{sender, size_bytes, std::move(payload), frame_id});
  const SimDuration jitter =
      config_.max_jitter.us() > 0
          ? SimDuration::from_us(static_cast<std::int64_t>(rng_.uniform_u64(
                static_cast<std::uint64_t>(config_.max_jitter.us()))))
          : SimDuration::zero();
  scheduler_.schedule_after(jitter, [this, sender, frame] {
    start_transmission(sender, frame, /*attempt=*/0);
  });
  return frame_id;
}

SimTime Medium::sensed_busy_until(NodeId sender, SimTime at) const {
  const Vec2 here = mobility_.position(sender, at);
  const double range_sq = config_.range_m * config_.range_m;
  SimTime busy = SimTime::zero();
  if (index_ != nullptr) {
    // tx_busy_until_[j] > at iff j has a transmission on air at `at` (it is
    // only ever set to the end of a transmission starting right then, and a
    // sender never overlaps its own frames), and that transmission ends at
    // exactly tx_busy_until_[j] — so the per-node field answers the same
    // question the on_air_ scan below does, without the scan.
    for (NodeId other : index_->candidates(here, config_.range_m, at)) {
      if (other == sender || tx_busy_until_[other] <= at) continue;
      const Vec2 there = mobility_.position(other, at);
      if (distance_sq(here, there) <= range_sq) {
        busy = std::max(busy, tx_busy_until_[other]);
      }
    }
    return busy;
  }
  for (const Transmission& tx : on_air_) {
    if (tx.end <= at || tx.sender == sender) continue;
    const Vec2 there = mobility_.position(tx.sender, at);
    if (distance_sq(here, there) <= range_sq) busy = std::max(busy, tx.end);
  }
  return busy;
}

void Medium::start_transmission(NodeId sender,
                                const std::shared_ptr<Frame>& frame,
                                int attempt) {
  sim::ProfileScope<"medium.transmission"> profile{scheduler_.profiler()};
  if (!up_[sender]) {  // crashed while the frame was queued
    counters_[sender].frames_dropped += 1;
    if (observer_ != nullptr) {
      observer_->on_frame_dropped(*frame, scheduler_.now());
    }
    return;
  }
  const SimTime now = scheduler_.now();
  prune(now);

  // Defer while our own radio or the sensed channel is busy (carrier sense);
  // give up after max_defers attempts (802.11-style retry limit).
  SimTime free_at = std::max(tx_busy_until_[sender],
                             sensed_busy_until(sender, now));
  if (free_at > now) {
    if (attempt >= config_.max_defers) {
      counters_[sender].frames_dropped += 1;
      if (observer_ != nullptr) observer_->on_frame_dropped(*frame, now);
      return;
    }
    // Contention window grows with the attempt number (DCF stand-in).
    const std::uint64_t window = 1000ULL * static_cast<std::uint64_t>(attempt + 1);
    const SimDuration retry_jitter = SimDuration::from_us(
        static_cast<std::int64_t>(rng_.uniform_u64(window) + 1));
    scheduler_.schedule_at(free_at + retry_jitter,
                           [this, sender, frame, attempt] {
                             start_transmission(sender, frame, attempt + 1);
                           });
    return;
  }

  // Settle the sender's energy account before committing the frame: a
  // battery that emptied since the last report kills the radio here (the
  // observer flips set_up), and a dead radio must not transmit.
  if (observer_ != nullptr) {
    observer_->before_tx(sender, now);
    if (!up_[sender]) {  // battery died while the frame was queued
      counters_[sender].frames_dropped += 1;
      observer_->on_frame_dropped(*frame, now);
      return;
    }
  }

  const auto duration = SimDuration::from_seconds(
      static_cast<double>(frame->size_bytes) * 8.0 / config_.rate_bps);
  const SimTime end = now + duration;
  tx_busy_until_[sender] = end;
  on_air_.push_back(Transmission{sender, now, end});
  counters_[sender].frames_sent += 1;
  counters_[sender].bytes_sent += frame->size_bytes;
  if (observer_ != nullptr) {
    observer_->on_tx(sender, now, end);
    observer_->on_frame_sent(*frame, now, end);
  }

  const Vec2 origin = mobility_.position(sender, now);
  const double range_sq = config_.range_m * config_.range_m;
  if (index_ != nullptr) {
    // Candidates are a sorted superset of the in-range nodes;
    // offer_to_receiver re-applies the exact predicate and distance check,
    // and the ascending order keeps every side effect in brute-force order.
    for (NodeId receiver :
         index_->candidates(origin, config_.range_m, now)) {
      if (!can_receive(receiver, sender)) continue;
      if (distance_sq(origin, mobility_.position(receiver, now)) > range_sq)
        continue;
      offer_to_receiver(receiver, frame, now, end);
    }
  } else {
    for (NodeId receiver = 0; receiver < clients_.size(); ++receiver) {
      if (!can_receive(receiver, sender)) continue;
      if (distance_sq(origin, mobility_.position(receiver, now)) > range_sq)
        continue;
      offer_to_receiver(receiver, frame, now, end);
    }
  }
}

void Medium::offer_to_receiver(NodeId receiver,
                               const std::shared_ptr<Frame>& frame,
                               SimTime now, SimTime end) {
  // Half-duplex: a radio that is transmitting cannot hear this frame.
  if (config_.enable_collisions && tx_busy_until_[receiver] > now) {
    counters_[receiver].frames_missed_busy += 1;
    if (observer_ != nullptr) {
      observer_->on_frame_missed(*frame, receiver, FrameLossReason::kBusy, now);
    }
    return;
  }

  // Power-save sleep: the radio is dozing and never locks on the frame.
  if (sleeping_[receiver]) {
    counters_[receiver].frames_missed_asleep += 1;
    if (observer_ != nullptr) {
      observer_->on_frame_missed(*frame, receiver, FrameLossReason::kAsleep,
                                 now);
    }
    return;
  }

  // Drop this receiver's ended receptions before the overlap check. Pruning
  // here — instead of sweeping every node's list on every broadcast — keeps
  // the per-broadcast cost proportional to the audience; ended receptions
  // can never corrupt anything (the overlap test is `ongoing.end > now`).
  std::erase_if(receptions_[receiver],
                [now](const Reception& rx) { return rx.end <= now; });

  auto corrupted = std::make_shared<bool>(false);
  if (config_.enable_collisions) {
    for (Reception& ongoing : receptions_[receiver]) {
      if (ongoing.end > now) {  // overlap: both frames are lost
        *ongoing.corrupted = true;
        *corrupted = true;
      }
    }
  }
  receptions_[receiver].push_back(Reception{now, end, corrupted});
  if (observer_ != nullptr) observer_->on_rx(receiver, now, end);

  scheduler_.schedule_at(end, [this, receiver, frame, corrupted, end] {
    if (*corrupted) {
      counters_[receiver].frames_collided += 1;
      if (observer_ != nullptr) {
        observer_->on_frame_collided(*frame, receiver, end);
      }
      return;
    }
    if (!up_[receiver] || clients_[receiver] == nullptr) {
      // Powered down mid-reception: the locked-on frame is voided, and
      // counted so (delivered + collided + missed_down covers every
      // reception the radio started).
      counters_[receiver].frames_missed_down += 1;
      if (observer_ != nullptr) {
        observer_->on_frame_missed(*frame, receiver,
                                         FrameLossReason::kDown, end);
      }
      return;
    }
    counters_[receiver].frames_delivered += 1;
    counters_[receiver].bytes_delivered += frame->size_bytes;
    if (observer_ != nullptr) {
      observer_->on_frame_delivered(*frame, receiver, end);
    }
    clients_[receiver]->on_frame(*frame);
  });
}

void Medium::prune(SimTime now) {
  // Receptions are pruned lazily per receiver in offer_to_receiver; sweeping
  // them all here would reintroduce an O(n) cost per broadcast.
  std::erase_if(on_air_,
                [now](const Transmission& tx) { return tx.end <= now; });
}

double two_ray_range(double tx_power_dbm, double sensitivity_dbm,
                     double antenna_gain, double antenna_height_m) {
  FRUGAL_EXPECT(antenna_gain > 0);
  FRUGAL_EXPECT(antenna_height_m > 0);
  const double gains_db =
      10.0 * std::log10(antenna_gain * antenna_gain * antenna_height_m *
                        antenna_height_m * antenna_height_m *
                        antenna_height_m);
  return std::pow(10.0, (tx_power_dbm - sensitivity_dbm + gains_db) / 40.0);
}

}  // namespace frugal::net
