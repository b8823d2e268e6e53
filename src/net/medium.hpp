// Broadcast wireless medium.
//
// Stand-in for the paper's Qualnet 802.11b substrate (see DESIGN.md §1). The
// protocol under study needs exactly four properties from the MAC/PHY, all
// modeled here:
//   1. one-hop broadcast with a finite radio range (unit disk whose radius can
//      be derived from tx power / sensitivity via the two-ray formula),
//   2. frames take size * 8 / rate on air,
//   3. senders carrier-sense and defer (plus random jitter) before talking,
//   4. frames that overlap in time at a receiver corrupt each other
//      (collisions), and a transmitting radio cannot receive (half-duplex).
//
// The medium charges every sent/received byte to per-node traffic counters;
// the evaluation's bandwidth numbers come from these. Everything else it
// does — airtime, power and sleep flips, the fate of every frame at every
// receiver — it reports to one optional MediumObserver.
#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <vector>

#include "mobility/mobility.hpp"
#include "net/spatial_index.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace frugal::net {

/// One on-air frame. `payload` carries the protocol message by value (the
/// codec layer accounts for its wire size separately; see core/wire.hpp).
struct Frame {
  NodeId sender = kInvalidNode;
  std::uint32_t size_bytes = 0;
  std::any payload;
  /// Stable, monotonically increasing per-medium id, assigned at broadcast()
  /// in issue order. Observer-only: nothing in the medium or the protocols
  /// branches on it, so goldens are byte-identical with or without consumers.
  std::uint64_t id = 0;
};

/// Implemented by protocol nodes to receive frames.
class MediumClient {
 public:
  virtual ~MediumClient() = default;
  virtual void on_frame(const Frame& frame) = 0;
};

/// Why a frame that was offered to a receiver never reached its client.
enum class FrameLossReason : std::uint8_t {
  kBusy,    ///< receiver's radio was transmitting (half-duplex)
  kAsleep,  ///< receiver was in power-save sleep
  kDown,    ///< receiver powered down between lock-on and frame end
};

/// The one observer of everything the medium does. Two streams share it:
///   - radio physics (before_tx, on_tx, on_rx, on_up_changed,
///     on_sleep_changed): per-frame airtime at the sender and at every
///     receiver whose radio locks on, plus power and sleep flips. The energy
///     model meters these; what a state transition costs is its business.
///   - frame fates (on_frame_*): the outcome of every issued frame at every
///     receiver, keyed by the frame's stable id. The dissemination tracer
///     builds its DAGs from these.
/// Every method defaults to a no-op so implementors subscribe selectively.
/// The medium holds one observer; the experiment layer fans it out to
/// several (core::ObserverFanOut) in a fixed order.
class MediumObserver {
 public:
  virtual ~MediumObserver() = default;
  /// Called immediately before `sender` would put a frame on air: the last
  /// chance to settle accounts and power a depleted radio down (via
  /// Medium::set_up) before the frame commits — the medium re-checks the
  /// sender's up state afterwards, so a battery that emptied since the
  /// last report never transmits.
  virtual void before_tx(NodeId /*sender*/, SimTime /*now*/) {}
  /// `sender`'s radio transmits over [start, end).
  virtual void on_tx(NodeId /*sender*/, SimTime /*start*/, SimTime /*end*/) {}
  /// `receiver`'s radio is locked on an incoming frame over [start, end).
  /// Reported whether or not the frame later collides — a corrupted
  /// reception costs the same airtime as an intact one.
  virtual void on_rx(NodeId /*receiver*/, SimTime /*start*/,
                     SimTime /*end*/) {}
  /// Radio powered up or down (churn crash/recovery, battery depletion).
  /// Only actual flips are reported, never redundant sets.
  virtual void on_up_changed(NodeId /*node*/, bool /*up*/, SimTime /*at*/) {}
  /// Radio entered or left power-save sleep (duty cycling). Only actual
  /// flips are reported.
  virtual void on_sleep_changed(NodeId /*node*/, bool /*sleeping*/,
                                SimTime /*at*/) {}
  /// The frame committed to air over [start, end) (reported right after
  /// on_tx).
  virtual void on_frame_sent(const Frame& /*frame*/, SimTime /*start*/,
                             SimTime /*end*/) {}
  /// The frame was issued but never got on air: sender down at issue time,
  /// crashed or battery-died while queued, or gave up after max_defers.
  virtual void on_frame_dropped(const Frame& /*frame*/, SimTime /*at*/) {}
  /// The frame arrived intact at `receiver` (called immediately before the
  /// client's on_frame).
  virtual void on_frame_delivered(const Frame& /*frame*/, NodeId /*receiver*/,
                                  SimTime /*end*/) {}
  /// The frame was corrupted by overlap at `receiver`.
  virtual void on_frame_collided(const Frame& /*frame*/, NodeId /*receiver*/,
                                 SimTime /*end*/) {}
  /// The frame never reached `receiver`'s client for `reason` (busy/asleep
  /// are reported at offer time, down at the frame's scheduled end).
  virtual void on_frame_missed(const Frame& /*frame*/, NodeId /*receiver*/,
                               FrameLossReason /*reason*/, SimTime /*at*/) {}
};

struct MediumConfig {
  double range_m = 442.0;   ///< paper: 442 m at 1 Mbps, 44 m in the city model
  double rate_bps = 1e6;    ///< broadcast basic rate (802.11b: 1 Mbps)
  bool enable_collisions = true;
  /// Random pre-transmission jitter, standing in for CSMA slot back-off; also
  /// desynchronizes periodic heartbeats.
  SimDuration max_jitter = SimDuration::from_ms(5);
  /// Carrier-sense retry limit, mirroring the 802.11 retry limit: a frame
  /// that finds the channel busy this many times is dropped (queue overflow
  /// under saturation). The per-retry wait grows linearly with the attempt
  /// number (a simple stand-in for DCF's exponential back-off).
  int max_defers = 16;
  /// Receiver/carrier-sense resolution path. true: uniform-grid spatial
  /// index, O(neighbors) per broadcast (see net/spatial_index.hpp). false:
  /// the original brute-force scan over every node, O(n) per broadcast.
  /// Both paths are behaviour-identical down to the byte (spatial_index_test
  /// proves it); the flag exists so bench_medium_scaling can measure the
  /// separation and the property test can compare the two live.
  bool use_spatial_index = true;
};

struct TrafficCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_delivered = 0;   ///< received intact
  std::uint64_t bytes_delivered = 0;
  std::uint64_t frames_collided = 0;    ///< lost at this receiver to overlap
  std::uint64_t frames_missed_busy = 0; ///< lost because radio was transmitting
  std::uint64_t frames_missed_asleep = 0; ///< lost to power-save sleep
  /// Receptions voided because the radio powered down (crash or battery
  /// death) between locking onto the frame and its end.
  std::uint64_t frames_missed_down = 0;
  /// Sender gave up after max_defers, or its radio went down (crash or
  /// battery death) while the frame was queued — every issued frame ends
  /// up in exactly one of frames_sent / frames_dropped.
  std::uint64_t frames_dropped = 0;
};

class Medium {
 public:
  Medium(sim::Scheduler& scheduler, mobility::MobilityModel& mobility,
         MediumConfig config, Rng jitter_rng);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers the client for `node`. Must be called before the node sends or
  /// can receive. `node` must be < mobility.node_count().
  void attach(NodeId node, MediumClient* client);

  /// Marks a node up/down (crash/recover). Down nodes neither send nor hear.
  void set_up(NodeId node, bool up);
  [[nodiscard]] bool is_up(NodeId node) const;

  /// Puts a node's radio into power-save sleep / wakes it (802.11 PSM
  /// style): a sleeping radio overhears nothing (frames it would have
  /// received count as `frames_missed_asleep`) but still wakes to transmit.
  void set_sleeping(NodeId node, bool sleeping);
  [[nodiscard]] bool is_sleeping(NodeId node) const;

  /// Registers the (single, optional) observer. Not owned; must outlive
  /// the medium's use. nullptr detaches.
  void set_observer(MediumObserver* observer) { observer_ = observer; }

  /// Queues a broadcast from `sender`. The frame goes on air after jitter and
  /// carrier-sense deferral, and reaches every up node within range. Returns
  /// the frame's stable id (assigned even when the sender is down and the
  /// frame is dropped on the spot); callers that don't trace may ignore it.
  std::uint64_t broadcast(NodeId sender, std::uint32_t size_bytes,
                          std::any payload);

  [[nodiscard]] const TrafficCounters& counters(NodeId node) const;
  [[nodiscard]] std::size_t node_count() const { return clients_.size(); }

  /// Nodes currently within radio range of `node` that could receive a frame
  /// from it: up, attached, and within `range_m` (excluding itself). Sleeping
  /// nodes are included — they are in range, they just doze through frames.
  [[nodiscard]] std::vector<NodeId> nodes_in_range(NodeId node) const;

  /// Until when `sender` senses the channel busy at time `at` (zero when the
  /// channel is idle): the latest end among other nodes' transmissions in
  /// range. Public so the index-equivalence property test can compare the
  /// indexed and brute-force answers directly.
  [[nodiscard]] SimTime sensed_busy_until(NodeId sender, SimTime at) const;

  [[nodiscard]] const MediumConfig& config() const { return config_; }

 private:
  struct Reception {
    SimTime start;
    SimTime end;
    std::shared_ptr<bool> corrupted;
  };
  struct Transmission {
    NodeId sender = kInvalidNode;
    SimTime start;
    SimTime end;
  };

  /// The one receiver predicate shared by delivery and nodes_in_range (minus
  /// the range check, which callers apply to their own query position).
  [[nodiscard]] bool can_receive(NodeId receiver, NodeId sender) const {
    return receiver != sender && up_[receiver] &&
           clients_[receiver] != nullptr;
  }

  void start_transmission(NodeId sender, const std::shared_ptr<Frame>& frame,
                          int attempt);
  void offer_to_receiver(NodeId receiver, const std::shared_ptr<Frame>& frame,
                         SimTime now, SimTime end);
  void prune(SimTime now);

  sim::Scheduler& scheduler_;
  mobility::MobilityModel& mobility_;
  MediumConfig config_;
  Rng rng_;
  std::vector<MediumClient*> clients_;
  MediumObserver* observer_ = nullptr;
  std::uint64_t next_frame_id_ = 0;
  std::vector<bool> up_;
  std::vector<bool> sleeping_;
  std::vector<TrafficCounters> counters_;
  std::vector<SimTime> tx_busy_until_;
  std::vector<std::vector<Reception>> receptions_;
  std::vector<Transmission> on_air_;
  /// Present iff config_.use_spatial_index. unique_ptr (not optional) so the
  /// const query methods can use it: candidates() mutates internal caches.
  std::unique_ptr<SpatialIndex> index_;
};

/// Radio range from the two-ray ground-reflection model:
///   d = 10 ^ ((Pt_dBm - sensitivity_dBm + 10 log10(Gt Gr ht^2 hr^2)) / 40)
/// With the paper's parameters (15 dB tx, 0.8 antenna efficiency, ~1 m
/// antennas) this yields 448/341/316/252 m for the -93/-89/-87/-83 dB
/// sensitivities — matching the paper's quoted 442/339/321/273 m ranges to
/// within a few percent.
[[nodiscard]] double two_ray_range(double tx_power_dbm, double sensitivity_dbm,
                                   double antenna_gain = 0.8,
                                   double antenna_height_m = 1.0);

}  // namespace frugal::net
