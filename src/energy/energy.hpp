// Radio energy accounting: a per-node power-state machine plus an optional
// finite battery.
//
// The paper's whole premise is frugality under the power constraints of
// mobile ad-hoc devices, yet messages and bytes only proxy the real cost:
// what drains a battery is the *time the radio spends in each power state*.
// EnergyModel, a run observer that listens only to the medium's radio
// stream, turns its on-air reports into joules via a TX / RX / IDLE /
// SLEEP / OFF state machine with configurable draws — defaults are Feeney &
// Nilsson's measurements of a Lucent 802.11 WaveLAN card (INFOCOM 2001):
// 280 / 204 / 178 / 14 mA at 4.74 V for transmit / receive / idle-listen /
// doze.
//
// Accounting is lazy and exact: each node carries an `accounted_until`
// cursor and a piecewise-constant state description (tx-until, rx-until,
// up, sleeping); every state flip first integrates the elapsed span at the
// old draws, so the per-state joules are exact integrals of the radio's
// activity regardless of when queries happen. With a finite battery the
// depletion *instant* is solved in closed form inside the span that crosses
// the capacity (monotone in capacity by construction), and a callback lets
// the experiment layer kill the node through the existing crash machinery —
// a dead radio neither sends nor overhears, and draws nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/observer.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace frugal::energy {

/// Radio power states, cheapest first. OFF covers both churn blackouts and
/// battery death; SLEEP is 802.11 power-save doze (duty cycling).
enum class RadioState : std::uint8_t { kOff, kSleep, kIdle, kRx, kTx };
inline constexpr std::size_t kRadioStateCount = 5;

[[nodiscard]] const char* to_string(RadioState state);

/// Per-state draws in milliwatts. Defaults: Feeney & Nilsson (INFOCOM
/// 2001), Lucent IEEE 802.11 WaveLAN PC card at 4.74 V — tx 280 mA,
/// rx 204 mA, idle 178 mA, doze 14 mA.
struct RadioPowerProfile {
  double tx_mw = 1327.2;
  double rx_mw = 966.96;
  double idle_mw = 843.7;
  double sleep_mw = 66.4;
};

struct EnergyConfig {
  RadioPowerProfile radio;
  /// Battery capacity per node in joules; <= 0 means unlimited (metering
  /// only). For scale: idle-listening alone draws ~0.84 J/s, so a 300 J
  /// battery idles out in ~6 minutes; a phone battery is ~10-40 kJ.
  double battery_capacity_j = 0.0;
  /// Optional per-node battery capacities (heterogeneous fleets: some
  /// devices start with more charge than others). Empty — the default —
  /// gives every node the scalar `battery_capacity_j`; otherwise the size
  /// must equal the node count and entries <= 0 mean unlimited for that
  /// node.
  std::vector<double> battery_capacity_per_node_j;
  /// Fraction of each duty-cycle round the radio spends in power-save
  /// sleep (0 disables duty cycling; must stay < 1). The sleep window is
  /// the tail of each round; rounds are staggered across nodes by the
  /// experiment layer so the network never sleeps as one.
  double sleep_fraction = 0.0;
  /// Duty-cycle round length — align with the heartbeat period so the
  /// radio sleeps *between* heartbeat rounds.
  SimDuration duty_period = SimDuration::from_seconds(1.0);
  /// Battery-level sampling cadence: bounds how long a depleted radio can
  /// linger between frames before the experiment layer switches it off
  /// (the recorded depletion instant is exact regardless).
  SimDuration sample_period = SimDuration::from_seconds(1.0);
};

/// True when at least one node runs on a finite battery — the experiment
/// layer samples battery levels (so silent depleted radios still go dark)
/// exactly when this holds.
[[nodiscard]] bool any_finite_battery(const EnergyConfig& config);

class EnergyModel final : public core::RunObserver {
 public:
  /// Invoked at most once per node, the first time its accumulated spend
  /// crosses the battery capacity. `at` is the exact crossing instant
  /// (which can precede the scheduler's current time — the crossing is
  /// solved inside the elapsed span).
  using DepletionCallback = std::function<void(NodeId node, SimTime at)>;

  EnergyModel(std::size_t node_count, EnergyConfig config);

  void set_depletion_callback(DepletionCallback callback) {
    on_depleted_ = std::move(callback);
  }

  // -- net::MediumObserver (radio stream) -----------------------------------
  void before_tx(NodeId sender, SimTime now) override;
  void on_tx(NodeId sender, SimTime start, SimTime end) override;
  void on_rx(NodeId receiver, SimTime start, SimTime end) override;
  void on_up_changed(NodeId node, bool up, SimTime at) override;
  void on_sleep_changed(NodeId node, bool sleeping, SimTime at) override;

  /// Integrates every node's account up to `now` (depletion callbacks may
  /// fire from here). Call before reading spends, and periodically when a
  /// battery is configured so depleted radios actually go dark.
  void advance_all(SimTime now);
  /// Integrates one node's account up to `now`.
  void advance(NodeId node, SimTime now);

  // -- Queries (exact as of the last advance) -------------------------------
  [[nodiscard]] double spent_j(NodeId node) const;
  /// Projected total spend at `t` without mutating the account or firing the
  /// depletion callback — walks the same piecewise segments advance() would.
  /// Telemetry's windowed joules/s peeks here so observing a run cannot
  /// perturb its depletion schedule. For t <= accounted_until (or a depleted
  /// node) this is exactly spent_j(node).
  [[nodiscard]] double spent_j_at(NodeId node, SimTime t) const;
  [[nodiscard]] double spent_in_state_j(NodeId node, RadioState state) const;
  /// The node's battery capacity in joules (<= 0 = unlimited): the per-node
  /// entry when configured, else the scalar.
  [[nodiscard]] double capacity_j(NodeId node) const;
  /// Remaining charge as a fraction of capacity in [0, 1], projected at `t`
  /// without mutating the account (same walk as spent_j_at). Nodes with an
  /// unlimited battery always report 1.
  [[nodiscard]] double charge_fraction_at(NodeId node, SimTime t) const;
  [[nodiscard]] SimDuration time_asleep(NodeId node) const;
  [[nodiscard]] bool depleted(NodeId node) const;
  /// The exact crossing instant, when the node's battery emptied.
  [[nodiscard]] std::optional<SimTime> depleted_at(NodeId node) const;

  [[nodiscard]] double draw_mw(RadioState state) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const EnergyConfig& config() const { return config_; }

 private:
  struct NodeAccount {
    SimTime accounted_until;
    SimTime tx_until;  ///< in TX while t < tx_until (half-duplex: beats RX)
    SimTime rx_until;  ///< in RX while t < rx_until and not transmitting
    bool up = true;
    bool sleeping = false;
    bool depleted = false;
    SimTime depleted_time;
    double spent_by_state_j[kRadioStateCount] = {};
    SimDuration asleep;
  };

  [[nodiscard]] static double total_j(const NodeAccount& account);
  /// The piecewise state at `t` given the account's flags and deadlines.
  [[nodiscard]] static RadioState state_at(const NodeAccount& account,
                                           SimTime t);

  EnergyConfig config_;
  double draw_mw_by_state_[kRadioStateCount];
  std::vector<NodeAccount> nodes_;
  DepletionCallback on_depleted_;
};

}  // namespace frugal::energy
