// Battery-adaptive frugal: the frugal algorithm wrapped in charge-aware
// energy management.
//
// Two levers, both driven by a narrow charge-fraction provider (no access
// to the energy ledger itself):
//  1. Heartbeat stretching — the node's hb_upper bound grows as the battery
//     drains (FrugalConfig::hb_upper_dynamic), so a tired node beacons and
//     garbage-collects more slowly. Cheap, but idle listening dominates the
//     WaveLAN power budget, so stretching alone cannot save a battery.
//  2. Low-charge dozing — below a charge threshold the node spends a
//     fraction of every beat in 802.11 power-save sleep (the medium's
//     sleeping radios overhear nothing but still wake to transmit). This is
//     what actually moves the survivor frontier: sleep draws ~8% of idle.
//
// Implemented as a decorator owning an inner FrugalNode: the inner node
// attaches itself to the medium and runs the unmodified protocol; the
// decorator only adds the doze duty cycle and forwards the ProtocolNode
// surface.
#pragma once

#include <functional>

#include "core/frugal_node.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"

namespace frugal::protocol {

struct AdaptiveFrugalConfig {
  /// Charge fraction below which low-charge dozing arms; 0 disables dozing.
  double doze_below = 0.35;
  /// Fraction of each doze round spent asleep while dozing (must be < 1).
  double doze_fraction = 0.5;
  /// Doze round length; the factory aligns it with the heartbeat bound.
  SimDuration doze_period = SimDuration::from_seconds(1.0);
};

class AdaptiveFrugalNode final : public core::ProtocolNode {
 public:
  /// `charge_provider` returns remaining charge in [0, 1]; null disables
  /// every adaptive behaviour (the node runs exactly like FrugalNode).
  AdaptiveFrugalNode(NodeId id, sim::Scheduler& scheduler, net::Medium& medium,
                     core::FrugalConfig config,
                     std::function<double()> speed_provider,
                     std::function<double()> charge_provider,
                     AdaptiveFrugalConfig adaptive);
  ~AdaptiveFrugalNode() override;

  [[nodiscard]] NodeId id() const override { return inner_.id(); }
  void subscribe(const topics::Topic& topic) override {
    inner_.subscribe(topic);
  }
  void unsubscribe(const topics::Topic& topic) override {
    inner_.unsubscribe(topic);
  }
  void publish(core::Event event) override { inner_.publish(std::move(event)); }
  void on_frame(const net::Frame& frame) override { inner_.on_frame(frame); }
  [[nodiscard]] const core::DeliveryMetrics& metrics() const override {
    return inner_.metrics();
  }
  void set_observer(core::RunObserver* observer) override {
    inner_.set_observer(observer);
  }
  void enable_delivery_history_pruning(SimDuration slack) override {
    inner_.enable_delivery_history_pruning(slack);
  }

  [[nodiscard]] const core::FrugalNode& inner() const { return inner_; }
  [[nodiscard]] bool dozing() const { return dozing_; }

 private:
  void on_doze_tick();

  sim::Scheduler& scheduler_;
  net::Medium& medium_;
  std::function<double()> charge_;
  AdaptiveFrugalConfig adaptive_;
  core::FrugalNode inner_;  ///< attaches itself to the medium
  sim::PeriodicTask doze_;
  sim::TaskHandle wake_;
  bool dozing_ = false;
};

}  // namespace frugal::protocol
