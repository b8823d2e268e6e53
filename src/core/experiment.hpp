// Experiment runner: wires simulator + medium + mobility + protocol nodes
// into one run of the paper's evaluation setup and collects the metrics the
// figures are built from (reliability, bandwidth, events sent, duplicates,
// parasites).
//
// A run publishes `event_count` events on one topic from one publisher after
// a warm-up, lets them live out their validity period, and reports per-node
// outcomes. Reliability can be evaluated at any probe validity <= the run's
// validity from the recorded delivery times: for single-publisher workloads
// with ample memory the protocol's behaviour up to time v is identical for
// every validity >= v, so one run yields the whole validity axis (used by
// Figs. 11, 12 and 16; see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/flooding.hpp"
#include "core/frugal_node.hpp"
#include "core/node.hpp"
#include "energy/energy.hpp"
#include "mobility/city_section.hpp"
#include "mobility/converge.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/medium.hpp"
#include "telemetry/aggregates.hpp"
#include "telemetry/causal.hpp"

namespace frugal::trace {
class TraceRecorder;
}

namespace frugal::telemetry {
class RunTelemetry;
}

namespace frugal::sim {
class Profiler;
}

namespace frugal::core {

/// Static placement over a rectangle (the speed-0 points of Fig. 11).
struct StaticSetup {
  double width_m = 5000.0;
  double height_m = 5000.0;
};

struct RandomWaypointSetup {
  mobility::RandomWaypointConfig config;
};

struct CitySetup {
  mobility::CampusGridConfig grid;
  mobility::CitySectionConfig movement;
};

/// Flash-crowd mobility (the adversarial_mobility scenario family): every
/// process converges on one rally point, dwells, then disperses.
struct ConvergeSetup {
  mobility::ConvergeConfig config;
};

using MobilitySetup =
    std::variant<StaticSetup, RandomWaypointSetup, CitySetup, ConvergeSetup>;

/// Crash/recovery injection (paper §2: processes "can move in and out of the
/// range of other processes, or crash (or recover), at any time"). Crashes
/// arrive per node as a Poisson process; a crashed node is silent and deaf
/// (its radio is down) for a uniform downtime, keeping its tables — exactly
/// what a device reboot looks like to the protocol.
struct ChurnConfig {
  double crashes_per_node_per_minute = 0.0;  ///< 0 disables churn
  SimDuration downtime_min = SimDuration::from_seconds(5.0);
  SimDuration downtime_max = SimDuration::from_seconds(30.0);
};

/// Hierarchical pub/sub workload over a synthetic topic tree (the
/// topic_fanout scenario family). The hierarchy is the complete
/// `branching`-ary tree of `depth` levels under ".t"; publications land on
/// leaf topics with Zipf-skewed popularity, and each subscriber draws
/// `subscriptions_per_node` interests that are either broad (a depth-1
/// branch topic, covering its whole subtree) or narrow (a single leaf).
/// When unset, runs use the paper's flat workload (everyone subscribes
/// ".news", events publish on ".news.local") — bit-identical to before.
struct TopicHierarchyWorkload {
  std::uint32_t depth = 3;      ///< levels below the root; leaves = b^depth
  std::uint32_t branching = 3;  ///< children per interior topic
  /// Zipf exponent of leaf publication popularity: weight(rank r) =
  /// 1/(r+1)^s over the depth-first leaf order. 0 = uniform.
  double zipf_s = 1.0;
  /// Probability that a drawn subscription is broad (depth-1 branch) rather
  /// than narrow (leaf).
  double broad_fraction = 0.5;
  std::uint32_t subscriptions_per_node = 1;
};

struct ExperimentConfig {
  /// Registered name of the dissemination protocol to run (see
  /// protocol/registry.hpp; `register_builtin_protocols()` provides
  /// "frugal", the three flooding variants and the adaptive/gossip
  /// variants). Unregistered names abort with a listing.
  std::string protocol = "frugal";
  /// Opaque per-protocol knobs, keyed by the ProtocolParam names the
  /// chosen protocol declares (e.g. "hb_stretch" for
  /// battery-adaptive-frugal). Keys no protocol declared abort. Ordered
  /// map: iteration order is deterministic for serialization.
  std::map<std::string, double> protocol_params;
  std::size_t node_count = 150;  ///< paper: 150 (RWP), 15 (city)
  /// Fraction of processes subscribed to the event topic ("interest"/
  /// "subscribers" axis of the figures). Non-subscribed processes run no
  /// protocol tasks of their own but still overhear traffic (parasites).
  double interest_fraction = 0.8;
  MobilitySetup mobility = RandomWaypointSetup{};
  net::MediumConfig medium;
  FrugalConfig frugal;
  FloodingConfig flooding;  ///< flooding protocols override `variant`
  /// Simulated time before the first publication (paper: 600 s for random
  /// waypoint, to let the node distribution stabilize).
  SimDuration warmup = SimDuration::from_seconds(600.0);
  SimDuration event_validity = SimDuration::from_seconds(180.0);
  std::uint32_t event_count = 1;
  std::uint32_t event_bytes = 400;
  /// Events are published `publish_spacing` apart starting at `warmup`.
  SimDuration publish_spacing = SimDuration::from_seconds(1.0);
  /// Publisher node; defaults to the first subscriber drawn. May be a
  /// non-subscriber (Fig. 14/15 sweeps publish from every process in turn).
  std::optional<NodeId> publisher;
  /// Number of distinct publishers; the workload's events round-robin
  /// across them in publication order. The publisher set starts at
  /// `publisher` (or the default draw) and continues through the seeded
  /// subscriber order. 1 — the paper's single-publisher workloads — is
  /// bit-identical to the pre-multi-publisher behaviour.
  std::uint32_t publisher_count = 1;
  /// Optional hierarchical topic workload; see TopicHierarchyWorkload.
  std::optional<TopicHierarchyWorkload> topic_workload;
  ChurnConfig churn;
  /// Optional radio energy accounting (see energy/energy.hpp): power-state
  /// metering, finite batteries with depletion-driven death, and duty-cycle
  /// sleep. Unset (the default) runs the exact pre-energy code path — no
  /// extra scheduler events, byte-identical golden traces.
  std::optional<energy::EnergyConfig> energy;
  std::uint64_t seed = 1;
  // The observers below (all but the profiler) are core::RunObservers:
  // run_experiment fans every run callback out to the attached ones in
  // the order energy model, telemetry, dissem_tracer, trace.

  /// Optional: records the run's publications, deliveries and radio up/down
  /// flips live, in (time, kind, node, event index) order once the run
  /// ends. Not owned; must outlive the run_experiment call. The
  /// golden-trace regression tests diff this.
  trace::TraceRecorder* trace = nullptr;
  /// Optional streaming telemetry hub (telemetry/telemetry.hpp): consumes
  /// the publish/delivery/frame/energy/GC streams live and produces
  /// RunResult-equivalent aggregates plus time-series / Perfetto artifacts.
  /// Not owned; must outlive the run.
  telemetry::RunTelemetry* telemetry = nullptr;
  /// Optional simulator self-profiler: exclusive per-subsystem wall-clock
  /// and call counts (scheduler tasks, medium, telemetry, experiment
  /// phases). Not owned; attaching it never affects simulated behaviour.
  sim::Profiler* profiler = nullptr;
  /// Optional causal dissemination tracer (telemetry/causal.hpp): consumes
  /// the medium's per-frame fates and the nodes' phase annotations and
  /// reconstructs per-event propagation DAGs, hop/redundancy/phase-latency
  /// metrics and the dissem-trace artifact. Pure observer — attaching it is
  /// perturbation-free. Not owned; must outlive the run.
  telemetry::DisseminationTracer* dissem_tracer = nullptr;
};

struct PublishedEventRecord {
  EventId id;
  SimTime published_at;
  SimDuration validity;
  /// The topic the event was published on (hierarchical workloads publish
  /// on varying leaves; flat runs always use ".news.local").
  topics::Topic topic;
};

struct NodeOutcome {
  bool subscribed = false;
  /// The node's drawn interests; reliability counts a node against an event
  /// only when these cover the event's topic.
  topics::SubscriptionSet subscriptions;
  /// Traffic during the measurement window (from first publish to run end).
  net::TrafficCounters traffic;
  std::uint64_t events_sent = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t parasites = 0;
  /// Event-table GC collections (Fig. 3 / Equation 1) this node performed
  /// during the measurement window — 0 unless memory pressure forced
  /// victim selection. Flooding baselines keep no event table, so always 0
  /// there.
  std::uint64_t gc_evictions = 0;
  /// Radio energy drawn during the measurement window, in joules. 0 unless
  /// the run carried an EnergyConfig.
  double energy_spent_j = 0.0;
  /// Whole-run radio energy including the warm-up — what the battery
  /// actually lost, and what the joules-per-delivered-event headline
  /// charges (a network that spent its batteries warming up must not rank
  /// as frugal). 0 unless the run carried an EnergyConfig.
  double energy_spent_total_j = 0.0;
  /// Measurement-window joules broken down by radio power state (transmit /
  /// receive / idle listening / power-save sleep). The four sum to
  /// `energy_spent_j` up to floating-point addition order; the off state
  /// draws nothing. All 0 unless the run carried an EnergyConfig.
  double energy_tx_j = 0.0;
  double energy_rx_j = 0.0;
  double energy_idle_j = 0.0;
  double energy_sleep_j = 0.0;
  /// Time spent in power-save sleep during the measurement window, seconds.
  double time_asleep_s = 0.0;
  /// The node's battery emptied and its radio was switched off for good.
  bool died_of_depletion = false;
  /// Exact battery-depletion instant (absolute simulated time), if any.
  /// May precede the warm-up: a battery too small for the warm-up kills
  /// the node before the first publication.
  std::optional<SimTime> depleted_at;
  /// Delivery times of the workload events, by event index.
  std::vector<std::optional<SimTime>> delivered_at;
};

struct RunResult {
  std::vector<PublishedEventRecord> events;
  std::vector<NodeOutcome> nodes;
  /// The first (for single-publisher runs: the only) publishing node.
  NodeId publisher = kInvalidNode;
  /// Every publishing node, in round-robin order (size = publisher_count).
  std::vector<NodeId> publishers;
  /// End of simulated time (last publish + validity); the horizon the
  /// energy lifetime metrics are capped at.
  SimTime run_end;
  /// Streamed aggregates when the run carried a telemetry hub. Bounded-
  /// memory runs leave `events` and every `delivered_at` empty and answer
  /// the delivery metrics from here instead; materialized runs keep both so
  /// tests can assert the streamed math is bit-equal to the legacy fold.
  std::optional<telemetry::RunAggregates> aggregates;
  /// Causal-dissemination aggregates when the run carried a
  /// DisseminationTracer: hop distribution, redundancy ratio, per-phase
  /// latency decomposition and the terminal-outcome partition.
  std::optional<telemetry::DisseminationStats> dissem;

  /// Fraction of *eligible* subscribers (those whose subscriptions cover
  /// the event's topic) that received each event within `validity` of its
  /// publication, averaged over events with at least one eligible
  /// subscriber. For the flat workload every subscriber is eligible for
  /// every event, so this is the paper's reception probability unchanged.
  /// `validity` must not exceed the validity the run was executed with.
  [[nodiscard]] double reliability_within(SimDuration validity) const;
  /// Reliability at the run's own validity period.
  [[nodiscard]] double reliability() const;

  [[nodiscard]] double mean_bytes_sent_per_node() const;
  [[nodiscard]] double mean_events_sent_per_node() const;
  [[nodiscard]] double mean_duplicates_per_node() const;
  [[nodiscard]] double mean_parasites_per_node() const;
  /// Mean event-table GC collections per process (the memory_pressure
  /// family's observable for "Equation 1 actually ran").
  [[nodiscard]] double mean_gc_evictions_per_node() const;
  [[nodiscard]] std::size_t subscriber_count() const;

  // -- Energy / frugality-in-joules metrics (all 0-ish without an
  //    EnergyConfig; see energy/energy.hpp) --------------------------------
  /// Mean measurement-window radio energy per process, joules.
  [[nodiscard]] double mean_joules_per_node() const;
  /// Number of recorded (subscriber, event) deliveries.
  [[nodiscard]] std::size_t delivered_count() const;
  /// The frugality headline: whole-run joules across every process per
  /// recorded delivery. Whole-run — not measurement-window — so a
  /// configuration whose batteries died during the warm-up is charged for
  /// everything it burned rather than scoring a free 0. When nothing was
  /// delivered the total is returned unscaled (as if one delivery),
  /// keeping the metric finite.
  [[nodiscard]] double joules_per_delivered_event() const;
  /// Fraction of processes whose battery emptied before the run ended.
  [[nodiscard]] double depleted_fraction() const;
  /// Fraction of processes still alive at the end of the run.
  [[nodiscard]] double survivor_fraction() const;
  /// Seconds from simulation start to the first battery death — the
  /// network-lifetime number; `run_end` when every process survived.
  [[nodiscard]] double first_depletion_s() const;

  /// Delivery latencies (seconds from publication) of every successful
  /// delivery across subscribers and events, ascending.
  [[nodiscard]] std::vector<double> delivery_latencies_s() const;
  /// Mean delivery latency in seconds (0 when nothing was delivered).
  [[nodiscard]] double mean_delivery_latency_s() const;

  // -- Causal-dissemination metrics (0 without a DisseminationTracer) ------
  /// Mean hop count over delivered (subscriber, event) pairs, where the
  /// publisher's own synchronous self-delivery is hop 0.
  [[nodiscard]] double mean_hops_to_deliver() const {
    return dissem.has_value() ? dissem->mean_hops() : 0.0;
  }
  /// Intact event-carrying frame receptions per unique fresh delivery —
  /// the broadcast-redundancy headline (1.0 = every reception was useful).
  [[nodiscard]] double redundancy_ratio() const {
    return dissem.has_value() ? dissem->redundancy_ratio() : 0.0;
  }
};

/// Runs one complete simulation. Deterministic in config.seed.
[[nodiscard]] RunResult run_experiment(const ExperimentConfig& config);

}  // namespace frugal::core
