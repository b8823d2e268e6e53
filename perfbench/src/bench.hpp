// Declarations shared by the benchmark program's parts: workloads (a scenario
// spec plus the options that fix its job set), timed rounds over the job
// set, output checks made apart from the program's own folds, and layer
// replays. The benchmark reaches the simulator only through public headers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/profiler.hpp"

namespace perfbench {

namespace core = frugal::core;
namespace runner = frugal::runner;
namespace sim = frugal::sim;

/// Collects failed output checks; a run is correct when none failed.
class CheckLog {
 public:
  void expect(bool ok, const std::string& what) {
    ++checked_;
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::size_t checked_ = 0;
  std::vector<std::string> failures_;
};

// -- workloads.cpp ----------------------------------------------------------

/// One benchmark workload: the scenario whose job set it runs and the sweep
/// options (seed base, seeds, grid overrides) that fix that set.
struct Workload {
  std::string name;
  const runner::ScenarioSpec* spec = nullptr;
  runner::SweepOptions options;
  bool reduced = false;  ///< the short mode's smaller job set
};

/// Builds the named workload; false when the name is unknown.
[[nodiscard]] bool make_workload(const std::string& name,
                                 std::uint64_t seed_base, bool reduced,
                                 Workload& out);
/// The config of job `job` of the plan — what run_sweep_job builds.
[[nodiscard]] core::ExperimentConfig job_config(const Workload& workload,
                                                const runner::SweepPlan& plan,
                                                std::size_t job);
/// End of simulated time of a config: last publish + validity.
[[nodiscard]] double run_end_s(const core::ExperimentConfig& config);

// -- rounds.cpp -------------------------------------------------------------

enum class RoundKind {
  kChecked,        ///< the benchmark's executor; keeps every RunResult
  kProgram,        ///< runner::run_sweep_job_instrumented, the sweep's path
  kProfiled,       ///< kProgram with a sim::Profiler per job
  kTracerToggled,  ///< kProgram with the stats-only tracer flipped vs the spec
};

/// One pass over the workload's whole job set on the worker pool.
struct Round {
  RoundKind kind = RoundKind::kChecked;
  double wall_s = 0;
  std::vector<double> job_s;                  ///< per-job host seconds
  std::vector<std::vector<double>> metrics;   ///< per-job spec metrics
  std::vector<core::RunResult> results;       ///< kChecked only
  std::vector<sim::Profiler> profiles;        ///< kProfiled only, per job
};

[[nodiscard]] Round run_round(const Workload& workload,
                              const runner::SweepPlan& plan, RoundKind kind,
                              int threads);

/// The benchmark's executor for one job: the spec's config, run_experiment
/// (with the spec's stats-only tracer when it has one) and the spec's
/// extractors, whose values go to `metrics`.
[[nodiscard]] core::RunResult run_checked_job(const Workload& workload,
                                              const runner::SweepPlan& plan,
                                              std::size_t job,
                                              std::vector<double>& metrics);

/// Repeated set-up of the workload: plan the sweep, then build every job's
/// world and run it up to its first simulated event; at least 21 times and
/// for at least half a second, so that a transient stall moves only a few
/// of the repetitions the median is taken over.
struct SetUp {
  runner::SweepPlan plan;
  std::vector<double> seconds;       ///< one per repetition
  std::vector<double> plan_seconds;  ///< plan_sweep alone, per repetition
};
[[nodiscard]] SetUp set_up(const Workload& workload);

// -- checks.cpp -------------------------------------------------------------

/// Reliability recomputed from delivered_at, subscriptions and event topics
/// with the benchmark's own covering test.
[[nodiscard]] double recompute_reliability(const core::RunResult& result);
/// Whether the protocol runs FrugalNode's bundle handler, where the
/// expired-in-flight fault lives (frugal and its adaptive variants).
[[nodiscard]] bool runs_frugal_node(const std::string& protocol);
/// Checks one job's result: every delivery lies in [publish, publish +
/// validity] at an eligible subscriber, and `reported_reliability` equals
/// the recomputed value. Where `frugal_node` is set, a delivery at most
/// 1 s past validity is the known expired-in-flight fault: it is not a
/// check failure but is returned as a count, and fails the job. Any other
/// delivery outside the window fails the check.
[[nodiscard]] std::size_t check_job(const core::RunResult& result,
                                    double reported_reliability,
                                    bool frugal_node, const std::string& label,
                                    CheckLog& log);
/// Order-sensitive hash of every counter and delivery of a result; two runs
/// of one config must agree exactly.
[[nodiscard]] std::uint64_t fingerprint(const core::RunResult& result);
/// The workload's own checks on the checked round (results and
/// per-job metrics) and the aggregated sweep built from those metrics.
void check_workload(const Workload& workload, const runner::SweepPlan& plan,
                    const std::vector<core::RunResult>& results,
                    const std::vector<std::vector<double>>& job_metrics,
                    const runner::SweepResult& sweep, CheckLog& log);
/// The checker's own test; returns the process exit code.
[[nodiscard]] int run_self_test();

// -- replay.cpp -------------------------------------------------------------

/// Inputs shaped like one workload, for the layer replays.
struct LayerShape {
  core::ExperimentConfig reference;  ///< the plan's last job's config
  std::size_t queue_depth = 0;       ///< scheduler entries held at once
  double frames_per_sim_s = 0;       ///< per world
  double receivers_per_frame = 0;
  std::size_t live_events = 1;       ///< events valid at the same time
  std::uint64_t seed = 1;
};

/// Runs every layer replay; returns (metric name, value) pairs.
[[nodiscard]] std::vector<std::pair<std::string, double>> run_replays(
    const LayerShape& shape);

}  // namespace perfbench
