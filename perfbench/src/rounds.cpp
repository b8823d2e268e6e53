// Timed passes over a workload's job set, and its repeated set-up.

#include <chrono>
#include <optional>

#include "bench.hpp"
#include "runner/pool.hpp"
#include "telemetry/causal.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

core::RunResult run_checked_job(const Workload& workload,
                                const runner::SweepPlan& plan,
                                std::size_t job,
                                std::vector<double>& metrics) {
  const runner::ScenarioSpec& spec = *workload.spec;
  core::ExperimentConfig config = job_config(workload, plan, job);
  std::optional<frugal::telemetry::DisseminationTracer> tracer;
  if (const auto dissem = runner::dissem_config_for(spec, workload.options)) {
    tracer.emplace(*dissem);
    config.dissem_tracer = &*tracer;
  }
  core::RunResult result = core::run_experiment(config);
  const runner::ParamPoint& point =
      plan.grid[job / static_cast<std::size_t>(plan.seeds)];
  metrics.clear();
  metrics.reserve(spec.metrics.size());
  for (const runner::MetricSpec& metric : spec.metrics) {
    metrics.push_back(metric.extract(result, point));
  }
  return result;
}

Round run_round(const Workload& workload, const runner::SweepPlan& plan,
                RoundKind kind, int threads) {
  const runner::ScenarioSpec& spec = *workload.spec;
  const std::size_t jobs = plan.job_count;
  const std::optional<frugal::telemetry::TracerConfig> dissem =
      runner::dissem_config_for(spec, workload.options);
  // The tracer each program-path job gets: the spec's, or in a toggled
  // round none where the spec has one and a stats-only one where it has not.
  const frugal::telemetry::TracerConfig stats_only;
  const frugal::telemetry::TracerConfig* tracer =
      dissem.has_value() ? &*dissem : nullptr;
  if (kind == RoundKind::kTracerToggled) {
    tracer = dissem.has_value() ? nullptr : &stats_only;
  }

  Round round;
  round.kind = kind;
  round.job_s.resize(jobs);
  round.metrics.resize(jobs);
  if (kind == RoundKind::kChecked) round.results.resize(jobs);
  if (kind == RoundKind::kProfiled) round.profiles.resize(jobs);

  // Every job writes only its own slots, as in runner::run_sweep.
  const Clock::time_point started = Clock::now();
  runner::parallel_for(jobs, threads, [&](std::size_t job) {
    const Clock::time_point job_started = Clock::now();
    if (kind == RoundKind::kChecked) {
      round.results[job] =
          run_checked_job(workload, plan, job, round.metrics[job]);
    } else {
      round.metrics[job] = runner::run_sweep_job_instrumented(
          spec, plan, job, nullptr,
          kind == RoundKind::kProfiled ? &round.profiles[job] : nullptr,
          tracer);
    }
    round.job_s[job] = since(job_started);
  });
  round.wall_s = since(started);
  return round;
}

SetUp set_up(const Workload& workload) {
  constexpr std::size_t kMinRepetitions = 21;
  constexpr double kMinSeconds = 0.5;
  SetUp out;
  const Clock::time_point first = Clock::now();
  while (out.seconds.size() < kMinRepetitions || since(first) < kMinSeconds) {
    const Clock::time_point started = Clock::now();
    runner::SweepPlan plan = runner::plan_sweep(*workload.spec,
                                                workload.options);
    out.plan_seconds.push_back(since(started));
    for (std::size_t job = 0; job < plan.job_count; ++job) {
      // The job's world, cut off right after its first simulated event:
      // one publication at t = 0 whose validity ends a microsecond later.
      core::ExperimentConfig config = job_config(workload, plan, job);
      config.warmup = frugal::SimDuration::zero();
      config.event_count = 1;
      config.event_validity = frugal::SimDuration::from_us(1);
      static_cast<void>(core::run_experiment(config));
    }
    out.seconds.push_back(since(started));
    out.plan = std::move(plan);
  }
  return out;
}

}  // namespace perfbench
