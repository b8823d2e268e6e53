// frugal_perfbench: runs one workload of the simulator's benchmark in this
// process and prints its metrics.
//
//   frugal_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--short] [--git-commit SHA] [--git-dirty 0|1|unknown]
//   frugal_perfbench --self-test
//
// Every run first runs the workload's job set once through the benchmark's
// own executor and checks every job's output. --trace 0 then times whole
// rounds of the program's sweep path for S seconds (at least two rounds)
// and prints the end-to-end metrics; --trace 1 cycles untraced, profiled
// and tracer-toggled rounds of that path plus the layer replays and prints
// the per-layer metrics. Job 0 is re-run at the end and must match.
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The line before it holds the run's provenance.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "runner/sink.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool reduced = false;
  std::string git_commit = "unknown";
  std::string git_dirty = "unknown";
  bool self_test = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "frugal_perfbench: %s\n"
               "usage: frugal_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--short]\n"
               "       frugal_perfbench --self-test\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.reduced = true;
      continue;
    }
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--git-commit") {
      args.git_commit = value;
    } else if (flag == "--git-dirty") {
      args.git_dirty = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args.self_test ||
         (!args.workload.empty() && args.seconds > 0 &&
          (args.trace == 0 || args.trace == 1));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string read_first_line(const char* path, const std::string& prefix) {
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) return line;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string provenance_json(const Args& args, const Workload& workload,
                            int threads) {
  // The 1, 5 and 15 minute load averages.
  std::string load;
  {
    std::ifstream in{"/proc/loadavg"};
    std::string word;
    for (int i = 0; i < 3 && in >> word; ++i) load += (i ? " " : "") + word;
  }
  std::string out = "{\"provenance\": {";
  const auto field = [&out](const char* key, const std::string& value,
                            bool last = false) {
    out += json_string(key) + ": " + value + (last ? "" : ", ");
  };
  field("git_commit", json_string(args.git_commit));
  field("git_dirty", json_string(args.git_dirty));
  field("build_type", json_string(PERFBENCH_BUILD_TYPE));
  field("cxx_flags", json_string(PERFBENCH_CXX_FLAGS));
  field("compiler", json_string(PERFBENCH_COMPILER));
  field("cpu_model",
        json_string(read_first_line("/proc/cpuinfo", "model name")));
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("loadavg_start", json_string(load));
  field("workload", json_string(workload.name));
  field("scenario", json_string(workload.spec->name));
  field("short", workload.reduced ? "true" : "false");
  field("seed_base", std::to_string(args.seed));
  field("workload_seed_base", std::to_string(workload.options.seed_base));
  field("seconds", json_number(args.seconds));
  field("trace", std::to_string(args.trace));
  field("threads", std::to_string(threads), true);
  return out + "}}";
}

/// Peak resident memory of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the peak of the process that exec'd us.
double peak_rss_mib() {
  const std::string hwm = read_first_line("/proc/self/status", "VmHWM");
  return std::strtod(hwm.c_str(), nullptr) / 1024.0;  // "<n> kB"
}

std::string job_label(const Workload& workload, const runner::SweepPlan& plan,
                      std::size_t job) {
  // "<workload> job <j> (axis=value ... seed=<s>)"
  const auto seeds = static_cast<std::size_t>(plan.seeds);
  std::string label = workload.name + " job " + std::to_string(job) + " (";
  const runner::ParamPoint& point = plan.grid[job / seeds];
  for (std::size_t a = 0; a < plan.axes.size(); ++a) {
    label += plan.axes[a].name + "=" + plan.axes[a].cell(point.values[a]) +
             " ";
  }
  return label + "seed=" +
         std::to_string(
             runner::job_seed(plan.seed_base, static_cast<int>(job % seeds))) +
         ")";
}

/// Checks every job of the checked round; returns the number of jobs that
/// delivered an event expired in flight.
std::size_t check_round(const Workload& workload,
                        const runner::SweepPlan& plan, const Round& round,
                        CheckLog& log) {
  std::size_t failing = 0;
  std::size_t expired_total = 0;
  for (std::size_t job = 0; job < round.results.size(); ++job) {
    const std::string label = job_label(workload, plan, job);
    const bool frugal_node =
        runs_frugal_node(job_config(workload, plan, job).protocol);
    const std::size_t expired =
        check_job(round.results[job], round.results[job].reliability(),
                  frugal_node, label, log);
    if (expired > 0) {
      ++failing;
      expired_total += expired;
      std::printf("failed: %s: %zu deliveries of events that expired in "
                  "flight\n",
                  label.c_str(), expired);
    }
  }
  std::printf("expired in flight: %zu deliveries in %zu of %zu jobs\n",
              expired_total, failing, round.results.size());
  return failing;
}

/// Metric vectors of a timed round against the checked round's; the two
/// executors must build the same config. `skip_dissem` leaves out the
/// metrics read from a tracer that the round did not have.
void compare_metrics(const Workload& workload, const Round& round,
                     const Round& reference, bool skip_dissem,
                     std::size_t round_index, CheckLog& log) {
  std::size_t differing = 0;
  for (std::size_t job = 0; job < round.metrics.size(); ++job) {
    for (std::size_t m = 0; m < workload.spec->metrics.size(); ++m) {
      if (skip_dissem && workload.spec->metrics[m].needs_dissem) continue;
      const double a = round.metrics[job][m];
      const double b = reference.metrics[job][m];
      if (std::memcmp(&a, &b, sizeof a) != 0) ++differing;
    }
  }
  log.expect(differing == 0,
             workload.name + " timed round " + std::to_string(round_index) +
                 ": " + std::to_string(differing) +
                 " metric values differ from the checked round");
}

struct Rounds {
  Round checked;             ///< the benchmark's executor; every RunResult
  std::vector<Round> timed;  ///< the program's sweep path
  std::size_t failing_jobs = 0;  ///< per round, read from the checked one

  [[nodiscard]] std::vector<double> walls(RoundKind kind) const {
    std::vector<double> out;
    for (const Round& round : timed) {
      if (round.kind == kind) out.push_back(round.wall_s);
    }
    return out;
  }
  /// Jobs run in all rounds; the simulator is deterministic, so a job that
  /// failed in the checked round fails in every round.
  [[nodiscard]] std::uint64_t attempted() const {
    return (1 + timed.size()) * checked.results.size();
  }
  [[nodiscard]] std::uint64_t failed() const {
    return (1 + timed.size()) * failing_jobs;
  }
};

constexpr std::size_t kMinTimedRounds = 2;

/// Runs the checked round, then `cycle`'s kinds whole, again and again,
/// until `seconds` have passed and at least kMinTimedRounds ran; then job 0
/// once more through the benchmark's executor. Every timed round's metric
/// vectors must equal the checked round's, and the re-run its result.
Rounds run_rounds(const Workload& workload, const runner::SweepPlan& plan,
                  const std::vector<RoundKind>& cycle, double seconds,
                  int threads, CheckLog& log) {
  const bool spec_traces =
      runner::dissem_config_for(*workload.spec, workload.options).has_value();
  Rounds out;
  out.checked = run_round(workload, plan, RoundKind::kChecked, threads);
  out.failing_jobs = check_round(workload, plan, out.checked, log);
  const Clock::time_point started = Clock::now();
  for (std::size_t r = 0;; ++r) {
    const RoundKind kind = cycle[r % cycle.size()];
    Round round = run_round(workload, plan, kind, threads);
    compare_metrics(workload, round, out.checked,
                    kind == RoundKind::kTracerToggled && spec_traces, r, log);
    out.timed.push_back(std::move(round));
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - started).count();
    if (out.timed.size() % cycle.size() == 0 &&
        out.timed.size() >= kMinTimedRounds && elapsed >= seconds) {
      break;
    }
  }
  std::vector<double> metrics;
  const core::RunResult again = run_checked_job(workload, plan, 0, metrics);
  log.expect(fingerprint(again) == fingerprint(out.checked.results[0]),
             job_label(workload, plan, 0) +
                 ": a re-run in process differs from the first run");
  return out;
}

double job_node_seconds(const Workload& workload,
                        const runner::SweepPlan& plan) {
  double total = 0;
  for (std::size_t job = 0; job < plan.job_count; ++job) {
    const core::ExperimentConfig config = job_config(workload, plan, job);
    total += static_cast<double>(config.node_count) * run_end_s(config);
  }
  return total;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome run_end_to_end(const Workload& workload, const Args& args,
                       int threads, CheckLog& log) {
  const SetUp setup = set_up(workload);
  const runner::SweepPlan& plan = setup.plan;

  // Only the program's sweep path is timed.
  const Rounds run = run_rounds(workload, plan, {RoundKind::kProgram},
                                args.seconds, threads, log);
  const std::vector<double> walls = run.walls(RoundKind::kProgram);
  // Each job's median over the rounds, then the mean over jobs. Not the
  // median over jobs: fig11_rwp's jobs fall into two clusters of 15 (one
  // per interest level), so that median sits in the gap between the
  // slowest 20 % job and the fastest 80 % one, a static world whose cost
  // swings with the placement; over ten seeds its spread reached 0.24.
  double job_seconds = 0;
  for (std::size_t job = 0; job < plan.job_count; ++job) {
    std::vector<double> times;
    for (const Round& round : run.timed) times.push_back(round.job_s[job]);
    job_seconds += median(std::move(times));
  }
  const runner::SweepResult sweep =
      runner::aggregate_jobs(*workload.spec, plan, run.checked.metrics);
  check_workload(workload, plan, run.checked.results, run.checked.metrics,
                 sweep, log);

  Outcome out;
  out.attempted = run.attempted();
  out.failed = run.failed();
  const double wall = median(walls);
  out.metrics = {
      {"wall_s", wall, "s"},
      {"node_s_per_s", job_node_seconds(workload, plan) / wall, "node_s/s"},
      {"job_mean_s", job_seconds / static_cast<double>(plan.job_count),
       "s"},
      {"setup_s", median(setup.seconds), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
  return out;
}

/// Mean per profiled round of one profiler section.
struct SectionReader {
  const sim::Profiler& profile;
  double rounds;

  [[nodiscard]] const sim::Profiler::Section* find(
      const std::string& name) const {
    for (const auto& [section_name, section] : profile.sections()) {
      if (section_name == name) return &section;
    }
    return nullptr;
  }
  [[nodiscard]] double ms(const std::string& name) const {
    const sim::Profiler::Section* s = find(name);
    return s == nullptr ? 0.0 : static_cast<double>(s->wall_ns) / 1e6 / rounds;
  }
  [[nodiscard]] double count(const std::string& name) const {
    const sim::Profiler::Section* s = find(name);
    return s == nullptr ? 0.0 : static_cast<double>(s->count) / rounds;
  }
  [[nodiscard]] double total_ms() const {
    double total = 0;
    for (const auto& entry : profile.sections()) {
      total += static_cast<double>(entry.second.wall_ns);
    }
    return total / 1e6 / rounds;
  }
};

double per(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// Prints, for the given jobs, every profiler section's share of their
/// profiled time, the scheduler tasks per round and the GC evictions per
/// node: the figures a workload's reason for being rests on.
void print_layers(const std::string& label, const Rounds& run,
                  const std::vector<std::size_t>& jobs) {
  sim::Profiler profile;
  double profiled_rounds = 0;
  for (const Round& round : run.timed) {
    if (round.profiles.empty()) continue;
    ++profiled_rounds;
    for (const std::size_t job : jobs) profile.merge(round.profiles[job]);
  }
  double evictions = 0;
  double nodes = 0;
  for (const std::size_t job : jobs) {
    for (const core::NodeOutcome& node : run.checked.results[job].nodes) {
      evictions += static_cast<double>(node.gc_evictions);
      ++nodes;
    }
  }
  std::vector<std::pair<std::int64_t, std::string>> sections;
  double total_ns = 0;
  double tasks = 0;
  for (const auto& [name, section] : profile.sections()) {
    sections.emplace_back(section.wall_ns, name);
    total_ns += static_cast<double>(section.wall_ns);
    if (name == "scheduler.task") tasks = static_cast<double>(section.count);
  }
  std::sort(sections.rbegin(), sections.rend());
  std::printf("layers %s: %.0f tasks per round, %.1f gc evictions per node;",
              label.c_str(), per(tasks, profiled_rounds),
              per(evictions, nodes));
  for (const auto& [wall_ns, name] : sections) {
    std::printf(" %s %.1f%%", name.c_str(),
                100.0 * per(static_cast<double>(wall_ns), total_ns));
  }
  std::printf("\n");
}

Outcome run_per_layer(const Workload& workload, const Args& args, int threads,
                      CheckLog& log) {
  const SetUp setup = set_up(workload);
  const runner::SweepPlan& plan = setup.plan;
  const bool spec_traces =
      runner::dissem_config_for(*workload.spec, workload.options).has_value();
  // Untraced, profiled and tracer-toggled rounds in turn, all on the
  // program's sweep path.
  const Rounds run = run_rounds(
      workload, plan,
      {RoundKind::kProgram, RoundKind::kProfiled, RoundKind::kTracerToggled},
      args.seconds, threads, log);
  const std::vector<double> plain_walls = run.walls(RoundKind::kProgram);
  const std::vector<double> profiled_walls = run.walls(RoundKind::kProfiled);
  const std::vector<double> toggled_walls =
      run.walls(RoundKind::kTracerToggled);
  sim::Profiler profile;
  for (const Round& round : run.timed) {
    for (const sim::Profiler& job_profile : round.profiles) {
      profile.merge(job_profile);
    }
  }
  const std::vector<core::RunResult>& results = run.checked.results;

  // Section shares for the whole job set and, on small grids, per point.
  std::vector<std::size_t> all_jobs(plan.job_count);
  for (std::size_t job = 0; job < plan.job_count; ++job) all_jobs[job] = job;
  print_layers(workload.name, run, all_jobs);
  const auto seeds = static_cast<std::size_t>(plan.seeds);
  if (plan.grid.size() > 1 && plan.grid.size() <= 4) {
    for (std::size_t point = 0; point < plan.grid.size(); ++point) {
      std::string label = workload.name;
      for (std::size_t a = 0; a < plan.axes.size(); ++a) {
        label += " " + plan.axes[a].name + "=" +
                 plan.axes[a].cell(plan.grid[point].values[a]);
      }
      std::vector<std::size_t> jobs;
      for (std::size_t s = 0; s < seeds; ++s) jobs.push_back(point * seeds + s);
      print_layers(label, run, jobs);
    }
  }

  // Runner layer: plan, aggregate and render, on the reference round.
  std::vector<double> aggregate_ms;
  std::vector<double> render_ms;
  runner::SweepResult sweep;
  std::size_t rendered = 0;
  for (int rep = 0; rep < 20; ++rep) {
    Clock::time_point start = Clock::now();
    sweep = runner::aggregate_jobs(*workload.spec, plan, run.checked.metrics);
    aggregate_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
    start = Clock::now();
    rendered += runner::sweep_csv(sweep).size() +
                runner::sweep_jsonl(sweep).size();
    render_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
  }
  log.expect(rendered > 0, workload.name + ": the sweep renders empty");
  check_workload(workload, plan, results, run.checked.metrics, sweep, log);

  // RunResult counters, which repeat exactly.
  double frames = 0;
  double receptions = 0;
  double events_sent = 0;
  double duplicates = 0;
  double evictions = 0;
  double deliveries = 0;
  double self_deliveries = 0;
  double sim_seconds = 0;
  for (const core::RunResult& result : results) {
    sim_seconds += result.run_end.seconds();
    self_deliveries += static_cast<double>(result.events.size());
    for (const core::NodeOutcome& node : result.nodes) {
      const frugal::net::TrafficCounters& t = node.traffic;
      frames += static_cast<double>(t.frames_sent);
      receptions += static_cast<double>(
          t.frames_delivered + t.frames_collided + t.frames_missed_busy +
          t.frames_missed_asleep + t.frames_missed_down);
      events_sent += static_cast<double>(node.events_sent);
      duplicates += static_cast<double>(node.duplicates);
      evictions += static_cast<double>(node.gc_evictions);
      for (const auto& at : node.delivered_at) {
        deliveries += at.has_value() ? 1.0 : 0.0;
      }
    }
  }

  const SectionReader sections{profile,
                               static_cast<double>(profiled_walls.size())};
  const double tx_ms = sections.ms("medium.transmission");
  const double bcast_ms = sections.ms("medium.broadcast");
  const double retrieves = sections.count("frugal.retrieve");
  const double tracer_sign = spec_traces ? -1.0 : 1.0;

  LayerShape shape;
  shape.reference = job_config(workload, plan, plan.job_count - 1);
  shape.queue_depth = 3 * shape.reference.node_count;
  shape.frames_per_sim_s = per(frames, sim_seconds);
  shape.receivers_per_frame = per(receptions, frames);
  shape.live_events = std::max<std::size_t>(
      1, std::min<std::size_t>(
             shape.reference.event_count,
             static_cast<std::size_t>(std::ceil(
                 shape.reference.event_validity.seconds() /
                 std::max(shape.reference.publish_spacing.seconds(), 1e-6)))));
  shape.seed = args.seed;

  Outcome out;
  out.attempted = run.attempted();
  out.failed = run.failed();
  out.metrics = {
      {"sim.tasks", sections.count("scheduler.task"), "count"},
      {"sim.task_self_ms", sections.ms("scheduler.task"), "ms"},
      {"sim.ns_per_task",
       per(sections.ms("scheduler.task") * 1e6,
           sections.count("scheduler.task")),
       "ns"},
      {"net.frames", frames, "count"},
      {"net.transmission_self_ms", tx_ms, "ms"},
      {"net.broadcast_self_ms", bcast_ms, "ms"},
      {"net.us_per_frame", per((tx_ms + bcast_ms) * 1e3, frames), "us"},
      {"net.receptions_per_frame", per(receptions, frames), "count"},
      {"core.heartbeat_self_ms", sections.ms("frugal.heartbeat"), "ms"},
      {"core.heartbeats", sections.count("frugal.heartbeat"), "count"},
      {"core.retrieve_self_ms", sections.ms("frugal.retrieve"), "ms"},
      {"core.retrieves", retrieves, "count"},
      {"core.us_per_retrieve",
       per(sections.ms("frugal.retrieve") * 1e3, retrieves), "us"},
      {"core.event_ids_self_ms", sections.ms("frugal.event_ids"), "ms"},
      {"core.ngc_self_ms", sections.ms("frugal.ngc"), "ms"},
      {"core.bundle_self_ms", sections.ms("frugal.bundle"), "ms"},
      {"core.backoff_send_self_ms", sections.ms("frugal.backoff_send"), "ms"},
      {"core.events_sent", events_sent, "count"},
      {"core.duplicates", duplicates, "count"},
      {"core.gc_evictions", evictions, "count"},
      {"core.deliveries", deliveries, "count"},
      {"core.deliveries_per_copy",
       per(deliveries - self_deliveries, events_sent), "ratio"},
      {"core.orchestrate_self_ms", sections.ms("experiment.orchestrate"),
       "ms"},
      {"core.unattributed_share",
       per(sections.ms("experiment.orchestrate"), sections.total_ms()),
       "ratio"},
      {"core.collect_ms", sections.ms("experiment.collect"), "ms"},
      {"telemetry.dissem_overhead_ms",
       tracer_sign * (median(toggled_walls) - median(plain_walls)) * 1e3,
       "ms"},
      {"runner.plan_ms", median(setup.plan_seconds) * 1e3, "ms"},
      {"runner.aggregate_ms", median(aggregate_ms), "ms"},
      {"runner.render_ms", median(render_ms), "ms"},
      {"profile.overhead_ms",
       (median(profiled_walls) - median(plain_walls)) * 1e3, "ms"},
  };
  for (auto& [name, value] : run_replays(shape)) {
    const std::string unit =
        name == "net.index_candidates_per_receiver" ? "ratio" : "ns";
    out.metrics.push_back({name, value, unit});
  }
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage("bad arguments");
  if (args.self_test) return run_self_test();

  Workload workload;
  if (!make_workload(args.workload, args.seed, args.reduced, workload)) {
    return usage(("unknown workload: " + args.workload).c_str());
  }
  // At most four workers, never more than the host has.
  const int threads = static_cast<int>(
      std::min(4U, std::max(1U, std::thread::hardware_concurrency())));
  std::printf("%s\n", provenance_json(args, workload, threads).c_str());
  std::fflush(stdout);

  CheckLog log;
  Outcome out = args.trace == 0 ? run_end_to_end(workload, args, threads, log)
                                : run_per_layer(workload, args, threads, log);
  for (const Metric& metric : out.metrics) {
    log.expect(std::isfinite(metric.value),
               metric.name + " is not a finite number");
  }
  for (const std::string& failure : log.failures()) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  std::printf("checks: %zu made, %zu failed\n", log.checked(),
              log.failures().size());

  std::string line = "{\"correct\": ";
  line += log.ok() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& metric = out.metrics[i];
    line += (i == 0 ? "" : ", ") + json_string(metric.name) +
            ": {\"value\": " +
            json_number(std::isfinite(metric.value) ? metric.value : 0.0) +
            ", \"unit\": " + json_string(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
