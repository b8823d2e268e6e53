// Lightweight simulator self-profiler.
//
// A Profiler accumulates exclusive wall-clock time and invocation counts per
// named section; ProfileScope is the RAII entry point. Nested scopes charge
// their parent only for the time the parent itself was on top of the stack
// (exclusive self-time), so "scheduler.task" measures protocol logic net of
// the medium and telemetry work nested inside it.
//
// Profiling never touches simulated time, RNG streams or scheduler sequence
// numbers — attaching a profiler cannot perturb a run's outcome, only
// observe its host-side cost. The profiler is single-threaded by design
// (one per sweep job); per-job profilers are merged serially afterwards.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/expect.hpp"

namespace frugal::sim {

class Profiler {
 public:
  struct Section {
    std::int64_t wall_ns = 0;  ///< exclusive self-time
    std::int64_t count = 0;    ///< scope entries
  };

  /// Named sections in first-entry order (stable across identical runs).
  [[nodiscard]] const std::vector<std::pair<std::string, Section>>& sections()
      const {
    return sections_;
  }

  /// Process-wide id of a section name: one per distinct name, stable for
  /// the life of the process. Thread-safe; ProfileScope calls it once per
  /// call site, not once per entry.
  [[nodiscard]] static std::size_t intern(std::string_view name) {
    const std::lock_guard<std::mutex> lock{names_mutex_};
    for (std::size_t id = 0; id < names_.size(); ++id) {
      if (names_[id] == name) return id;
    }
    names_.emplace_back(name);
    return names_.size() - 1;
  }

  /// This profiler's section for the interned name `id`, created on first
  /// use (so sections() keeps first-entry order).
  [[nodiscard]] std::size_t section_of(std::size_t id) {
    if (id >= section_of_id_.size()) section_of_id_.resize(id + 1, kNone);
    if (section_of_id_[id] == kNone) {
      section_of_id_[id] = sections_.size();
      const std::lock_guard<std::mutex> lock{names_mutex_};
      sections_.emplace_back(names_[id], Section{});
    }
    return section_of_id_[id];
  }

  /// Index of `name`, creating the section on first use.
  [[nodiscard]] std::size_t section_index(std::string_view name) {
    return section_of(intern(name));
  }

  void enter(std::size_t section) {
    FRUGAL_EXPECT(section < sections_.size());
    const auto now = Clock::now();
    if (!stack_.empty()) charge_top(now);
    stack_.push_back(Active{section, now});
    sections_[section].second.count += 1;
  }

  void exit() {
    FRUGAL_EXPECT(!stack_.empty());
    const auto now = Clock::now();
    charge_top(now);
    stack_.pop_back();
    if (!stack_.empty()) stack_.back().since = now;
  }

  /// Folds another profiler's totals into this one (sections matched by
  /// name; new names are appended in the other's order).
  void merge(const Profiler& other) {
    for (const auto& [name, section] : other.sections_) {
      const std::size_t idx = section_index(name);
      sections_[idx].second.wall_ns += section.wall_ns;
      sections_[idx].second.count += section.count;
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNone = ~std::size_t{0};
  struct Active {
    std::size_t section;
    Clock::time_point since;
  };

  void charge_top(Clock::time_point now) {
    Active& top = stack_.back();
    sections_[top.section].second.wall_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - top.since)
            .count();
    top.since = now;
  }

  /// Interned section names, by id; shared by every profiler.
  static inline std::vector<std::string> names_;
  static inline std::mutex names_mutex_;

  std::vector<std::pair<std::string, Section>> sections_;
  /// sections_ index by interned name id (kNone: not entered yet).
  std::vector<std::size_t> section_of_id_;
  std::vector<Active> stack_;
};

/// A section name usable as a template argument (a string literal).
template <std::size_t N>
struct SectionName {
  // Implicit on purpose: ProfileScope<"name"> converts the literal.
  consteval SectionName(const char (&name)[N]) { std::copy_n(name, N, chars); }
  [[nodiscard]] std::string_view view() const { return {chars, N - 1}; }
  char chars[N] = {};
};

/// RAII section scope; a null profiler makes it a no-op. The section is a
/// template argument, so each call site resolves its name once:
///   sim::ProfileScope<"frugal.heartbeat"> profile{scheduler_.profiler()};
template <SectionName Name>
class ProfileScope {
 public:
  explicit ProfileScope(Profiler* profiler) : profiler_{profiler} {
    if (profiler_ != nullptr) {
      static const std::size_t id = Profiler::intern(Name.view());
      profiler_->enter(profiler_->section_of(id));
    }
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) profiler_->exit();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_;
};

}  // namespace frugal::sim
