// Discrete-event scheduler.
//
// A binary heap of (time, sequence) -> callback. Sequence numbers break ties
// in insertion order, which makes execution deterministic. Events can be
// cancelled through the TaskHandle returned at scheduling time; cancellation
// is O(1) (the entry is tombstoned and skipped on pop).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/profiler.hpp"
#include "util/expect.hpp"
#include "util/time.hpp"

namespace frugal::sim {

/// Cancellation/state token for a scheduled callback. Cheap to copy; all
/// copies refer to the same underlying scheduled entry.
class TaskHandle {
 public:
  TaskHandle() = default;

  /// True while the callback is scheduled and has neither run nor been
  /// cancelled. A default-constructed handle is never pending.
  [[nodiscard]] bool pending() const { return state_ && !state_->done; }

  /// Cancels the callback if still pending; otherwise no-op.
  void cancel() {
    if (state_) state_->done = true;
  }

 private:
  friend class Scheduler;
  struct State {
    bool done = false;
  };
  explicit TaskHandle(std::shared_ptr<State> state)
      : state_{std::move(state)} {}
  std::shared_ptr<State> state_;
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (must not be in the past).
  TaskHandle schedule_at(SimTime when, Callback fn) {
    FRUGAL_EXPECT(when >= now_);
    auto state = std::make_shared<TaskHandle::State>();
    heap_.push_back(Entry{when, next_seq_++, std::move(fn), state});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return TaskHandle{std::move(state)};
  }

  /// Schedules `fn` to run `delay` from now (delay must be >= 0).
  TaskHandle schedule_after(SimDuration delay, Callback fn) {
    FRUGAL_EXPECT(!delay.is_negative());
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Reserves `count` consecutive sequence numbers and returns the first.
  /// Entries later scheduled with these via schedule_at_with_sequence break
  /// ties exactly as if they had all been pushed upfront at reservation
  /// time — which is what lets a long publish chain schedule itself one
  /// event at a time (O(1) queued entries) while replaying the identical
  /// execution order of the O(n) upfront loop it replaces.
  [[nodiscard]] std::uint64_t reserve_sequence_block(std::uint64_t count) {
    FRUGAL_EXPECT(count > 0);
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    return first;
  }

  /// Schedules `fn` under a previously reserved sequence number. Each
  /// reserved sequence must be used at most once (uniqueness keeps the heap
  /// order total; the caller owns that contract).
  TaskHandle schedule_at_with_sequence(SimTime when, std::uint64_t seq,
                                       Callback fn) {
    FRUGAL_EXPECT(when >= now_);
    FRUGAL_EXPECT(seq < next_seq_);
    auto state = std::make_shared<TaskHandle::State>();
    heap_.push_back(Entry{when, seq, std::move(fn), state});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return TaskHandle{std::move(state)};
  }

  /// Attaches a self-profiler: every executed task is charged to the
  /// "scheduler.task" section (exclusive of profiled subsystems it calls
  /// into). Never affects simulated time or execution order.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] Profiler* profiler() const { return profiler_; }

  /// Runs the next pending event, if any. Returns false when the queue holds
  /// no runnable event (empty or all tombstoned).
  bool step() {
    while (!heap_.empty()) {
      Entry entry = pop();
      if (entry.state->done) continue;  // cancelled
      entry.state->done = true;
      FRUGAL_ASSERT(entry.when >= now_);
      now_ = entry.when;
      ++executed_;
      {
        ProfileScope<"scheduler.task"> scope{profiler_};
        entry.fn();
      }
      return true;
    }
    return false;
  }

  /// Runs events until the queue drains or the next event is past `until`;
  /// finishes with now() == until.
  void run_until(SimTime until) {
    FRUGAL_EXPECT(until >= now_);
    for (;;) {
      // Drop leading tombstones without advancing time.
      while (!heap_.empty() && heap_.front().state->done) pop();
      if (heap_.empty() || heap_.front().when > until) break;
      step();
    }
    now_ = until;
  }

  /// Runs everything currently schedulable (including events spawned during
  /// execution). Intended for tests; simulations should use run_until.
  void run_all() {
    while (step()) {
    }
  }

  /// Number of queue entries, including not-yet-collected tombstones.
  [[nodiscard]] std::size_t queued_count() const { return heap_.size(); }

  /// Number of callbacks actually executed so far.
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq = 0;
    Callback fn;
    std::shared_ptr<TaskHandle::State> state;
  };

  /// Heap comparator: max-heap on "later", so the earliest entry is on top.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;
  Profiler* profiler_ = nullptr;
};

}  // namespace frugal::sim
