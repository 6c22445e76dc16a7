// Reference event queue for the differential wall: the lazy-cancel binary
// heap the production tournament tree (util/event_queue.hpp) replaced.
// Both order events by (time, insertion sequence) and expose identical
// generation-stamped handles, and tests/event_queue_diff_test.cpp drives
// them in lockstep to pin the event order down bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "util/check.hpp"
#include "util/event_queue.hpp"
#include "util/types.hpp"

namespace osched {

/// Reference implementation: lazy-cancel binary heap over all live events.
/// Every handle names a generation-stamped slot, a cancel bumps the slot's
/// generation, and a heap entry whose stamp no longer matches its slot is
/// skipped at pop time. Slots are recycled through a free list.
class HeapEventQueue {
 public:
  /// Schedules an event and returns its cancellation handle.
  std::uint64_t schedule(Time time, MachineId machine, JobId job) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(generations_.size());
      generations_.push_back(1);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    heap_.push(Entry{time, next_seq_++, slot, generations_[slot], machine, job});
    ++live_;
    return handle_of(slot, generations_[slot]);
  }

  /// Cancels a previously scheduled event. Cancelling a handle twice or
  /// after it fired is a programming error.
  void cancel(std::uint64_t handle) {
    const auto slot = static_cast<std::uint32_t>(handle >> 32);
    const auto generation = static_cast<std::uint32_t>(handle);
    OSCHED_CHECK(slot < generations_.size() &&
                 generations_[slot] == generation && generation != 0)
        << "event handle " << handle << " is not live (double cancel?)";
    retire(slot);
    OSCHED_CHECK_GT(live_, 0u);
    --live_;
  }

  bool empty() const { return live_ == 0; }

  /// Time of the next live event, if any.
  std::optional<Time> peek_time() {
    skip_cancelled();
    if (heap_.empty()) return std::nullopt;
    return heap_.top().time;
  }

  /// Pops the next live event. Requires !empty().
  SimEvent pop() {
    skip_cancelled();
    OSCHED_CHECK(!heap_.empty());
    const Entry entry = heap_.top();
    heap_.pop();
    retire(entry.slot);
    OSCHED_CHECK_GT(live_, 0u);
    --live_;
    return SimEvent{entry.time, entry.seq, entry.machine, entry.job};
  }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    MachineId machine;
    JobId job;
  };

  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static std::uint64_t handle_of(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<std::uint64_t>(slot) << 32) | generation;
  }

  /// Invalidates the slot's outstanding handle and recycles it. The bumped
  /// generation orphans the heap entry (if still queued) and any stale
  /// handle. Generation 0 is never live, so a zero handle can't match.
  void retire(std::uint32_t slot) {
    if (++generations_[slot] == 0) ++generations_[slot];
    free_slots_.push_back(slot);
  }

  void skip_cancelled() {
    while (!heap_.empty() &&
           generations_[heap_.top().slot] != heap_.top().generation) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<std::uint32_t> generations_;  ///< current stamp per slot
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace osched
