// Priority event queue for the discrete-event kernel.
//
// Events fire in (time, insertion order) so simultaneous events are
// deterministic.  Callbacks live in a slab of slots recycled through a free
// list; an EventId names a slot plus the stamp of that slot's current use,
// so cancel(), pop() and the tombstone skim index the slab instead of
// hashing, and heap entries are 16 bytes (time, seq|slot).  Cancellation
// is O(1) via tombstones that are skipped when popped; when tombstones
// outnumber live events the heap is compacted in place (O(heap)) so a
// cancel-heavy workload — dispatch timeouts that almost always resolve
// early, session-patience timers — cannot grow the heap unboundedly
// between pops.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace gpunion::sim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Bits of a local EventId naming the slot; the bits above hold the
  /// slot's use stamp.  Slot ids and stamps together fill exactly the
  /// 48 bits ShardedEventQueue leaves below its shard tag.
  static constexpr unsigned kSlotBits = 24;
  static constexpr unsigned kStampBits = 24;
  static constexpr unsigned kIdBits = kSlotBits + kStampBits;

  /// Enqueues `fn` to fire at time `t`.  Returns a handle for cancel().
  EventId push(util::SimTime t, Callback fn);

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was cancelled, or never existed.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  /// Live (non-cancelled) pending events — alias of size(), named for the
  /// bench reports.
  std::size_t live_size() const { return live_; }
  /// Cancelled entries still occupying the heap.
  std::size_t tombstones() const { return heap_.size() - live_; }
  /// Times the heap was rebuilt because tombstones exceeded live entries.
  std::uint64_t compactions() const { return compactions_; }

  /// Time of the earliest pending event; kNever when empty.
  util::SimTime next_time() const;

  /// Pops and returns the earliest live event.  Requires !empty().
  struct Event {
    util::SimTime time;
    EventId id;
    Callback fn;
  };
  Event pop();

 private:
  struct Entry {
    util::SimTime time;
    /// Insertion seq above the slot bits: orders simultaneous events
    /// (seqs are unique, so the slot bits never decide) and names the slot.
    std::uint64_t key;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time > b.time || (a.time == b.time && a.key > b.key);
    }
  };
  struct Slot {
    Callback fn;
    std::uint64_t key = 0;    // heap key of the occupant
    std::uint32_t stamp = 1;  // bumped on every release
    bool live = false;
  };

  /// True when `entry` is the heap entry of its slot's live occupant.
  bool is_live(const Entry& entry) const {
    const Slot& slot =
        slots_[entry.key & ((std::uint64_t{1} << kSlotBits) - 1)];
    return slot.live && slot.key == entry.key;
  }
  /// Removes the heap's earliest entry.
  void pop_front() const;
  /// Frees a slot for reuse; a slot whose stamp would wrap is retired so
  /// no stale id can ever name a later occupant.
  void release(std::uint32_t slot);
  /// Removes cancelled entries from the head of the heap.
  void skim() const;
  /// Drops every tombstone from the heap and re-heapifies it.
  void compact();

  // Min-heap via std::*_heap so compact() can filter the storage in place
  // (std::priority_queue hides its container).
  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace gpunion::sim
