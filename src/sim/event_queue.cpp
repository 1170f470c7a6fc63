#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gpunion::sim {

namespace {
// Below this size a compaction saves too little to bother.
constexpr std::size_t kCompactionFloor = 64;
constexpr EventId kSlotMask = (EventId{1} << EventQueue::kSlotBits) - 1;
constexpr std::uint32_t kMaxStamp =
    (std::uint32_t{1} << EventQueue::kStampBits) - 1;
// Seqs share the heap key with the slot bits.
constexpr std::uint64_t kMaxSeq =
    (std::uint64_t{1} << (64 - EventQueue::kSlotBits)) - 1;

EventId encode(std::uint32_t slot, std::uint32_t stamp) {
  return (static_cast<EventId>(stamp) << EventQueue::kSlotBits) | slot;
}
}  // namespace

void EventQueue::pop_front() const {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

EventId EventQueue::push(util::SimTime t, Callback fn) {
  assert(fn && "EventQueue::push requires a callable");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() > kSlotMask) {
      throw std::length_error("EventQueue: more than 2^24 pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  if (next_seq_ > kMaxSeq) {
    throw std::length_error("EventQueue: insertion seqs exhausted");
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.key = (next_seq_++ << kSlotBits) | slot;
  s.live = true;
  ++live_;
  heap_.push_back(Entry{t, s.key});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return encode(slot, s.stamp);
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  --live_;
  if (s.stamp == kMaxStamp) return;  // retired: its ids are exhausted
  ++s.stamp;
  free_slots_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  const auto stamp = static_cast<std::uint32_t>(id >> kSlotBits);
  if ((id >> kIdBits) != 0 || slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.stamp != stamp) return false;
  // Destroyed on return, once the slot is consistent again: a capture's
  // destructor may itself push or cancel.
  const Callback doomed = std::move(s.fn);
  // The heap entry stays behind as a tombstone and is skipped in skim() —
  // unless tombstones now dominate, in which case the heap is filtered
  // (amortized O(1) per cancel).
  release(slot);
  if (heap_.size() >= kCompactionFloor && heap_.size() - live_ > live_) {
    compact();
  }
  return true;
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Entry& entry) { return !is_live(entry); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  ++compactions_;
}

void EventQueue::skim() const {
  while (!heap_.empty() && !is_live(heap_.front())) pop_front();
}

util::SimTime EventQueue::next_time() const {
  skim();
  return heap_.empty() ? util::kNever : heap_.front().time;
}

EventQueue::Event EventQueue::pop() {
  skim();
  assert(!heap_.empty() && "EventQueue::pop on empty queue");
  const Entry entry = heap_.front();
  pop_front();
  const auto slot = static_cast<std::uint32_t>(entry.key & kSlotMask);
  Slot& s = slots_[slot];
  Event event{entry.time, encode(slot, s.stamp), std::move(s.fn)};
  release(slot);
  return event;
}

}  // namespace gpunion::sim
