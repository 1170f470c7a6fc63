#include "sim/sharded_event_queue.h"

#include <algorithm>
#include <cassert>

namespace gpunion::sim {

namespace {
constexpr EventId kLocalMask = (EventId{1} << 48) - 1;
// Every id a shard's EventQueue can issue, over the whole run, must fit
// below the shard tag.
static_assert(EventQueue::kIdBits <= 48, "local EventIds exceed 48 bits");
}  // namespace

ShardedEventQueue::ShardedEventQueue(std::size_t shards) {
  assert(shards >= 1);
  shards_.resize(std::max<std::size_t>(1, shards));
}

EventId ShardedEventQueue::push(std::size_t shard, util::SimTime t,
                                EventQueue::Callback fn) {
  assert(shard < shards_.size());
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return encode(shard + 1, s.q.push(t, std::move(fn)));
}

EventId ShardedEventQueue::push_exclusive(util::SimTime t,
                                          EventQueue::Callback fn) {
  std::lock_guard<std::mutex> lock(exclusive_.mu);
  return encode(shards_.size() + 1, exclusive_.q.push(t, std::move(fn)));
}

ShardedEventQueue::Shard& ShardedEventQueue::shard_for_id(EventId id,
                                                          EventId* local) {
  *local = id & kLocalMask;
  const std::size_t shard = static_cast<std::size_t>(id >> 48) - 1;
  return shard < shards_.size() ? shards_[shard] : exclusive_;
}

bool ShardedEventQueue::cancel(EventId id) {
  if (id == kInvalidEvent || (id >> 48) == 0) return false;
  EventId local = kInvalidEvent;
  Shard& s = shard_for_id(id, &local);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.q.cancel(local);
}

bool ShardedEventQueue::empty() const { return live_size() == 0; }

std::size_t ShardedEventQueue::live_size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.q.live_size();
  }
  std::lock_guard<std::mutex> lock(exclusive_.mu);
  return n + exclusive_.q.live_size();
}

std::size_t ShardedEventQueue::tombstones() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.q.tombstones();
  }
  std::lock_guard<std::mutex> lock(exclusive_.mu);
  return n + exclusive_.q.tombstones();
}

std::uint64_t ShardedEventQueue::compactions() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.q.compactions();
  }
  std::lock_guard<std::mutex> lock(exclusive_.mu);
  return n + exclusive_.q.compactions();
}

util::SimTime ShardedEventQueue::next_time() const {
  util::SimTime t = exclusive_next_time();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    t = std::min(t, shard_next_time(i));
  }
  return t;
}

std::size_t ShardedEventQueue::shard_live_size(std::size_t shard) const {
  const Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.q.live_size();
}

util::SimTime ShardedEventQueue::shard_next_time(std::size_t shard) const {
  const Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.q.next_time();
}

util::SimTime ShardedEventQueue::exclusive_next_time() const {
  std::lock_guard<std::mutex> lock(exclusive_.mu);
  return exclusive_.q.next_time();
}

bool ShardedEventQueue::shard_try_pop(std::size_t shard, util::SimTime bound,
                                      EventQueue::Event* out) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.q.empty() || s.q.next_time() >= bound) return false;
  *out = s.q.pop();
  out->id = encode(shard + 1, out->id);
  return true;
}

bool ShardedEventQueue::exclusive_try_pop(util::SimTime bound,
                                          EventQueue::Event* out) {
  std::lock_guard<std::mutex> lock(exclusive_.mu);
  if (exclusive_.q.empty() || exclusive_.q.next_time() >= bound) return false;
  *out = exclusive_.q.pop();
  out->id = encode(shards_.size() + 1, out->id);
  return true;
}

}  // namespace gpunion::sim
