#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/sharded_event_queue.h"
#include "util/rng.h"

namespace gpunion::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.push(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsDelivery) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> fired;
  q.push(1.0, [&] { fired.push_back(1); });
  const EventId mid = q.push(2.0, [&] { fired.push_back(2); });
  q.push(3.0, [&] { fired.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(1.0, [] {});
  q.push(5.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueueTest, EmptyQueueNextTimeIsNever) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), util::kNever);
}

TEST(EventQueueTest, PopReturnsMetadata) {
  EventQueue q;
  const EventId id = q.push(7.5, [] {});
  auto event = q.pop();
  EXPECT_DOUBLE_EQ(event.time, 7.5);
  EXPECT_EQ(event.id, id);
}

TEST(EventQueueTest, LiveSizeAndTombstoneStats) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.push(static_cast<double>(i), [] {}));
  }
  EXPECT_EQ(q.live_size(), 10u);
  EXPECT_EQ(q.tombstones(), 0u);
  for (int i = 0; i < 4; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.live_size(), 6u);
  EXPECT_EQ(q.tombstones(), 4u);  // below the compaction floor: kept
}

TEST(EventQueueTest, CompactionDropsTombstoneMajority) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.push(static_cast<double>(i), [] {}));
  }
  // Cancel every other event, then a few more so tombstones win.
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  for (std::size_t i = 1; i < 20; i += 2) q.cancel(ids[i]);
  EXPECT_GE(q.compactions(), 1u);
  // The invariant compaction enforces: tombstones never outnumber live
  // events (cancels after the rebuild may leave a small minority behind).
  EXPECT_LE(q.tombstones(), q.live_size());
  EXPECT_EQ(q.live_size(), 90u);
}

TEST(EventQueueTest, CompactionPreservesOrderAndFifoTies) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  // Groups of six share a firing time: two survivors (a FIFO tie the heap
  // rebuild must preserve) and four victims.
  for (int i = 0; i < 120; ++i) {
    const double t = static_cast<double>(i / 6);
    if (i % 6 < 2) {
      q.push(t, [&fired, i] { fired.push_back(i); });
    } else {
      doomed.push_back(q.push(t, [&fired, i] { fired.push_back(i); }));
    }
  }
  // 80 tombstones vs 40 live: well past the majority threshold.
  for (EventId id : doomed) q.cancel(id);
  EXPECT_GE(q.compactions(), 1u);
  while (!q.empty()) q.pop().fn();
  std::vector<int> expected;
  for (int g = 0; g < 20; ++g) {
    expected.push_back(6 * g);
    expected.push_back(6 * g + 1);
  }
  EXPECT_EQ(fired, expected);
}

TEST(EventQueueTest, CancelAfterCompactionStillWorks) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 128; ++i) {
    ids.push_back(q.push(static_cast<double>(i), [] {}));
  }
  for (std::size_t i = 0; i < 100; ++i) q.cancel(ids[i]);
  ASSERT_GE(q.compactions(), 1u);
  // Ids issued before the rebuild remain valid handles.
  EXPECT_TRUE(q.cancel(ids[120]));
  EXPECT_FALSE(q.cancel(ids[50]));  // already cancelled
  EXPECT_DOUBLE_EQ(q.next_time(), 100.0);
}

// Every id a queue issues must fit below ShardedEventQueue's shard tag for
// the life of a run (slot + per-slot stamp, not a global counter).
static_assert(EventQueue::kIdBits <= 48);

TEST(EventQueueTest, StaleIdNeverCancelsALaterOccupantOfItsSlot) {
  EventQueue q;
  const EventId first = q.push(1.0, [] {});
  ASSERT_EQ(q.pop().id, first);
  const EventId slot_mask = (EventId{1} << EventQueue::kSlotBits) - 1;
  // With one event pending at a time, every push reuses the same slot.
  EventId previous = first;
  for (int i = 0; i < 100000; ++i) {
    const EventId id = q.push(2.0, [] {});
    ASSERT_EQ(id & slot_mask, first & slot_mask);
    ASSERT_NE(id, previous);
    ASSERT_LT(id, EventId{1} << 48);
    if (i % 2 == 0) {
      ASSERT_TRUE(q.cancel(id));
    } else {
      ASSERT_EQ(q.pop().id, id);
    }
    previous = id;
  }
  bool fired = false;
  const EventId live = q.push(3.0, [&fired] { fired = true; });
  EXPECT_EQ(live & slot_mask, first & slot_mask);
  EXPECT_FALSE(q.cancel(first));
  EXPECT_FALSE(q.cancel(previous));
  EXPECT_EQ(q.size(), 1u);
  auto event = q.pop();
  EXPECT_EQ(event.id, live);
  event.fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, ShardedIdsRouteThroughSlotReuse) {
  ShardedEventQueue q(2);
  const EventId stale = q.push(1, 1.0, [] {});
  ASSERT_TRUE(q.cancel(stale));
  const EventId reused = q.push(1, 2.0, [] {});
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_TRUE(q.cancel(reused));
  EXPECT_TRUE(q.empty());
}

/// Differential test: the queue against a std::multimap keyed by
/// (time, insertion order) over random pushes (with time ties), cancels
/// of live, fired and cancelled ids, and pops.
void run_reference_differential(std::uint64_t seed) {
  util::Rng rng(seed);
  EventQueue q;
  enum class State { kPending, kFired, kCancelled };
  std::multimap<std::pair<double, std::uint64_t>, std::size_t> reference;
  std::vector<EventId> ids;  // by tag
  std::vector<std::pair<double, std::uint64_t>> keys;
  std::vector<State> states;
  std::vector<std::size_t> fired;
  double now = 0;
  auto pop_one = [&] {
    auto want = reference.begin();
    auto event = q.pop();
    ASSERT_DOUBLE_EQ(event.time, want->first.first);
    ASSERT_EQ(event.id, ids[want->second]);
    event.fn();
    ASSERT_EQ(fired.back(), want->second);
    states[want->second] = State::kFired;
    now = event.time;
    reference.erase(want);
  };
  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.uniform_int(0, 9);
    if (op <= 3) {
      // Whole-second offsets make simultaneous events common.
      const double t = now + (rng.bernoulli(0.4)
                                  ? static_cast<double>(rng.uniform_int(0, 4))
                                  : rng.uniform(0.0, 10.0));
      const std::size_t tag = ids.size();
      ids.push_back(q.push(t, [&fired, tag] { fired.push_back(tag); }));
      keys.emplace_back(t, tag);
      states.push_back(State::kPending);
      reference.emplace(keys.back(), tag);
    } else if (op <= 6) {
      if (ids.empty()) continue;
      const auto tag = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      const bool pending = states[tag] == State::kPending;
      ASSERT_EQ(q.cancel(ids[tag]), pending) << "step " << step;
      if (pending) {
        states[tag] = State::kCancelled;
        reference.erase(reference.find(keys[tag]));
      }
    } else if (!reference.empty()) {
      pop_one();
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(q.size(), reference.size()) << "step " << step;
    ASSERT_DOUBLE_EQ(q.next_time(), reference.empty()
                                        ? util::kNever
                                        : reference.begin()->first.first);
    ASSERT_FALSE(q.cancel(kInvalidEvent));
  }
  while (!reference.empty()) {
    pop_one();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.tombstones(), 0u);
}

TEST(EventQueueTest, RandomizedMatchesReferenceQueue) {
  // GPUNION_INVARIANT_SEED pins the sweep to one seed family (as in the
  // coordinator harness); the default sweep covers seeds 1..20.
  const char* pinned = std::getenv("GPUNION_INVARIANT_SEED");
  const std::uint64_t base =
      pinned != nullptr ? std::strtoull(pinned, nullptr, 10) : 1;
  const std::uint64_t count = pinned != nullptr ? 5 : 20;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    SCOPED_TRACE("GPUNION_INVARIANT_SEED=" + std::to_string(seed));
    run_reference_differential(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace gpunion::sim
