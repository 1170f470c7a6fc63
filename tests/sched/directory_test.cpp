#include "sched/directory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "sched/placement_engine.h"
#include "util/rng.h"

namespace gpunion::sched {
namespace {

NodeInfo make_node(const std::string& id, int gpus = 4) {
  NodeInfo info;
  info.machine_id = id;
  info.hostname = "host-" + id;
  info.gpu_count = gpus;
  info.free_gpus = gpus;
  info.status = db::NodeStatus::kActive;
  info.accepting = true;
  return info;
}

TEST(DirectoryTest, UpsertAndFind) {
  Directory directory;
  directory.upsert(make_node("m-1"));
  EXPECT_NE(directory.find("m-1"), nullptr);
  EXPECT_EQ(directory.find("ghost"), nullptr);
  EXPECT_EQ(directory.size(), 1u);
}

TEST(DirectoryTest, UpsertReplaces) {
  Directory directory;
  directory.upsert(make_node("m-1", 4));
  NodeInfo updated = make_node("m-1", 8);
  directory.upsert(updated);
  EXPECT_EQ(directory.find("m-1")->gpu_count, 8);
  EXPECT_EQ(directory.size(), 1u);
}

TEST(DirectoryTest, SchedulableFiltersStatusAndAccepting) {
  Directory directory;
  directory.upsert(make_node("m-1"));
  NodeInfo paused = make_node("m-2");
  paused.accepting = false;
  directory.upsert(paused);
  NodeInfo gone = make_node("m-3");
  gone.status = db::NodeStatus::kUnavailable;
  directory.upsert(gone);
  const CandidateSet schedulable = directory.view().whole_gpu(0, 0, 0, nullptr);
  ASSERT_EQ(schedulable.size(), 1u);
  EXPECT_EQ(schedulable.nth(0)->machine_id, "m-1");
  EXPECT_EQ(directory.capacity_summary().schedulable_nodes, 1);
  EXPECT_EQ(directory.all().size(), 3u);
}

TEST(DirectoryTest, ReserveReleaseClamped) {
  Directory directory;
  directory.upsert(make_node("m-1", 4));
  directory.reserve_gpus("m-1", 3);
  EXPECT_EQ(directory.find("m-1")->free_gpus, 1);
  directory.reserve_gpus("m-1", 5);  // clamped at 0
  EXPECT_EQ(directory.find("m-1")->free_gpus, 0);
  directory.release_gpus("m-1", 100);  // clamped at capacity
  EXPECT_EQ(directory.find("m-1")->free_gpus, 4);
  directory.reserve_gpus("ghost", 1);  // no-op
}

TEST(DirectoryTest, TotalGpus) {
  Directory directory;
  directory.upsert(make_node("m-1", 4));
  directory.upsert(make_node("m-2", 8));
  EXPECT_EQ(directory.total_gpus(), 12);
}

TEST(DirectoryTest, AllIsSortedByMachineId) {
  Directory directory;
  directory.upsert(make_node("m-b"));
  directory.upsert(make_node("m-a"));
  const auto all = directory.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->machine_id, "m-a");
  EXPECT_EQ(all[1]->machine_id, "m-b");
}

TEST(DirectoryTest, SlotReserveOpensSharedGpuAndReleaseReturnsIt) {
  Directory directory;
  NodeInfo info = make_node("m-1", 2);
  info.slots_per_gpu = 4;
  info.share_memory_cap_gb = 6.0;
  directory.upsert(info);
  // First slot opens a whole GPU in shared mode.
  EXPECT_TRUE(directory.reserve_slot("m-1"));
  EXPECT_EQ(directory.find("m-1")->free_gpus, 1);
  EXPECT_EQ(directory.find("m-1")->free_shared_slots, 3);
  // Subsequent slots drain the shared GPU before opening another.
  EXPECT_TRUE(directory.reserve_slot("m-1"));
  EXPECT_EQ(directory.find("m-1")->free_gpus, 1);
  EXPECT_EQ(directory.find("m-1")->free_shared_slots, 2);
  directory.release_slot("m-1");
  EXPECT_EQ(directory.find("m-1")->free_shared_slots, 3);
  // Sharing disabled or unknown node: no slot.
  NodeInfo unshared = make_node("m-2", 1);
  unshared.slots_per_gpu = 1;
  directory.upsert(unshared);
  EXPECT_FALSE(directory.reserve_slot("m-2"));
  EXPECT_FALSE(directory.reserve_slot("ghost"));
}

TEST(DirectoryTest, SlotReserveDeniedWhenEverythingTaken) {
  Directory directory;
  NodeInfo info = make_node("m-1", 1);
  info.slots_per_gpu = 2;
  directory.upsert(info);
  EXPECT_TRUE(directory.reserve_slot("m-1"));
  EXPECT_TRUE(directory.reserve_slot("m-1"));
  // 2 slots on 1 GPU: the third tenant is denied (oversubscription).
  EXPECT_FALSE(directory.reserve_slot("m-1"));
}

NodeInfo view_node(const std::string& id, int free, double mem, double cc,
                   const std::string& group) {
  NodeInfo info = make_node(id, 8);
  info.free_gpus = free;
  info.gpu_memory_gb = mem;
  info.compute_capability = cc;
  info.owner_group = group;
  return info;
}

TEST(ClusterViewTest, WholeGpuCandidatesFilterAndAreSorted) {
  Directory directory;
  directory.upsert(view_node("m-c", 4, 24.0, 8.6, "vision"));
  directory.upsert(view_node("m-a", 2, 48.0, 8.6, "nlp"));
  directory.upsert(view_node("m-b", 0, 80.0, 8.0, "bio"));  // nothing free
  NodeInfo paused = view_node("m-d", 8, 24.0, 8.6, "vision");
  paused.accepting = false;
  directory.upsert(paused);

  auto candidates =
      directory.view().whole_gpu(1, 8.0, 7.0, nullptr);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates.nth(0)->machine_id, "m-a");  // sorted by id
  EXPECT_EQ(candidates.nth(1)->machine_id, "m-c");

  // Capacity bucket: 3 GPUs needed -> only m-c.
  candidates = directory.view().whole_gpu(3, 8.0, 7.0, nullptr);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates.nth(0)->machine_id, "m-c");

  // VRAM filter.
  candidates = directory.view().whole_gpu(1, 40.0, 7.0, nullptr);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates.nth(0)->machine_id, "m-a");

  // Group restriction uses the per-group index.
  const std::string group = "nlp";
  candidates = directory.view().whole_gpu(1, 8.0, 7.0, &group);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates.nth(0)->machine_id, "m-a");
}

TEST(ClusterViewTest, DirtyInvalidationTracksMutations) {
  Directory directory;
  directory.upsert(view_node("m-1", 2, 24.0, 8.6, "vision"));
  auto candidates =
      directory.view().whole_gpu(2, 8.0, 7.0, nullptr);
  ASSERT_EQ(candidates.size(), 1u);

  // Reservation moves the node out of the >=2 bucket.
  directory.reserve_gpus("m-1", 1);
  EXPECT_TRUE(
      directory.view().whole_gpu(2, 8.0, 7.0, nullptr).empty());
  ASSERT_EQ(
      directory.view().whole_gpu(1, 8.0, 7.0, nullptr).size(), 1u);

  // Mutation through update() is picked up too.
  directory.update("m-1", [](NodeInfo& node) { node.accepting = false; });
  EXPECT_TRUE(
      directory.view().whole_gpu(1, 8.0, 7.0, nullptr).empty());
  directory.update("m-1", [](NodeInfo& node) { node.accepting = true; });
  directory.release_gpus("m-1", 1);
  EXPECT_EQ(
      directory.view().whole_gpu(2, 8.0, 7.0, nullptr).size(), 1u);
  EXPECT_EQ(directory.capacity_summary().free_gpus, 2);
}

TEST(DirectoryTest, CapacitySummaryTracksMutationsIncrementally) {
  Directory directory;
  NodeInfo sharing = make_node("m-1", 4);
  sharing.slots_per_gpu = 4;
  directory.upsert(sharing);
  directory.upsert(make_node("m-2", 2));

  CapacitySummary summary = directory.capacity_summary();
  EXPECT_EQ(summary.nodes, 2);
  EXPECT_EQ(summary.schedulable_nodes, 2);
  EXPECT_EQ(summary.total_gpus, 6);
  EXPECT_EQ(summary.free_gpus, 6);
  EXPECT_EQ(summary.free_shared_slots, 0);

  // Reservations, slots, and status flips all land in the summary.
  directory.reserve_gpus("m-2", 2);
  ASSERT_TRUE(directory.reserve_slot("m-1"));  // opens a GPU in shared mode
  summary = directory.capacity_summary();
  EXPECT_EQ(summary.free_gpus, 3);
  EXPECT_EQ(summary.free_shared_slots, 3);

  directory.update("m-1", [](NodeInfo& node) {
    node.status = db::NodeStatus::kDeparted;
  });
  summary = directory.capacity_summary();
  EXPECT_EQ(summary.nodes, 2);           // still in the directory
  EXPECT_EQ(summary.schedulable_nodes, 1);
  EXPECT_EQ(summary.total_gpus, 6);      // hardware does not vanish
  EXPECT_EQ(summary.free_gpus, 0);       // but is not schedulable capacity
  EXPECT_EQ(summary.free_shared_slots, 0);

  // Re-registering with different hardware keeps the GPU total exact.
  directory.upsert(make_node("m-2", 8));
  summary = directory.capacity_summary();
  EXPECT_EQ(summary.total_gpus, 12);
  EXPECT_EQ(summary.free_gpus, 8);
  EXPECT_EQ(directory.total_gpus(), 12);
  // Hardware envelope: monotone maxima over everything ever registered.
  EXPECT_EQ(summary.max_node_gpus, 8);
  NodeInfo big = make_node("m-3", 2);
  big.gpu_memory_gb = 80.0;
  big.compute_capability = 9.0;
  directory.upsert(big);
  summary = directory.capacity_summary();
  EXPECT_EQ(summary.max_node_gpus, 8);
  EXPECT_DOUBLE_EQ(summary.max_gpu_memory_gb, 80.0);
  EXPECT_DOUBLE_EQ(summary.max_compute_capability, 9.0);
}

TEST(ClusterViewTest, FractionalCandidatesHonourCapAndCapacity) {
  Directory directory;
  NodeInfo sharing = view_node("m-share", 1, 24.0, 8.6, "vision");
  sharing.slots_per_gpu = 4;
  sharing.share_memory_cap_gb = 6.0;
  directory.upsert(sharing);
  NodeInfo unshared = view_node("m-solo", 4, 24.0, 8.6, "vision");
  unshared.slots_per_gpu = 1;
  directory.upsert(unshared);

  auto candidates =
      directory.view().fractional(4.0, 7.0, nullptr);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates.nth(0)->machine_id, "m-share");

  // Per-tenant memory cap enforced.
  EXPECT_TRUE(directory.view().fractional(8.0, 7.0, nullptr)
                  .empty());

  // Fully booked: no free GPU, no free slot.
  directory.update("m-share", [](NodeInfo& node) {
    node.free_gpus = 0;
    node.free_shared_slots = 0;
  });
  EXPECT_TRUE(directory.view().fractional(4.0, 7.0, nullptr)
                  .empty());
  // A slot freed on a shared GPU re-admits the node.
  directory.release_slot("m-share");
  ASSERT_EQ(
      directory.view().fractional(4.0, 7.0, nullptr).size(), 1u);
}

// ---------------------------------------------------------------------------
// Randomized equivalence: every lazy candidate set equals a brute-force scan
// of the directory with the placement predicates, in the same order.
// ---------------------------------------------------------------------------

std::vector<std::string> ids_of(const CandidateSet& set) {
  std::vector<std::string> out;
  for (const NodeInfo* node : set) out.push_back(node->machine_id);
  return out;
}

enum class Mode { kWhole, kFractional, kTimeslice };

/// The documented order: whole-GPU queries without a group by ascending
/// free-GPU count, everything else in plain machine-id order.  Ties keep
/// machine-id order.
std::vector<std::string> brute_force(const Directory& directory,
                                     const workload::JobSpec& job, Mode mode,
                                     bool grouped) {
  const ReliabilityPredictor reliability;
  std::vector<std::pair<int, std::string>> keyed;
  for (const NodeInfo* node : directory.all()) {  // machine-id order
    const bool ok =
        mode == Mode::kWhole
            ? node_eligible(*node, job, !grouped, reliability, 0.0, false)
        : mode == Mode::kFractional ? slot_eligible(*node, job, !grouped)
                                    : timeslice_eligible(*node, job, !grouped);
    const bool by_free = mode == Mode::kWhole && !grouped;
    if (ok) keyed.emplace_back(by_free ? node->free_gpus : 0, node->machine_id);
  }
  std::stable_sort(keyed.begin(), keyed.end(), [](const auto& a,
                                                  const auto& b) {
    return a.first < b.first;
  });
  std::vector<std::string> out;
  for (auto& [key, id] : keyed) out.push_back(std::move(id));
  return out;
}

class ViewEquivalence {
 public:
  explicit ViewEquivalence(std::uint64_t seed) : rng_(seed) {}

  /// Largest fleet seen (the sweep must span several bitset words).
  std::size_t run(int steps) {
    std::size_t largest = 0;
    for (int step = 0; step < steps; ++step) {
      mutate();
      largest = std::max(largest, directory_.size());
      SCOPED_TRACE("step " + std::to_string(step));
      check();
      if (::testing::Test::HasFailure()) break;
    }
    return largest;
  }

 private:
  static constexpr const char* kGroups[] = {"vision", "nlp", "bio"};

  NodeInfo random_hardware(const std::string& id) {
    NodeInfo info;
    info.machine_id = id;
    info.owner_group = kGroups[rng_.uniform_int(0, 2)];
    info.gpu_count = static_cast<int>(rng_.uniform_int(1, 4));
    info.gpu_memory_gb = std::vector<double>{24.0, 48.0, 80.0}[rng_.uniform_int(0, 2)];
    info.compute_capability =
        std::vector<double>{7.5, 8.0, 8.6, 9.0}[rng_.uniform_int(0, 3)];
    info.slots_per_gpu = static_cast<int>(rng_.uniform_int(1, 4));
    info.share_memory_cap_gb = info.gpu_memory_gb / info.slots_per_gpu;
    info.timeslice_tenants_per_gpu = static_cast<int>(rng_.uniform_int(0, 4));
    info.free_gpus = info.gpu_count;
    return info;
  }

  std::string random_known_id() {
    const auto all = directory_.all();
    return all[rng_.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1)]
        ->machine_id;
  }

  void mutate() {
    const auto op = rng_.uniform_int(0, 99);
    if (directory_.size() == 0 || op < 25) {
      // Register: ids drawn at random, so most arrive out of id order.
      directory_.upsert(random_hardware(
          "n-" + std::to_string(rng_.uniform_int(1000, 9999))));
      return;
    }
    const std::string id = random_known_id();
    if (op < 30) {
      directory_.upsert(random_hardware(id));  // re-register, maybe resized
    } else if (op < 45) {
      directory_.update(id, [&](NodeInfo& node) {  // heartbeat
        node.accepting = rng_.uniform_int(0, 9) != 0;
        node.free_gpus = static_cast<int>(rng_.uniform_int(0, node.gpu_count));
        const int used = node.gpu_count - node.free_gpus;
        node.free_shared_slots = static_cast<int>(
            rng_.uniform_int(0, used * std::max(1, node.slots_per_gpu)));
        node.free_timeslice_slots = static_cast<int>(rng_.uniform_int(
            0, used * std::max(1, node.timeslice_tenants_per_gpu)));
      });
    } else if (op < 55) {
      directory_.reserve_gpus(id, static_cast<int>(rng_.uniform_int(1, 2)));
    } else if (op < 62) {
      directory_.release_gpus(id, static_cast<int>(rng_.uniform_int(1, 2)));
    } else if (op < 70) {
      (void)directory_.reserve_slot(id);
    } else if (op < 75) {
      directory_.release_slot(id);
    } else if (op < 83) {
      (void)directory_.reserve_timeslice_slot(id);
    } else if (op < 88) {
      directory_.release_timeslice_slot(id);
    } else if (op < 95) {
      directory_.update(id, [&](NodeInfo& node) {  // depart / loss
        node.status = rng_.uniform_int(0, 1) == 0 ? db::NodeStatus::kDeparted
                                                  : db::NodeStatus::kUnavailable;
        node.free_gpus = 0;
        node.free_shared_slots = 0;
        node.free_timeslice_slots = 0;
      });
    } else if (op < 99) {
      directory_.update(id, [](NodeInfo& node) {  // heartbeats resumed
        node.status = db::NodeStatus::kActive;
      });
    } else if (rng_.uniform_int(0, 3) == 0) {
      directory_.clear();  // coordinator crash
    }
  }

  workload::JobSpec random_job(const std::string& group) {
    workload::JobSpec job;
    job.id = "probe";
    job.owner_group = group;
    job.requirements.gpu_count = static_cast<int>(rng_.uniform_int(0, 3));
    job.requirements.gpu_memory_gb =
        std::vector<double>{0.0, 6.0, 12.0, 24.0, 40.0, 80.0, 90.0}
            [rng_.uniform_int(0, 6)];
    job.requirements.min_compute_capability =
        std::vector<double>{0.0, 7.5, 8.0, 8.6, 9.0, 9.5}[rng_.uniform_int(0, 5)];
    job.requirements.shareable = true;
    return job;
  }

  void check() {
    for (const Mode mode : {Mode::kWhole, Mode::kFractional, Mode::kTimeslice}) {
      for (const std::string group : {"", "vision", "nlp", "bio", "ghost"}) {
        workload::JobSpec job = random_job(group);
        if (mode != Mode::kWhole) job.requirements.gpu_count = 1;
        const std::string* owner = group.empty() ? nullptr : &job.owner_group;
        const auto& req = job.requirements;
        ClusterView& view = directory_.view();
        const CandidateSet set =
            mode == Mode::kWhole
                ? view.whole_gpu(req.gpu_count, req.gpu_memory_gb,
                                 req.min_compute_capability, owner)
            : mode == Mode::kFractional
                ? view.fractional(req.gpu_memory_gb,
                                  req.min_compute_capability, owner)
                : view.timeslice(workload::resolved_working_set_gb(job),
                                 req.min_compute_capability, owner);
        const auto expected =
            brute_force(directory_, job, mode, owner != nullptr);
        SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                     " group '" + group + "'");
        ASSERT_EQ(ids_of(set), expected);
        ASSERT_EQ(set.size(), expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k) {
          ASSERT_EQ(set.nth(k)->machine_id, expected[k]) << "nth(" << k << ")";
        }
        EXPECT_EQ(set.nth(expected.size()), nullptr);
      }
    }
    // The running counters agree with a rescan too.
    CapacitySummary want;
    for (const NodeInfo* node : directory_.all()) {
      if (!node->schedulable()) continue;
      ++want.schedulable_nodes;
      want.free_gpus += node->free_gpus;
      want.free_shared_slots += node->free_shared_slots;
      want.free_timeslice_slots += node->free_timeslice_slots;
    }
    const CapacitySummary got = directory_.capacity_summary();
    EXPECT_EQ(got.schedulable_nodes, want.schedulable_nodes);
    EXPECT_EQ(got.free_gpus, want.free_gpus);
    EXPECT_EQ(got.free_shared_slots, want.free_shared_slots);
    EXPECT_EQ(got.free_timeslice_slots, want.free_timeslice_slots);
  }

  util::Rng rng_;
  Directory directory_;
};

TEST(ClusterViewTest, RandomizedEquivalenceWithBruteForceScan) {
  // GPUNION_INVARIANT_SEED pins the sweep to one seed family (as in the
  // coordinator harness); the default sweep covers seeds 1..20.
  const char* pinned = std::getenv("GPUNION_INVARIANT_SEED");
  const std::uint64_t base =
      pinned != nullptr ? std::strtoull(pinned, nullptr, 10) : 1;
  const std::uint64_t count = pinned != nullptr ? 5 : 20;
  std::size_t largest = 0;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    SCOPED_TRACE("GPUNION_INVARIANT_SEED=" + std::to_string(seed));
    largest = std::max(largest, ViewEquivalence(seed).run(500));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(largest, 64u) << "sweep never spanned two bitset words";
}

TEST(ClusterViewTest, RankedIterationSurvivesOutOfOrderRegistration) {
  Directory directory;
  directory.upsert(view_node("m-b", 1, 24.0, 8.6, "vision"));
  directory.upsert(view_node("m-d", 1, 24.0, 8.6, "vision"));
  EXPECT_EQ(ids_of(directory.view().whole_gpu(1, 0, 0, nullptr)),
            (std::vector<std::string>{"m-b", "m-d"}));
  // Registrations sorting before existing ids re-rank the fleet once.
  directory.upsert(view_node("m-c", 1, 24.0, 8.6, "vision"));
  directory.upsert(view_node("m-a", 1, 24.0, 8.6, "vision"));
  EXPECT_EQ(ids_of(directory.view().whole_gpu(1, 0, 0, nullptr)),
            (std::vector<std::string>{"m-a", "m-b", "m-c", "m-d"}));
  // A re-registration keeps the handle.
  const NodeHandle handle = directory.handle_of("m-c");
  directory.upsert(view_node("m-c", 2, 48.0, 9.0, "nlp"));
  EXPECT_EQ(directory.handle_of("m-c"), handle);
  EXPECT_EQ(directory.node(handle).gpu_count, 8);
}

TEST(ClusterViewTest, UnchangedSchedulingFieldsDoNotDirtyTheNode) {
  Directory directory;
  directory.upsert(view_node("m-1", 2, 24.0, 8.6, "vision"));
  (void)directory.capacity_summary().free_gpus;  // settle the initial index
  const std::uint64_t before = directory.view().reindexed_nodes();
  directory.update("m-1", [](NodeInfo& node) {
    node.last_heartbeat = 42.0;  // a beat confirming the current counts
    node.free_gpus = 2;
  });
  (void)directory.capacity_summary().free_gpus;
  EXPECT_EQ(directory.view().reindexed_nodes(), before);
  directory.update("m-1", [](NodeInfo& node) { node.free_gpus = 1; });
  EXPECT_EQ(directory.capacity_summary().free_gpus, 1);
  EXPECT_EQ(directory.view().reindexed_nodes(), before + 1);
}

}  // namespace
}  // namespace gpunion::sched
