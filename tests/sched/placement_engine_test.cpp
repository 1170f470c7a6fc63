// Placement engine: strategy resolution, eligibility, determinism and the
// fractional-slot decision path over an indexed ClusterView.
#include "sched/placement_engine.h"

#include <gtest/gtest.h>

#include "workload/profiles.h"

namespace gpunion::sched {
namespace {

NodeInfo make_node(const std::string& id, const std::string& group, int gpus,
                   int free, double mem, double cc, int slots = 1) {
  NodeInfo info;
  info.machine_id = id;
  info.owner_group = group;
  info.gpu_count = gpus;
  info.free_gpus = free;
  info.gpu_memory_gb = mem;
  info.compute_capability = cc;
  info.gpu_tflops = 35.6;
  info.slots_per_gpu = slots;
  info.share_memory_cap_gb = slots > 1 ? mem / slots : 0.0;
  info.status = db::NodeStatus::kActive;
  info.accepting = true;
  return info;
}

workload::JobSpec training(double mem = 8.0, int gpus = 1) {
  workload::JobSpec spec = workload::make_training_job(
      "train", workload::cnn_small(), 2.0, "vision", 0.0);
  spec.requirements.gpu_memory_gb = mem;
  spec.requirements.gpu_count = gpus;
  return spec;
}

workload::JobSpec session(double mem = 4.0) {
  workload::JobSpec spec =
      workload::make_interactive_session("sess", 1.0, "vision", 0.0);
  spec.requirements.gpu_memory_gb = mem;
  return spec;
}

class PlacementEngineTest : public ::testing::Test {
 protected:
  Directory directory_;
  ReliabilityPredictor reliability_;
  PlatformPolicy policy_;
};

TEST_F(PlacementEngineTest, UnknownStrategyFallsBackToRoundRobin) {
  PlacementEngine engine(directory_, reliability_, policy_, "nonsense");
  EXPECT_EQ(engine.strategy_name(), kRoundRobin);
}

TEST_F(PlacementEngineTest, PlacesOnEligibleNodeOnly) {
  directory_.upsert(make_node("m-small", "vision", 1, 1, 24.0, 8.6));
  directory_.upsert(make_node("m-big", "bio", 2, 2, 80.0, 8.0));
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kBestFit));
  auto decision = engine.place(training(40.0), "", 0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->node->machine_id, "m-big");
  EXPECT_FALSE(decision->fractional);
  // Nothing fits 4 GPUs.
  EXPECT_FALSE(engine.place(training(8.0, 4), "", 0.0).has_value());
}

TEST_F(PlacementEngineTest, CrossGroupPolicyRestrictsToOwnSilo) {
  directory_.upsert(make_node("m-vision", "vision", 1, 1, 24.0, 8.6));
  directory_.upsert(make_node("m-nlp", "nlp", 8, 8, 48.0, 8.6));
  policy_.cross_group_sharing = false;
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kLeastLoaded));
  auto decision = engine.place(training(), "", 0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->node->machine_id, "m-vision");
}

TEST_F(PlacementEngineTest, PreferredNodeWinsWhenEligible) {
  directory_.upsert(make_node("m-a", "vision", 1, 1, 24.0, 8.6));
  directory_.upsert(make_node("m-b", "vision", 1, 1, 24.0, 8.6));
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kRoundRobin));
  for (int i = 0; i < 3; ++i) {
    auto decision = engine.place(training(), "m-b", 0.0);
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->node->machine_id, "m-b");
  }
  // Preference for a full/unknown node is ignored, not fatal.
  directory_.reserve_gpus("m-b", 1);
  auto decision = engine.place(training(), "m-b", 0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->node->machine_id, "m-a");
}

TEST_F(PlacementEngineTest, DeterministicUnderIdenticalClusterState) {
  auto populate = [](Directory& directory) {
    directory.upsert(make_node("m-a", "vision", 4, 2, 24.0, 8.6, 4));
    directory.upsert(make_node("m-b", "nlp", 8, 5, 48.0, 8.6, 4));
    directory.upsert(make_node("m-c", "bio", 2, 2, 80.0, 8.0, 4));
    directory.upsert(make_node("m-d", "vision", 1, 1, 24.0, 8.9, 4));
  };
  ReliabilityPredictor reliability;
  reliability.record_departure("m-b", 0.0);
  for (const auto& name :
       PlacementStrategyFactory::instance().names()) {
    Directory first_directory;
    populate(first_directory);
    Directory second_directory;
    populate(second_directory);
    PlacementEngine first(first_directory, reliability, policy_, name);
    PlacementEngine second(second_directory, reliability, policy_, name);
    for (const auto& job : {training(8.0), training(40.0), session()}) {
      auto a = first.place(job, "", 50.0);
      auto b = second.place(job, "", 50.0);
      ASSERT_EQ(a.has_value(), b.has_value()) << name << " " << job.id;
      if (a) {
        EXPECT_EQ(a->node->machine_id, b->node->machine_id)
            << name << " " << job.id;
        EXPECT_EQ(a->fractional, b->fractional) << name << " " << job.id;
      }
    }
  }
}

TEST_F(PlacementEngineTest, PackedSharingPlacesSessionsFractionally) {
  directory_.upsert(make_node("m-a", "vision", 2, 2, 24.0, 8.6, 4));
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kPackedSharing));
  auto decision = engine.place(session(), "", 0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_TRUE(decision->fractional);
  // Training is never fractional under packed_sharing (not shareable).
  decision = engine.place(training(), "", 0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_FALSE(decision->fractional);
}

TEST_F(PlacementEngineTest, PolicySwitchDisablesFractionalPlacement) {
  directory_.upsert(make_node("m-a", "vision", 2, 2, 24.0, 8.6, 4));
  policy_.fractional_sharing = false;
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kPackedSharing));
  auto decision = engine.place(session(), "", 0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_FALSE(decision->fractional);
}

TEST_F(PlacementEngineTest, SessionTooBigForSlotFallsBackToWholeGpu) {
  // 24 GB GPU, 4 slots -> 6 GB cap; a 10 GB session cannot share.
  directory_.upsert(make_node("m-a", "vision", 2, 2, 24.0, 8.6, 4));
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kPackedSharing));
  auto decision = engine.place(session(10.0), "", 0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_FALSE(decision->fractional);
}

TEST_F(PlacementEngineTest, FractionalDeniedWhenSlotsExhausted) {
  NodeInfo node = make_node("m-a", "vision", 1, 0, 24.0, 8.6, 4);
  node.free_shared_slots = 1;
  directory_.upsert(node);
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kPackedSharing));
  auto decision = engine.place(session(), "", 0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_TRUE(decision->fractional);
  // Consume the last slot: nothing left, whole-GPU pool empty too.
  ASSERT_TRUE(directory_.reserve_slot("m-a"));
  EXPECT_FALSE(engine.place(session(), "", 0.0).has_value());
}

/// Degradation-enforcing strategy that also shares: exercises the engine's
/// reliability filter on the *fractional* candidate path.
class CautiousSharingStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return "cautious_sharing"; }
  bool enforce_degradation() const override { return true; }
  bool wants_fractional(const workload::JobSpec& job) const override {
    return job.requirements.shareable && job.requirements.gpu_count == 1;
  }
  const NodeInfo* select(const CandidateSet& candidates,
                         const workload::JobSpec&, const PlacementContext&,
                         bool) override {
    return candidates.nth(0);
  }
};

TEST_F(PlacementEngineTest, AnyEligibleStopsEnumeratingAtFirstHit) {
  // 100 eligible nodes: the existence probe must examine O(1) of them
  // instead of materializing the full candidate vector (the old
  // O(free nodes)-per-gateway-probe behaviour flagged in the ROADMAP).
  for (int i = 0; i < 100; ++i) {
    directory_.upsert(make_node("m-" + std::to_string(100 + i), "vision", 1,
                                1, 24.0, 8.6));
  }
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kRoundRobin));
  const std::uint64_t before = engine.candidates_examined();
  EXPECT_TRUE(engine.any_eligible(training(), 0.0));
  const std::uint64_t probe_cost = engine.candidates_examined() - before;
  EXPECT_LE(probe_cost, 2u) << "existence probe enumerated candidates";

  // A round-robin placement is a popcount pick: O(1) nodes as well.
  const std::uint64_t before_place = engine.candidates_examined();
  ASSERT_TRUE(engine.place(training(), "", 0.0).has_value());
  EXPECT_LE(engine.candidates_examined() - before_place, 2u);

  // A strategy that scores every candidate really does walk the whole
  // fleet — the counter is shared, so the same fleet shows the contrast.
  PlacementEngine scoring(directory_, reliability_, policy_,
                          std::string(kBestFit));
  const std::uint64_t before_full = scoring.candidates_examined();
  ASSERT_TRUE(scoring.place(training(), "", 0.0).has_value());
  EXPECT_GE(scoring.candidates_examined() - before_full, 100u);

  // A shape nothing fits still answers false (and may examine everything:
  // correctness first, the early exit is for the common has-capacity case).
  EXPECT_FALSE(engine.any_eligible(training(8.0, 4), 0.0));
}

TEST_F(PlacementEngineTest, CampusScaleDecisionsExamineConstantNodes) {
  // Work bound at campus scale: on 10,000 nodes with free capacity, a
  // round-robin placement (popcount pick) and an existence probe (first
  // set bit) each reach O(1) nodes, not O(nodes) — for every allocation
  // shape, with and without a group restriction.
  for (int i = 0; i < 10000; ++i) {
    directory_.upsert(make_node("ws-" + std::to_string(100000 + i),
                                i % 2 == 0 ? "vision" : "nlp", 1, 1, 24.0,
                                8.6, 4));
  }
  for (const bool silos : {false, true}) {
    policy_.cross_group_sharing = !silos;
    PlacementEngine engine(directory_, reliability_, policy_,
                           std::string(kRoundRobin));
    for (const auto& job : {training(), session()}) {
      for (int round = 0; round < 3; ++round) {
        std::uint64_t before = engine.candidates_examined();
        ASSERT_TRUE(engine.place(job, "", 0.0).has_value());
        EXPECT_LE(engine.candidates_examined() - before, 2u)
            << "place() walked the fleet, silos=" << silos;
        before = engine.candidates_examined();
        ASSERT_TRUE(engine.any_eligible(job, 0.0));
        EXPECT_LE(engine.candidates_examined() - before, 2u)
            << "any_eligible() walked the fleet, silos=" << silos;
      }
    }
  }
  // The fractional path, through a sharing strategy's existence probe.
  PlacementEngine sharing(directory_, reliability_, policy_,
                          std::string(kPackedSharing));
  const std::uint64_t before = sharing.candidates_examined();
  ASSERT_TRUE(sharing.any_eligible(session(), 0.0));
  EXPECT_LE(sharing.candidates_examined() - before, 2u);
}

TEST_F(PlacementEngineTest, AnyEligibleEarlyExitMatchesFullEnumeration) {
  // The probe and the enumeration must agree on every gating dimension:
  // capacity, memory, capability, group policy, fractional preference.
  directory_.upsert(make_node("m-busy", "vision", 2, 0, 24.0, 8.6));
  directory_.upsert(make_node("m-nlp", "nlp", 4, 4, 48.0, 8.6));
  policy_.cross_group_sharing = false;
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kPackedSharing));
  // vision has no free capacity; nlp does, but the silo policy hides it.
  EXPECT_FALSE(engine.any_eligible(training(), 0.0));
  EXPECT_FALSE(engine.place(training(), "", 0.0).has_value());
  auto nlp_job = training();
  nlp_job.owner_group = "nlp";
  EXPECT_TRUE(engine.any_eligible(nlp_job, 0.0));
  // Fractional-only capacity is found by the probe's slot pass.
  NodeInfo shared = make_node("m-shared", "vision", 1, 0, 24.0, 8.6, 4);
  shared.free_shared_slots = 2;
  directory_.upsert(shared);
  EXPECT_TRUE(engine.any_eligible(session(), 0.0));
  EXPECT_FALSE(engine.any_eligible(training(), 0.0))
      << "whole-GPU job must not match slot-only capacity";
}

TEST_F(PlacementEngineTest, ProbeAgreesWithEnumerationAcrossUpdates) {
  // Regression: the existence probe once walked a different index than the
  // enumerating query, and the two disagreed about a node whose entry had
  // changed since the last refresh (the gateway then forwarded out work
  // its own campus could run).  Both paths now read one candidate set, and
  // Directory::update() is the only way to change an entry, so a change
  // made between queries is seen by the next query on either path.
  //
  // Fleet shape: many low-CC nodes with free GPUs, ONE high-CC node.
  for (int i = 0; i < 8; ++i) {
    directory_.upsert(
        make_node("m-low-" + std::to_string(i), "vision", 1, 1, 24.0, 8.6));
  }
  directory_.upsert(make_node("m-h100", "vision", 2, 0, 80.0, 9.0));
  PlacementEngine engine(directory_, reliability_, policy_,
                         std::string(kBestFit));

  auto h100_job = training(40.0);
  h100_job.requirements.min_compute_capability = 9.0;
  // Fully booked: neither path can place the high-CC job.
  EXPECT_FALSE(engine.any_eligible(h100_job, 0.0));
  EXPECT_FALSE(engine.place(h100_job, "", 0.0).has_value());

  // Capacity appears after a query has refreshed the view.
  ASSERT_TRUE(engine.any_eligible(training(), 0.0));  // refresh happened
  directory_.update("m-h100", [](NodeInfo& node) { node.free_gpus = 2; });
  auto placed = engine.place(h100_job, "", 0.0);
  EXPECT_EQ(engine.any_eligible(h100_job, 0.0), placed.has_value())
      << "existence probe disagrees with enumeration";
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->node->machine_id, "m-h100");

  // The reverse change (capacity vanished) must also agree.
  ASSERT_TRUE(engine.any_eligible(h100_job, 0.0));  // refresh again
  directory_.update("m-h100", [](NodeInfo& node) { node.free_gpus = 0; });
  EXPECT_FALSE(engine.any_eligible(h100_job, 0.0));
  EXPECT_FALSE(engine.place(h100_job, "", 0.0).has_value());
}

TEST_F(PlacementEngineTest, DegradationAppliesToFractionalTraining) {
  PlacementStrategyFactory::instance().register_strategy(
      "cautious_sharing",
      [] { return std::make_unique<CautiousSharingStrategy>(); });
  // Only fractional capacity exists: no whole GPU free, one slot open.
  NodeInfo node = make_node("m-flaky", "vision", 2, 0, 24.0, 8.6, 4);
  node.free_shared_slots = 2;
  directory_.upsert(node);
  ReliabilityPredictor reliability;
  for (int i = 0; i < 3; ++i) reliability.record_departure("m-flaky", 0.0);
  PlacementEngine engine(directory_, reliability, policy_,
                         "cautious_sharing");
  auto long_job = training(4.0);
  long_job.requirements.shareable = true;
  long_job.reference_duration = util::hours(20);
  // A long shareable training job is kept off the flaky node's slots...
  EXPECT_FALSE(engine.place(long_job, "", 0.0).has_value());
  // ...while a short one may take them.
  long_job.reference_duration = util::hours(1);
  auto decision = engine.place(long_job, "", 0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_TRUE(decision->fractional);
}

}  // namespace
}  // namespace gpunion::sched
