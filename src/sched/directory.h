// Coordinator-side membership directory with an indexed cluster view.
//
// The scheduler's real-time view of the fleet (§3.2: "maintains a real-time
// view of available GPU resources across the campus network through periodic
// status updates from provider agents").  free_gpus / free_shared_slots are
// the *scheduling* view: decremented optimistically at dispatch and
// corrected by dispatch results and heartbeats, so the coordinator never
// double-books capacity while a dispatch is in flight.
//
// Every registered node gets a dense NodeHandle once, at its first
// registration; the machine id is resolved to it at the edge (one map
// lookup) and every layer behind that indexes by integer.  ClusterView
// keeps its indexes as bitsets over machine-id *ranks*, so a placement
// query is a handful of word-wise ANDs and walking the set bits yields
// nodes in machine-id order — no per-query sort, no per-node rescans.
// Mutations mark nodes dirty; indexes are repaired lazily on the next query.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/database.h"
#include "util/time.h"

namespace gpunion::sched {

/// Dense per-directory node index, stable across re-registrations.
using NodeHandle = std::uint32_t;
inline constexpr NodeHandle kNoNode = std::numeric_limits<NodeHandle>::max();

struct NodeInfo {
  std::string machine_id;
  NodeHandle handle = kNoNode;  // assigned by Directory::upsert
  std::string hostname;
  std::string owner_group;
  std::string gpu_model;
  int gpu_count = 0;
  double gpu_memory_gb = 0;
  double compute_capability = 0;
  double gpu_tflops = 0;

  // Fractional sharing capability advertised at registration.
  int slots_per_gpu = 1;           // >1: GPUs may be spatially shared
  double share_memory_cap_gb = 0;  // per-tenant VRAM cap on a shared GPU

  // nvshare-style time-slice capability advertised at registration.
  int timeslice_tenants_per_gpu = 0;   // >1: GPUs may host time-sliced seats
  double timeslice_oversub_ratio = 0;  // sum(working sets) / VRAM ceiling
  double host_swap_gbps = 0;           // device<->host swap bandwidth

  db::NodeStatus status = db::NodeStatus::kActive;
  bool accepting = true;
  int free_gpus = 0;          // fully-free whole GPUs
  int free_shared_slots = 0;  // free slots on partially-occupied shared GPUs
  int free_timeslice_slots = 0;  // free seats on GPUs already time-sliced
  util::SimTime last_heartbeat = 0;
  std::uint64_t last_heartbeat_seq = 0;
  util::SimTime registered_at = 0;
  std::string token_hash;  // sha256 of the issued auth token
  /// Last raw token that verified against token_hash.  Heartbeat auth is on
  /// the coordinator actor's critical path; hashing every beat made it the
  /// hottest instruction there.  Tokens only change on (re)registration, so
  /// one string compare replaces the SHA-256 after the first verified beat
  /// — byte-equal input implies the same digest, accept/reject is unchanged.
  std::string verified_token;

  bool schedulable() const {
    return status == db::NodeStatus::kActive && accepting;
  }
};

/// Whole-fleet capacity aggregate, cheap enough to compute per gossip tick.
/// Region gateways serialize this into their federation capacity digests,
/// so it must come from running counters (O(dirty) repair, no node rescans).
struct CapacitySummary {
  int nodes = 0;              // every directory entry, any status
  int schedulable_nodes = 0;  // kActive and accepting
  int total_gpus = 0;         // across all nodes, any status
  int free_gpus = 0;          // fully-free whole GPUs on schedulable nodes
  int free_shared_slots = 0;  // free fractional slots on schedulable nodes
  int free_timeslice_slots = 0;  // free time-slice seats on schedulable nodes
  /// Hardware envelope: the best any single registered node offers
  /// (departed nodes included — hardware survives churn; recomputed when
  /// a re-registration shrinks a maximum).  Lets the federation broker
  /// drop never-feasible regions from a ranking — a job needing 4 GPUs on
  /// one node, 40 GB VRAM or CC 9.0 is not sent to a campus of 1-GPU
  /// 24 GB CC-8.6 workstations.
  int max_node_gpus = 0;
  double max_gpu_memory_gb = 0;
  double max_compute_capability = 0;
};

/// Growable bitset over machine-id ranks (bit r = the node ranked r).
class RankBitset {
 public:
  void set(std::uint32_t rank);
  void reset(std::uint32_t rank);
  std::uint64_t word(std::size_t w) const {
    return w < words_.size() ? words_[w] : 0;
  }
  void clear() { words_.clear(); }

 private:
  std::vector<std::uint64_t> words_;
};

class ClusterView;

/// A lazily evaluated, ordered set of placement candidates: segments, each
/// the AND of a few rank bitsets (some complemented), walked in turn and in
/// machine-id order within.  size() and nth() are popcount walks, so a
/// round-robin pick costs O(fleet / 64) word operations and reaches one
/// node; every node reached counts in candidates_examined().  A set built
/// from a node list (tests, filtered()) iterates that list.  Valid until
/// the directory is next mutated or queried.
class CandidateSet {
 public:
  CandidateSet() = default;
  /// An explicit list (implicit: strategies accept a plain vector).
  CandidateSet(std::vector<const NodeInfo*> nodes)
      : list_(std::move(nodes)) {}

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = const NodeInfo*;
    using difference_type = std::ptrdiff_t;
    using reference = const NodeInfo*;

    const NodeInfo* operator*() const;
    iterator& operator++();
    bool operator==(const iterator& other) const {
      return segment_ == other.segment_ && word_ == other.word_ &&
             bits_ == other.bits_;
    }

   private:
    friend class CandidateSet;
    /// Moves to the next set bit at or after the current position.
    void settle();
    const CandidateSet* set_ = nullptr;
    std::size_t segment_ = 0;
    std::size_t word_ = 0;  // word index (lazy) or list position (explicit)
    std::uint64_t bits_ = 0;
    const NodeInfo* node_ = nullptr;  // lazy: the member at the lowest bit
  };

  iterator begin() const;
  iterator end() const;
  std::size_t size() const;
  bool empty() const { return size() == 0; }
  /// The k-th node in set order; nullptr when k >= size().
  const NodeInfo* nth(std::size_t k) const;
  /// The members passing `keep`, materialized in set order.
  template <typename Pred>
  CandidateSet filtered(Pred keep) const {
    std::vector<const NodeInfo*> kept;
    for (const NodeInfo* node : *this) {
      if (keep(*node)) kept.push_back(node);
    }
    return CandidateSet(std::move(kept));
  }

 private:
  friend class ClusterView;
  static constexpr std::size_t kMaxTerms = 4;
  struct Segment {
    std::array<const RankBitset*, kMaxTerms> terms{};
    std::uint32_t negated = 0;  // bit i: term i is complemented
    std::size_t terms_used = 0;
  };
  bool lazy() const { return view_ != nullptr; }
  std::uint64_t word(const Segment& segment, std::size_t w) const;
  /// The node at bit `bit` of word `w`; counts it as examined.
  const NodeInfo* at(std::size_t w, int bit) const;

  const ClusterView* view_ = nullptr;  // null: explicit list
  std::vector<Segment> segments_;
  std::size_t words_ = 0;
  std::vector<const NodeInfo*> list_;
  mutable std::size_t size_ = std::numeric_limits<std::size_t>::max();
};

/// Secondary indexes over the directory as rank bitsets, maintained
/// incrementally via dirty-node invalidation.  Query results are
/// deterministic: ordered as documented per query, machine-id order within.
class ClusterView {
 public:
  explicit ClusterView(const std::deque<NodeInfo>& nodes) : nodes_(nodes) {}

  /// Marks one node's index entries stale (re-indexed on the next query).
  void mark_dirty(NodeHandle handle);
  /// Files a new handle.  An id sorting before an existing one invalidates
  /// the ranks; the next query rebuilds them in one sort.
  void add_node(NodeHandle handle);

  /// Drops every index entry and running counter (coordinator crash).
  /// Work counters (reindexed/examined) survive — they describe lifetime
  /// work, not current state.
  void clear();

  /// Schedulable nodes with >= `gpu_count` fully-free GPUs of at least
  /// `min_memory_gb` and `min_compute_capability`.  Without a group: by
  /// ascending free-GPU count, then machine id; with `owner_group`: that
  /// group's nodes in machine-id order.
  CandidateSet whole_gpu(int gpu_count, double min_memory_gb,
                         double min_compute_capability,
                         const std::string* owner_group);

  /// Schedulable nodes able to host one fractional tenant of `memory_gb`:
  /// sharing enabled, the per-tenant cap honoured, and either a free slot
  /// on a shared GPU or a fully-free GPU to open in shared mode.  Machine-id
  /// order (the sharing strategies rank by slots, VRAM fit and id).
  CandidateSet fractional(double memory_gb, double min_compute_capability,
                          const std::string* owner_group);

  /// Schedulable nodes able to host one time-sliced tenant of
  /// `working_set_gb`: time-slicing enabled, the working set fits in VRAM,
  /// and either a free seat on a sliced GPU or a fully-free GPU to open in
  /// time-slice mode.  Machine-id order.  (The oversubscription ceiling is
  /// per device, so the agent's node model enforces it.)
  CandidateSet timeslice(double working_set_gb, double min_compute_capability,
                         const std::string* owner_group);

  /// Nodes reached through candidate sets since construction (the work
  /// bound: a round-robin pick or an existence probe on a fleet with free
  /// capacity advances this by O(1), not O(nodes)).
  std::uint64_t candidates_examined() const { return candidates_examined_; }

  /// Schedulable-fleet aggregates from the running counters the indexes
  /// already maintain: O(dirty) repair, then O(1).  Node/GPU totals are
  /// filled in by Directory::capacity_summary().
  CapacitySummary summary();

  /// Nodes re-indexed since construction (observability for the
  /// scalability bench: work done per pass instead of full rescans).
  std::uint64_t reindexed_nodes() const { return reindexed_nodes_; }

 private:
  friend class CandidateSet;

  /// One bitset per distinct value seen, of the nodes whose value is >= it:
  /// a threshold filter (VRAM >= 40 GB, CC >= 8.0) is one lookup and one
  /// AND.  Keys are few (distinct hardware values).
  class AtLeastIndex {
   public:
    void insert(double value, std::uint32_t rank);
    void erase(double value, std::uint32_t rank);
    /// Nodes with value >= min; nullptr when no node can qualify.
    const RankBitset* at_least(double min) const;
    void clear() { sets_.clear(); }

   private:
    std::map<double, RankBitset> sets_;
  };

  /// Keys one node is filed under (needed for removal on change).
  struct IndexEntry {
    std::uint32_t rank = 0;
    bool dirty = false;    // queued in dirty_
    bool indexed = false;  // schedulable when last indexed
    int free_gpus = 0;     // filed in free_at_least_[0..free_gpus]
    bool shares = false;      // filed in by_share_cap_
    bool fractional = false;  // filed in fractional_nodes_
    bool timeslice = false;   // filed in timeslice_nodes_
    RankBitset* group = nullptr;
    double capability = 0, memory = 0, share_cap = 0;
    // Contributions to the capacity-summary counters (subtracted on
    // unindex, so the counters never need a rescan).
    int counted_free_slots = 0;
    int counted_free_timeslice = 0;
  };

  void refresh();
  void unindex(IndexEntry& entry);
  void index(const NodeInfo& node, IndexEntry& entry);
  CandidateSet make_set() const;
  /// Appends the AND of `terms`, each {bitset, complemented}.  A null plain
  /// term empties the segment (skipped); a null complemented one is dropped.
  static void add_segment(
      CandidateSet& set,
      std::initializer_list<std::pair<const RankBitset*, bool>> terms);
  /// free_at_least_[count], or null when no node has that many free.
  const RankBitset* free_at_least(int count) const;
  /// The group's schedulable nodes (every one when `group` is null); null
  /// for an unknown group.
  const RankBitset* group_nodes(const std::string* group) const;

  const std::deque<NodeInfo>& nodes_;
  std::vector<IndexEntry> entries_;  // by handle
  std::vector<NodeHandle> by_rank_;
  bool ranks_stale_ = false;
  std::vector<NodeHandle> dirty_;

  // free_at_least_[k]: schedulable nodes with >= k fully-free GPUs
  // ([0] = every schedulable node).
  std::vector<RankBitset> free_at_least_;
  // Sharing on and a free slot (seat) or a free GPU to open in that mode.
  RankBitset fractional_nodes_;
  RankBitset timeslice_nodes_;
  std::map<std::string, RankBitset> by_group_;
  AtLeastIndex by_capability_;
  AtLeastIndex by_memory_;
  AtLeastIndex by_share_cap_;  // sharing-enabled nodes only

  std::uint64_t reindexed_nodes_ = 0;
  mutable std::uint64_t candidates_examined_ = 0;
  // Running schedulable-fleet aggregates (see summary()).
  int schedulable_ = 0;
  int sum_free_gpus_ = 0;
  int sum_free_slots_ = 0;
  int sum_free_timeslice_ = 0;
};

class Directory {
 public:
  Directory() : view_(nodes_) {}

  // The view indexes the node table by reference; pin the object.
  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  /// Inserts or updates; a re-registration keeps the node's handle.
  const NodeInfo& upsert(NodeInfo info);

  /// kNoNode when the id never registered.
  NodeHandle handle_of(const std::string& machine_id) const;
  const NodeInfo* find(const std::string& machine_id) const;
  const NodeInfo& node(NodeHandle handle) const { return nodes_[handle]; }

  /// The only way to change an entry after upsert().  The node is re-indexed
  /// only when `mutate` changed a scheduling field (status, accepting, free
  /// counts): a beat confirming the current state costs the view nothing.
  template <typename F>
  void update(NodeHandle handle, F&& mutate) {
    NodeInfo& node = nodes_[handle];
    const auto before = scheduling_fields(node);
    mutate(node);
    if (scheduling_fields(node) != before) view_.mark_dirty(handle);
  }
  /// update() by id; false for unknown ids.
  template <typename F>
  bool update(const std::string& machine_id, F&& mutate) {
    const NodeHandle handle = handle_of(machine_id);
    if (handle == kNoNode) return false;
    update(handle, std::forward<F>(mutate));
    return true;
  }

  /// All nodes, machine-id order.
  std::vector<const NodeInfo*> all() const;

  /// Adjusts the scheduling view of free whole GPUs (clamped to
  /// [0, gpu_count]).
  void reserve_gpus(const std::string& machine_id, int count);
  void release_gpus(const std::string& machine_id, int count);

  /// Takes one fractional slot: a free slot on a shared GPU when available,
  /// otherwise a fully-free GPU is opened in shared mode.  False when the
  /// node is unknown, sharing is disabled, or nothing is free.
  bool reserve_slot(const std::string& machine_id);
  /// Returns one fractional slot to the scheduling view.  A shared GPU
  /// emptying back into the whole-GPU pool is reconciled by the next
  /// heartbeat (the agent is ground truth).
  void release_slot(const std::string& machine_id);

  /// Takes one time-slice seat: a free seat on a sliced GPU when available,
  /// otherwise a fully-free GPU is opened in time-slice mode.  False when
  /// the node is unknown, time-slicing is disabled, or nothing is free.
  bool reserve_timeslice_slot(const std::string& machine_id);
  /// Returns one time-slice seat to the scheduling view (heartbeats
  /// reconcile a device emptying back into the whole-GPU pool).
  void release_timeslice_slot(const std::string& machine_id);

  /// Forgets every node and handle (simulated coordinator crash; the
  /// in-memory view is rebuilt from the durable registry on recovery).
  void clear();

  std::size_t size() const { return nodes_.size(); }
  int total_gpus() const { return total_gpus_; }

  /// Whole-fleet capacity aggregate for federation gossip digests, from
  /// running counters: O(dirty) index repair, no node rescans.
  CapacitySummary capacity_summary();

  /// Indexed view for the placement engine.
  ClusterView& view() { return view_; }

 private:
  static auto scheduling_fields(const NodeInfo& node) {
    return std::make_tuple(node.status, node.accepting, node.free_gpus,
                           node.free_shared_slots, node.free_timeslice_slots);
  }
  std::deque<NodeInfo> nodes_;  // by handle; a deque keeps entries in place
  std::unordered_map<std::string, NodeHandle> ids_;  // the edge
  ClusterView view_;
  int total_gpus_ = 0;  // maintained by upsert
  // Hardware envelope (see CapacitySummary).
  int max_node_gpus_ = 0;
  double max_gpu_memory_gb_ = 0;
  double max_compute_capability_ = 0;
};

}  // namespace gpunion::sched
