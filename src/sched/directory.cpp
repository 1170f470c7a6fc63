#include "sched/directory.h"

#include <algorithm>
#include <bit>

namespace gpunion::sched {

// ---------------------------------------------------------------------------
// RankBitset / CandidateSet
// ---------------------------------------------------------------------------

void RankBitset::set(std::uint32_t rank) {
  if (rank / 64 >= words_.size()) words_.resize(rank / 64 + 1, 0);
  words_[rank / 64] |= std::uint64_t{1} << (rank % 64);
}

void RankBitset::reset(std::uint32_t rank) {
  if (rank / 64 < words_.size()) {
    words_[rank / 64] &= ~(std::uint64_t{1} << (rank % 64));
  }
}

std::uint64_t CandidateSet::word(const Segment& segment, std::size_t w) const {
  std::uint64_t bits = ~std::uint64_t{0};
  for (std::size_t i = 0; i < segment.terms_used; ++i) {
    const std::uint64_t term = segment.terms[i]->word(w);
    bits &= (segment.negated >> i) & 1 ? ~term : term;
  }
  return bits;
}

const NodeInfo* CandidateSet::at(std::size_t w, int bit) const {
  ++view_->candidates_examined_;
  return &view_->nodes_[view_->by_rank_[w * 64 + bit]];
}

CandidateSet::iterator CandidateSet::begin() const {
  iterator it;
  it.set_ = this;
  if (!lazy()) return it;  // list position 0
  if (segments_.empty()) return end();
  it.bits_ = word(segments_[0], 0);
  it.settle();
  return it;
}

CandidateSet::iterator CandidateSet::end() const {
  iterator it;
  it.set_ = this;
  it.segment_ = lazy() ? segments_.size() : 0;
  it.word_ = lazy() ? 0 : list_.size();
  return it;
}

void CandidateSet::iterator::settle() {
  const auto& segments = set_->segments_;
  while (bits_ == 0 && segment_ < segments.size()) {
    if (++word_ >= set_->words_) {
      word_ = 0;
      if (++segment_ == segments.size()) return;
    }
    bits_ = set_->word(segments[segment_], word_);
  }
  if (bits_ != 0) node_ = set_->at(word_, std::countr_zero(bits_));
}

const NodeInfo* CandidateSet::iterator::operator*() const {
  return set_->lazy() ? node_ : set_->list_[word_];
}

CandidateSet::iterator& CandidateSet::iterator::operator++() {
  if (!set_->lazy()) {
    ++word_;
    return *this;
  }
  bits_ &= bits_ - 1;
  settle();
  return *this;
}

std::size_t CandidateSet::size() const {
  if (!lazy()) return list_.size();
  if (size_ == std::numeric_limits<std::size_t>::max()) {
    size_ = 0;
    for (const Segment& segment : segments_) {
      for (std::size_t w = 0; w < words_; ++w) {
        size_ += static_cast<std::size_t>(std::popcount(word(segment, w)));
      }
    }
  }
  return size_;
}

const NodeInfo* CandidateSet::nth(std::size_t k) const {
  if (!lazy()) return k < list_.size() ? list_[k] : nullptr;
  for (const Segment& segment : segments_) {
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = word(segment, w);
      const auto count = static_cast<std::size_t>(std::popcount(bits));
      if (k >= count) {
        k -= count;
        continue;
      }
      for (; k > 0; --k) bits &= bits - 1;  // drop the k lower members
      return at(w, std::countr_zero(bits));
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// ClusterView
// ---------------------------------------------------------------------------

void ClusterView::AtLeastIndex::insert(double value, std::uint32_t rank) {
  auto [it, fresh] = sets_.try_emplace(value);
  // A new key starts as its successor's set: no node sits strictly between.
  if (fresh && std::next(it) != sets_.end()) it->second = std::next(it)->second;
  for (auto key = sets_.begin(); key != std::next(it); ++key) {
    key->second.set(rank);
  }
}

void ClusterView::AtLeastIndex::erase(double value, std::uint32_t rank) {
  for (auto key = sets_.begin(); key != sets_.end() && key->first <= value;
       ++key) {
    key->second.reset(rank);
  }
}

const RankBitset* ClusterView::AtLeastIndex::at_least(double min) const {
  auto it = sets_.lower_bound(min);
  return it == sets_.end() ? nullptr : &it->second;
}

void ClusterView::mark_dirty(NodeHandle handle) {
  if (entries_[handle].dirty) return;
  entries_[handle].dirty = true;
  dirty_.push_back(handle);
}

void ClusterView::add_node(NodeHandle handle) {
  entries_.resize(handle + 1);
  if (!ranks_stale_ && (by_rank_.empty() ||
                        nodes_[by_rank_.back()].machine_id <
                            nodes_[handle].machine_id)) {
    entries_[handle].rank = static_cast<std::uint32_t>(by_rank_.size());
  } else {
    ranks_stale_ = true;
  }
  by_rank_.push_back(handle);
  mark_dirty(handle);
}

void ClusterView::clear() {
  entries_.clear();
  by_rank_.clear();
  ranks_stale_ = false;
  dirty_.clear();
  free_at_least_.clear();
  fractional_nodes_.clear();
  timeslice_nodes_.clear();
  by_group_.clear();
  by_capability_.clear();
  by_memory_.clear();
  by_share_cap_.clear();
  schedulable_ = 0;
  sum_free_gpus_ = 0;
  sum_free_slots_ = 0;
  sum_free_timeslice_ = 0;
}

void ClusterView::refresh() {
  if (ranks_stale_) {
    // One sort re-ranks the fleet; every index is rebuilt under the new
    // ranks (registrations arriving out of id order, e.g. initial bring-up).
    std::vector<NodeHandle> by_rank = std::move(by_rank_);
    const std::size_t handles = entries_.size();
    clear();
    std::sort(by_rank.begin(), by_rank.end(), [this](NodeHandle a, NodeHandle b) {
      return nodes_[a].machine_id < nodes_[b].machine_id;
    });
    entries_.resize(handles);
    for (std::size_t rank = 0; rank < by_rank.size(); ++rank) {
      entries_[by_rank[rank]].rank = static_cast<std::uint32_t>(rank);
      mark_dirty(by_rank[rank]);
    }
    by_rank_ = std::move(by_rank);
  }
  for (const NodeHandle handle : dirty_) {
    unindex(entries_[handle]);
    entries_[handle].dirty = false;
    index(nodes_[handle], entries_[handle]);
    ++reindexed_nodes_;
  }
  dirty_.clear();
}

void ClusterView::unindex(IndexEntry& entry) {
  if (!entry.indexed) return;
  const std::uint32_t rank = entry.rank;
  for (int k = 0; k <= entry.free_gpus; ++k) free_at_least_[k].reset(rank);
  if (entry.fractional) fractional_nodes_.reset(rank);
  if (entry.timeslice) timeslice_nodes_.reset(rank);
  entry.group->reset(rank);
  by_capability_.erase(entry.capability, rank);
  by_memory_.erase(entry.memory, rank);
  if (entry.shares) by_share_cap_.erase(entry.share_cap, rank);
  --schedulable_;
  sum_free_gpus_ -= entry.free_gpus;
  sum_free_slots_ -= entry.counted_free_slots;
  sum_free_timeslice_ -= entry.counted_free_timeslice;
  entry = IndexEntry{.rank = rank};
}

void ClusterView::index(const NodeInfo& node, IndexEntry& entry) {
  if (!node.schedulable()) return;  // unschedulable nodes stay unindexed
  const std::uint32_t rank = entry.rank;
  entry.indexed = true;
  entry.free_gpus = std::max(0, node.free_gpus);
  if (free_at_least_.size() <= static_cast<std::size_t>(entry.free_gpus)) {
    free_at_least_.resize(entry.free_gpus + 1);
  }
  for (int k = 0; k <= entry.free_gpus; ++k) free_at_least_[k].set(rank);
  entry.shares = node.slots_per_gpu > 1;
  entry.fractional =
      entry.shares && (node.free_shared_slots > 0 || node.free_gpus > 0);
  entry.timeslice = node.timeslice_tenants_per_gpu > 1 &&
                    (node.free_timeslice_slots > 0 || node.free_gpus > 0);
  if (entry.fractional) fractional_nodes_.set(rank);
  if (entry.timeslice) timeslice_nodes_.set(rank);
  entry.group = &by_group_[node.owner_group];
  entry.group->set(rank);
  entry.capability = node.compute_capability;
  entry.memory = node.gpu_memory_gb;
  entry.share_cap = node.share_memory_cap_gb;
  by_capability_.insert(entry.capability, rank);
  by_memory_.insert(entry.memory, rank);
  if (entry.shares) by_share_cap_.insert(entry.share_cap, rank);
  ++schedulable_;
  entry.counted_free_slots = node.free_shared_slots;
  entry.counted_free_timeslice = node.free_timeslice_slots;
  sum_free_gpus_ += entry.free_gpus;
  sum_free_slots_ += entry.counted_free_slots;
  sum_free_timeslice_ += entry.counted_free_timeslice;
}

CandidateSet ClusterView::make_set() const {
  CandidateSet set;
  set.view_ = this;
  set.words_ = (by_rank_.size() + 63) / 64;
  return set;
}

void ClusterView::add_segment(
    CandidateSet& set,
    std::initializer_list<std::pair<const RankBitset*, bool>> terms) {
  CandidateSet::Segment segment;
  for (const auto& [bits, complemented] : terms) {
    if (bits == nullptr) {
      if (complemented) continue;  // complement of nothing: no constraint
      return;                      // AND with nothing: empty segment
    }
    if (complemented) segment.negated |= 1u << segment.terms_used;
    segment.terms[segment.terms_used++] = bits;
  }
  set.segments_.push_back(segment);
}

const RankBitset* ClusterView::free_at_least(int count) const {
  return count >= 0 && static_cast<std::size_t>(count) < free_at_least_.size()
             ? &free_at_least_[count]
             : nullptr;
}

const RankBitset* ClusterView::group_nodes(const std::string* group) const {
  if (group == nullptr) return free_at_least(0);
  auto it = by_group_.find(*group);
  return it == by_group_.end() ? nullptr : &it->second;
}

CandidateSet ClusterView::whole_gpu(int gpu_count, double min_memory_gb,
                                    double min_compute_capability,
                                    const std::string* owner_group) {
  refresh();
  CandidateSet set = make_set();
  const RankBitset* memory = by_memory_.at_least(min_memory_gb);
  const RankBitset* capability = by_capability_.at_least(min_compute_capability);
  if (owner_group != nullptr) {
    add_segment(set, {{group_nodes(owner_group), false},
                      {free_at_least(std::max(0, gpu_count)), false},
                      {memory, false},
                      {capability, false}});
    return set;
  }
  // One segment per free-GPU count: the tightest hosts come first.
  for (int free = std::max(0, gpu_count);
       free < static_cast<int>(free_at_least_.size()); ++free) {
    add_segment(set, {{&free_at_least_[free], false},
                      {free_at_least(free + 1), true},
                      {memory, false},
                      {capability, false}});
  }
  return set;
}

CandidateSet ClusterView::fractional(double memory_gb,
                                     double min_compute_capability,
                                     const std::string* owner_group) {
  refresh();
  CandidateSet set = make_set();
  add_segment(set, {{&fractional_nodes_, false},
                    {by_share_cap_.at_least(memory_gb), false},
                    {by_capability_.at_least(min_compute_capability), false},
                    {group_nodes(owner_group), false}});
  return set;
}

CandidateSet ClusterView::timeslice(double working_set_gb,
                                    double min_compute_capability,
                                    const std::string* owner_group) {
  refresh();
  CandidateSet set = make_set();
  add_segment(set, {{&timeslice_nodes_, false},
                    {by_memory_.at_least(working_set_gb), false},
                    {by_capability_.at_least(min_compute_capability), false},
                    {group_nodes(owner_group), false}});
  return set;
}

CapacitySummary ClusterView::summary() {
  refresh();
  CapacitySummary out;
  out.schedulable_nodes = schedulable_;
  out.free_gpus = sum_free_gpus_;
  out.free_shared_slots = sum_free_slots_;
  out.free_timeslice_slots = sum_free_timeslice_;
  return out;
}

// ---------------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------------

const NodeInfo& Directory::upsert(NodeInfo info) {
  total_gpus_ += info.gpu_count;
  bool may_shrink_envelope = false;
  auto [id, inserted] = ids_.try_emplace(info.machine_id,
                                         static_cast<NodeHandle>(nodes_.size()));
  const NodeHandle handle = id->second;
  info.handle = handle;
  if (inserted) {
    nodes_.push_back(std::move(info));
    view_.add_node(handle);
  } else {
    const NodeInfo& old = nodes_[handle];
    total_gpus_ -= old.gpu_count;
    // Re-registration with smaller hardware may have been holding an
    // envelope maximum; rescan below (rare — hardware swaps, not churn).
    may_shrink_envelope =
        (old.gpu_count >= max_node_gpus_ && info.gpu_count < old.gpu_count) ||
        (old.gpu_memory_gb >= max_gpu_memory_gb_ &&
         info.gpu_memory_gb < old.gpu_memory_gb) ||
        (old.compute_capability >= max_compute_capability_ &&
         info.compute_capability < old.compute_capability);
    nodes_[handle] = std::move(info);
    view_.mark_dirty(handle);
  }
  auto widen_envelope = [this](const NodeInfo& node) {
    max_node_gpus_ = std::max(max_node_gpus_, node.gpu_count);
    max_gpu_memory_gb_ = std::max(max_gpu_memory_gb_, node.gpu_memory_gb);
    max_compute_capability_ =
        std::max(max_compute_capability_, node.compute_capability);
  };
  if (may_shrink_envelope) {
    max_node_gpus_ = 0;
    max_gpu_memory_gb_ = 0;
    max_compute_capability_ = 0;
    for (const NodeInfo& node : nodes_) widen_envelope(node);
  } else {
    widen_envelope(nodes_[handle]);
  }
  return nodes_[handle];
}

void Directory::clear() {
  view_.clear();
  nodes_.clear();
  ids_.clear();
  total_gpus_ = 0;
  max_node_gpus_ = 0;
  max_gpu_memory_gb_ = 0;
  max_compute_capability_ = 0;
}

NodeHandle Directory::handle_of(const std::string& machine_id) const {
  auto it = ids_.find(machine_id);
  return it == ids_.end() ? kNoNode : it->second;
}

const NodeInfo* Directory::find(const std::string& machine_id) const {
  const NodeHandle handle = handle_of(machine_id);
  return handle == kNoNode ? nullptr : &nodes_[handle];
}

std::vector<const NodeInfo*> Directory::all() const {
  std::vector<const NodeInfo*> out;
  out.reserve(nodes_.size());
  for (const NodeInfo& node : nodes_) out.push_back(&node);
  std::sort(out.begin(), out.end(), [](const NodeInfo* a, const NodeInfo* b) {
    return a->machine_id < b->machine_id;
  });
  return out;
}

void Directory::reserve_gpus(const std::string& machine_id, int count) {
  update(machine_id, [count](NodeInfo& node) {
    node.free_gpus = std::clamp(node.free_gpus - count, 0, node.gpu_count);
  });
}

void Directory::release_gpus(const std::string& machine_id, int count) {
  update(machine_id, [count](NodeInfo& node) {
    node.free_gpus = std::clamp(node.free_gpus + count, 0, node.gpu_count);
  });
}

namespace {

/// Takes one shared unit (slot or seat): a free one on an already-shared
/// device when available, otherwise a fully-free GPU is opened in that mode
/// — one unit taken now, the rest free for future tenants.
bool take_shared_unit(NodeInfo& node, int per_gpu, int NodeInfo::*free_units) {
  if (per_gpu <= 1) return false;
  if (node.*free_units > 0) {
    --(node.*free_units);
    return true;
  }
  if (node.free_gpus <= 0) return false;
  --node.free_gpus;
  node.*free_units += per_gpu - 1;
  return true;
}

/// Returns one shared unit, clamped to the units of the non-free devices.
void return_shared_unit(NodeInfo& node, int per_gpu, int NodeInfo::*free_units) {
  const int capacity = (node.gpu_count - node.free_gpus) * std::max(1, per_gpu);
  node.*free_units = std::clamp(node.*free_units + 1, 0, capacity);
}

}  // namespace

bool Directory::reserve_slot(const std::string& machine_id) {
  bool taken = false;
  update(machine_id, [&taken](NodeInfo& node) {
    taken = take_shared_unit(node, node.slots_per_gpu,
                             &NodeInfo::free_shared_slots);
  });
  return taken;
}

void Directory::release_slot(const std::string& machine_id) {
  update(machine_id, [](NodeInfo& node) {
    return_shared_unit(node, node.slots_per_gpu, &NodeInfo::free_shared_slots);
  });
}

bool Directory::reserve_timeslice_slot(const std::string& machine_id) {
  bool taken = false;
  update(machine_id, [&taken](NodeInfo& node) {
    taken = take_shared_unit(node, node.timeslice_tenants_per_gpu,
                             &NodeInfo::free_timeslice_slots);
  });
  return taken;
}

void Directory::release_timeslice_slot(const std::string& machine_id) {
  update(machine_id, [](NodeInfo& node) {
    return_shared_unit(node, node.timeslice_tenants_per_gpu,
                       &NodeInfo::free_timeslice_slots);
  });
}

CapacitySummary Directory::capacity_summary() {
  CapacitySummary out = view_.summary();
  out.nodes = static_cast<int>(nodes_.size());
  out.total_gpus = total_gpus_;
  out.max_node_gpus = max_node_gpus_;
  out.max_gpu_memory_gb = max_gpu_memory_gb_;
  out.max_compute_capability = max_compute_capability_;
  return out;
}

}  // namespace gpunion::sched
