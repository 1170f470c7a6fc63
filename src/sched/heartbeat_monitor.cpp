#include "sched/heartbeat_monitor.h"

#include <algorithm>

#include "util/logging.h"

namespace gpunion::sched {

HeartbeatMonitor::HeartbeatMonitor(sim::Environment& env,
                                   const Directory& directory,
                                   util::Duration heartbeat_interval,
                                   int miss_threshold, OnNodeLost on_node_lost,
                                   sim::LaneId lane)
    : env_(env),
      directory_(directory),
      heartbeat_interval_(heartbeat_interval),
      miss_threshold_(miss_threshold),
      on_node_lost_(std::move(on_node_lost)),
      timer_(env, heartbeat_interval, [this] { sweep(); }, lane) {}

void HeartbeatMonitor::observe(NodeHandle handle, util::SimTime at) {
  if (handle >= last_seen_.size()) last_seen_.resize(handle + 1, kUntracked);
  util::SimTime& last = last_seen_[handle];
  if (at <= last) return;  // stale observation; newest wins
  if (last != kUntracked) by_expiry_.erase({last, handle});
  last = at;
  by_expiry_.insert({at, handle});
}

void HeartbeatMonitor::forget(NodeHandle handle) {
  if (handle >= last_seen_.size() || last_seen_[handle] == kUntracked) return;
  by_expiry_.erase({last_seen_[handle], handle});
  last_seen_[handle] = kUntracked;
}

std::vector<std::string> HeartbeatMonitor::sweep() {
  const util::SimTime now = env_.now();
  ++sweeps_;
  last_sweep_examined_ = 0;
  std::vector<std::pair<util::SimTime, std::string>> expired;
  while (!by_expiry_.empty()) {
    const auto [last_beat, handle] = *by_expiry_.begin();
    if (now - last_beat <= detection_deadline()) break;  // rest are fresher
    ++last_sweep_examined_;
    ++total_examined_;
    last_seen_[handle] = kUntracked;
    by_expiry_.erase(by_expiry_.begin());
    const NodeInfo& node = directory_.node(handle);
    if (node.status != db::NodeStatus::kActive) {
      continue;  // loss already handled (departure notice etc.)
    }
    expired.emplace_back(last_beat, node.machine_id);
  }
  // Simultaneous expiries are reported in machine-id order, not by handle.
  std::sort(expired.begin(), expired.end());
  std::vector<std::string> lost;
  for (auto& [last_beat, machine_id] : expired) {
    GPUNION_ILOG("hb-monitor")
        << machine_id << " missed " << miss_threshold_
        << " heartbeats; marking unavailable";
    if (on_node_lost_) on_node_lost_(machine_id);
    lost.push_back(std::move(machine_id));
  }
  return lost;
}

}  // namespace gpunion::sched
