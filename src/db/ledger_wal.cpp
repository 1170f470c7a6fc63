#include "db/ledger_wal.h"

#include <algorithm>

namespace gpunion::db {

std::string_view wal_op_name(WalOp op) {
  switch (op) {
    case WalOp::kUpsertNode: return "upsert_node";
    case WalOp::kSetNodeStatus: return "set_node_status";
    case WalOp::kTouchHeartbeatBatch: return "touch_heartbeat_batch";
    case WalOp::kOpenAllocation: return "open_allocation";
    case WalOp::kCloseAllocation: return "close_allocation";
    case WalOp::kEnqueue: return "enqueue";
    case WalOp::kPop: return "pop";
    case WalOp::kRemoveRequest: return "remove_request";
    case WalOp::kProvenance: return "provenance";
    case WalOp::kMetric: return "metric";
    case WalOp::kPutJobState: return "put_job_state";
    case WalOp::kEraseJobState: return "erase_job_state";
    case WalOp::kJournalPut: return "journal_put";
    case WalOp::kPutForward: return "put_forward";
    case WalOp::kEraseForward: return "erase_forward";
    case WalOp::kPutHandoff: return "put_handoff";
  }
  return "unknown";
}

std::size_t TableImage::queue_rows() const {
  std::size_t n = 0;
  for (const auto& [priority, bucket] : queue) n += bucket.size();
  return n;
}

namespace {

/// The record's payload as the alternative its op carries (a mismatch is a
/// programming error: make the mismatch loud, not a silent no-op).
template <typename T>
const T& payload(const WalRecord& record) {
  return std::get<T>(record.payload);
}

void erase_queue_row(TableImage& image, const WalQueueRow& row) {
  auto bucket = image.queue.find(row.priority);
  if (bucket == image.queue.end()) return;
  bucket->second.erase(row.queue_seq);
  if (bucket->second.empty()) image.queue.erase(bucket);
}

}  // namespace

void apply_to_image(TableImage& image, const WalRecord& record,
                    std::size_t history_limit) {
  switch (record.op) {
    case WalOp::kUpsertNode: {
      const NodeRecord& node = payload<NodeRecord>(record);
      if (node.row >= image.node_rows.size()) {
        image.node_rows.resize(node.row + 1);
      }
      image.node_rows[node.row] = node;
      image.node_index[record.key] = node.row;
      break;
    }
    case WalOp::kSetNodeStatus: {
      auto it = image.node_index.find(record.key);
      if (it != image.node_index.end()) {
        image.node_rows[it->second].status = payload<NodeStatus>(record);
      }
      break;
    }
    case WalOp::kTouchHeartbeatBatch:
      for (const auto& [row, at] :
           payload<std::vector<std::pair<NodeRow, util::SimTime>>>(record)) {
        if (row >= image.node_rows.size()) continue;
        NodeRecord& node = image.node_rows[row];
        node.last_heartbeat = std::max(node.last_heartbeat, at);
      }
      break;
    case WalOp::kOpenAllocation: {
      const AllocationRecord& allocation = payload<AllocationRecord>(record);
      image.allocations[allocation.allocation_id] = allocation;
      image.next_allocation_id = std::max(image.next_allocation_id,
                                          allocation.allocation_id + 1);
      break;
    }
    case WalOp::kCloseAllocation: {
      const WalCloseAllocation& close = payload<WalCloseAllocation>(record);
      auto it = image.allocations.find(close.allocation_id);
      if (it != image.allocations.end() &&
          it->second.outcome == AllocationOutcome::kRunning) {
        it->second.outcome = close.outcome;
        it->second.ended_at = record.at;
      }
      break;
    }
    case WalOp::kEnqueue: {
      const WalEnqueue& insert = payload<WalEnqueue>(record);
      image.queue[insert.request.priority][insert.queue_seq] = insert.request;
      image.queue_back_seq = std::max(image.queue_back_seq, insert.queue_seq);
      image.queue_front_seq =
          std::min(image.queue_front_seq, insert.queue_seq);
      break;
    }
    case WalOp::kPop:
    case WalOp::kRemoveRequest:
      erase_queue_row(image, payload<WalQueueRow>(record));
      break;
    case WalOp::kProvenance:
      // Keyed by WAL seq: materializing in key order reproduces the global
      // append order of the live provenance log.
      image.provenance[record.seq] = payload<JobProvenance>(record);
      break;
    case WalOp::kMetric: {
      auto& points = image.metrics[record.key];
      points.push_back(
          MetricPoint{record.at, payload<WalMetric>(record).value});
      while (points.size() > history_limit) points.pop_front();
      break;
    }
    case WalOp::kPutJobState:
      image.job_states[record.key] = payload<JobStateRecord>(record);
      break;
    case WalOp::kEraseJobState:
      image.job_states.erase(record.key);
      break;
    case WalOp::kJournalPut:
      image.journal[record.key] = payload<std::vector<std::int64_t>>(record);
      break;
    case WalOp::kPutForward:
      image.forwards[record.key] = payload<ForwardStateRecord>(record);
      break;
    case WalOp::kEraseForward:
      image.forwards.erase(record.key);
      break;
    case WalOp::kPutHandoff:
      image.handoffs[record.key] = payload<HandoffRecord>(record);
      break;
  }
}

std::uint64_t LedgerWal::append(WalRecord&& record) {
  record.seq = next_seq_++;
  records_.push_back(std::move(record));
  ++stats_.appended;
  stats_.max_depth = std::max(stats_.max_depth, records_.size());
  return records_.back().seq;
}

void LedgerWal::mark_applied(std::size_t shard, std::uint64_t seq) {
  applied_[shard] = std::max(applied_[shard], seq);
}

std::size_t LedgerWal::truncate_applied() {
  std::size_t dropped = 0;
  while (!records_.empty() &&
         records_.front().seq <= applied_[records_.front().shard]) {
    records_.pop_front();
    ++dropped;
  }
  stats_.truncated += dropped;
  return dropped;
}

void LedgerWal::note_recovery(std::uint64_t replayed) {
  ++stats_.recoveries;
  stats_.replayed += replayed;
}

}  // namespace gpunion::db
