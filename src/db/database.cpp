#include "db/database.h"

namespace gpunion::db {

std::string_view node_status_name(NodeStatus s) {
  switch (s) {
    case NodeStatus::kActive: return "active";
    case NodeStatus::kPaused: return "paused";
    case NodeStatus::kUnavailable: return "unavailable";
    case NodeStatus::kDeparted: return "departed";
  }
  return "unknown";
}

}  // namespace gpunion::db
