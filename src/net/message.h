// Generic message envelope for the campus network model.
//
// The network layer is payload-agnostic: it moves sized envelopes between
// named endpoints, modelling latency, link serialization and loss, and
// accounting bytes per traffic class (the Network-Traffic-Analysis experiment
// in §4 of the paper).  Typed protocol structs live in agent/proto.h and ride
// inside `payload`.
#pragma once

#include <any>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace gpunion::net {

/// Stable endpoint identifier (machine id or "coordinator").
using NodeId = std::string;

/// Dense per-transport endpoint index, resolved once from a NodeId
/// (Transport::resolve) and stable for the transport's lifetime: an
/// endpoint that unregisters and re-registers keeps its id.
using EndpointId = std::uint32_t;
inline constexpr EndpointId kNoEndpoint =
    std::numeric_limits<EndpointId>::max();

/// Traffic classes accounted separately, mirroring the paper's analysis of
/// control vs checkpoint/backup traffic on the campus LAN.
enum class TrafficClass {
  kControl = 0,     // registration, dispatch, kill, ack
  kHeartbeat,       // periodic liveness beacons
  kTelemetry,       // NVML metric reports
  kCheckpoint,      // ALC backup deltas
  kMigration,       // checkpoint restore transfers to the new node
  kImage,           // container image pulls
  kUserData,        // dataset/output movement
  kFederation,      // inter-campus WAN: digests, forwards, shipped checkpoints
  kClassCount,
};

std::string_view traffic_class_name(TrafficClass c);

struct Message {
  NodeId from;
  NodeId to;
  TrafficClass traffic_class = TrafficClass::kControl;
  std::uint64_t size_bytes = 0;
  /// Protocol discriminator, interpreted by the receiving endpoint
  /// (values from agent/proto.h).
  int kind = 0;
  /// Typed payload; receivers unwrap with std::any_cast.
  std::any payload;
  /// Resolved endpoints of `from` / `to`.  A sender that resolved them
  /// once may set them to spare the transport its by-name lookups; send()
  /// fills both, so a delivered message always carries them.  They must
  /// name the same endpoints as the strings.
  EndpointId from_ep = kNoEndpoint;
  EndpointId to_ep = kNoEndpoint;
};

}  // namespace gpunion::net
