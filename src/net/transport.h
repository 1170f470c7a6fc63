// Abstract message transport.
//
// Agents, the coordinator and the federation gateways are written against
// this interface.  SimNetwork (latency + bandwidth + accounting) is the one
// implementation; the interface stays virtual so a test can interpose a
// fault-injecting wrapper around it.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/message.h"
#include "util/status.h"

namespace gpunion::net {

/// Receives messages addressed to one endpoint.
using MessageHandler = std::function<void(Message&&)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Attaches `handler` as the receiver for `id`.  Replaces any previous
  /// handler (a node re-joining after departure re-attaches).
  virtual void register_endpoint(const NodeId& id, MessageHandler handler) = 0;

  /// Lane-aware registration: deliveries to `id` fire on the actor lane
  /// `lane` (a sim::LaneId) so the endpoint's handler always runs on the
  /// worker owning that actor.  A wrapper that does not override this
  /// forwards to the lane-less form, so its endpoints take the inner
  /// transport's default lane.
  virtual void register_endpoint(const NodeId& id, MessageHandler handler,
                                 std::uint32_t lane) {
    (void)lane;
    register_endpoint(id, std::move(handler));
  }

  /// Detaches the endpoint; in-flight messages to it are dropped.
  virtual void unregister_endpoint(const NodeId& id) = 0;

  /// The dense id of `id`'s endpoint, for Message::from_ep / to_ep;
  /// kNoEndpoint when the transport has never seen `id`.
  virtual EndpointId resolve(const NodeId& id) const = 0;

  /// Queues `msg` for delivery.  Returns kNotFound if the destination has
  /// never been registered (a set `msg.to_ep` skips the by-name lookup);
  /// delivery itself is best-effort (the destination may unregister,
  /// partition or drop while the message is in flight — exactly the
  /// volatility GPUnion is designed around).
  virtual util::Status send(Message msg) = 0;
};

}  // namespace gpunion::net
