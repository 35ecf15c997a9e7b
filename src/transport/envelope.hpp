// The in-flight message representation of the transport substrate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ygm::transport {

/// A framed packet in a rank's incoming queue. Sends are eager: the sender
/// serializes the payload and posts the envelope toward the destination's
/// mail_slot, so a send never blocks (mirroring MPI's buffered/eager path;
/// the scales this repo runs at keep queues comfortably in memory). The
/// payload vector travels by move end to end — acquired from the sender's
/// buffer_pool, released to the receiver's — so the zero-copy discipline of
/// docs/PERF.md survives the substrate seam on every backend.
struct envelope {
  int src = -1;              ///< sender's group rank within the communicator
  int tag = -1;              ///< user or collective tag
  std::uint64_t ctx = 0;     ///< communicator context id (segregates comms)
  std::vector<std::byte> payload;
};

}  // namespace ygm::transport
