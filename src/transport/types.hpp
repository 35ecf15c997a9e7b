// Shared constants and small value types for the transport substrate.
//
// The transport layer carries the MPI-flavoured subset of semantics the
// layers above (mpisim, core) rely on: framed packets with eager buffered
// point-to-point delivery, per-(source, destination, context) non-overtaking
// order, tag matching with wildcards, and probing. Three backends implement
// the contract today — the in-process threaded simulator (transport/inproc/),
// the multi-process Unix-domain-socket backend (transport/socket/) and the
// multi-process shared-memory backend (transport/shm/); see
// docs/TRANSPORT.md for the contract and the backend matrix.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ygm::transport {

/// Wildcard source for recv/probe, like MPI_ANY_SOURCE.
inline constexpr int any_source = -1;

/// Wildcard tag for recv/probe, like MPI_ANY_TAG.
inline constexpr int any_tag = -1;

/// Largest tag available to user code, like MPI_TAG_UB.
inline constexpr int tag_ub = (1 << 24) - 1;

/// Context id of the world communicator's point-to-point plane; the
/// collective plane is world_context + 1. Derived communicators (split/dup)
/// use deterministically hashed context ids with the high bit set, so they
/// can never collide with these reserved low ids.
inline constexpr std::uint64_t world_context = 1;

/// Result of a completed receive or probe, like MPI_Status.
struct status {
  int source = any_source;       ///< group rank of the sender
  int tag = any_tag;             ///< tag of the matched message
  std::size_t byte_count = 0;    ///< payload size in bytes
};

}  // namespace ygm::transport
