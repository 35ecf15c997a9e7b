// The wire shared by the process-per-rank backends (socket, shm): the
// framed-header layout, the frame kinds, the rendezvous deadline and the
// clock both backends count in. One copy, so the two wires cannot drift.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace ygm::transport {

/// Seconds a rank waits for the rest of the world to rendezvous.
inline constexpr double handshake_timeout_s = 30.0;

/// Seconds on the monotonic clock: what wtime() and the rendezvous and
/// teardown deadlines count in.
inline double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class frame_kind : std::uint32_t {
  hello = 1,  ///< socket handshake: src names the connecting rank
  data = 2,   ///< one envelope (shm: payload inline behind the header)
  abort = 3,  ///< socket: the sender's world is poisoned; poison yours
  fin = 4,    ///< socket: orderly end-of-stream, nothing more follows
  spill = 5,  ///< shm: header in the main ring, payload via the spill ring
};

constexpr std::uint32_t kind_bit(frame_kind k) noexcept {
  return std::uint32_t{1} << static_cast<std::uint32_t>(k);
}

/// The framed header, byte-identical on both wires. Every field arrives
/// from another process, so check_frame vets it before any use.
struct wire_header {
  std::uint32_t kind = 0;
  std::uint32_t payload_len = 0;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint64_t ctx = 0;
};
static_assert(sizeof(wire_header) == 24, "framed header layout is the ABI");

/// What one backend accepts on an established channel.
struct frame_rules {
  std::uint32_t kinds = 0;  ///< kind_bit() of every accepted kind
  /// Largest payload a data frame may carry; a spill frame must carry more.
  std::size_t inline_max = std::numeric_limits<std::uint32_t>::max();
};

/// Vet a header that arrived from world rank `peer` before any of its
/// fields is used: the kind must be one `rules` accepts, control frames
/// (hello, abort, fin) carry no payload, a data frame fits inline_max and
/// is whole within `readable` (the frame bytes already readable, header
/// included; a stream wire passes SIZE_MAX), and a spill frame exceeds
/// inline_max. Throws ygm::error naming the peer otherwise.
void check_frame(const wire_header& h, const frame_rules& rules, int peer,
                 std::size_t readable);

}  // namespace ygm::transport
