// The transport substrate interface: what mail_slot, comm, and the runtime
// need from a communication backend, and nothing more.
//
// One `endpoint` object per rank per run. It owns the rank's receive side
// (a mail_slot matching engine) and a per-peer send `channel` for every
// other rank. The contract (docs/TRANSPORT.md):
//
//   * post() is eager but *bounded*: the payload is framed and either
//     delivered (inproc) or queued on the peer channel (socket). Each
//     channel enforces an outbound byte cap (outq_cap_bytes(), YGM_OUTQ_CAP
//     _BYTES, 0 disables): at the cap the socket backend blocks acceptance
//     until the wire drains (pumping its own receive side meanwhile, so two
//     mutually-flooding ranks cannot deadlock), and the inproc backend
//     applies a bounded wait on the destination slot's queued bytes. The
//     payload vector is taken by value and recycled through
//     core::buffer_pool when the bytes are off this rank's hands, so the
//     zero-copy packet discipline survives the seam.
//   * per-(source, context) delivery order is FIFO (MPI non-overtaking);
//     cross-source order is unspecified.
//   * recv/probe semantics are mail_slot's, chaos hooks included: both
//     backends share the engine, so a chaos seed reproduces the same fault
//     pattern on either.
//   * collective hooks (barrier, allreduce_sum) exist so a backend with a
//     native collective fabric can override them; the defaults run
//     dissemination/binomial algorithms over post/recv on a caller-supplied
//     context + tag block. comm::barrier and the termination detector's
//     global sum delegate here.
//
// Backends today: transport/inproc/ (threads as ranks, one process),
// transport/socket/ (one process per rank over Unix-domain sockets), and
// transport/shm/ (one process per rank over shared-memory SPSC rings).
// Selection is a runtime choice: mpisim::run takes a backend argument and
// defaults to the YGM_TRANSPORT environment variable.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "transport/envelope.hpp"
#include "transport/types.hpp"

namespace ygm::transport {

enum class backend_kind {
  inproc,  ///< threads as ranks inside one process (the original simulator)
  socket,  ///< one OS process per rank over Unix-domain sockets
  shm,     ///< one OS process per rank over shared-memory SPSC rings
};

std::string_view to_string(backend_kind k) noexcept;

/// Parse a backend name ("inproc" | "socket" | "shm"); nullopt on anything
/// else.
std::optional<backend_kind> backend_from_name(std::string_view name) noexcept;

/// The backend named by YGM_TRANSPORT, defaulting to inproc when the
/// variable is unset or empty. Throws ygm::error on an unknown name (a typo
/// silently falling back to inproc would fake multi-process coverage).
backend_kind backend_from_env();

/// Channel-level outbound byte cap, the transport-layer floor under the
/// mailbox credit budget (docs/BACKPRESSURE.md). Resolution: launch
/// override (run_options::outq_cap_bytes via set_outq_cap_bytes) >
/// YGM_OUTQ_CAP_BYTES > 4 MiB default; 0 disables the cap and restores the
/// historical unbounded-queue behaviour.
std::size_t outq_cap_bytes() noexcept;

/// Override the cap process-wide (launch plumbing; set before worlds come
/// up so forked socket children inherit it).
void set_outq_cap_bytes(std::size_t cap) noexcept;

/// One rank's view of the path toward one peer. post() frames the envelope
/// and moves it toward the peer's mail_slot. It is eager below the
/// channel's outbound cap; at the cap a slow peer stalls the caller
/// (bounded-memory semantics — see outq_cap_bytes()) instead of growing
/// the queue without bound.
class channel {
 public:
  virtual ~channel() = default;
  virtual void post(envelope&& e) = 0;
};

/// Per-endpoint transport counters, published into the owning rank's
/// telemetry lane at endpoint teardown under "transport.<backend>.*" (plus
/// the slot's probe counters — see mail_slot::probe_stats). Backends may
/// extend the set (the socket backend adds wire.* counters). Atomic
/// (relaxed — they are counters, not synchronization) because the progress
/// engine posts through the same endpoint rank threads post through.
struct endpoint_stats {
  std::atomic<std::uint64_t> posts{0};  ///< envelopes posted (self included)
  std::atomic<std::uint64_t> post_bytes{0};  ///< payload bytes posted
};

class endpoint {
 public:
  virtual ~endpoint() = default;

  virtual backend_kind kind() const noexcept = 0;
  virtual int world_rank() const noexcept = 0;
  virtual int world_size() const noexcept = 0;

  /// The send channel toward `dest` (world rank; dest == world_rank() is
  /// valid and loops back into this rank's own slot).
  virtual channel& peer(int dest) = 0;

  /// Convenience: frame-and-send toward a world rank, with stats.
  void post(int dest, envelope&& e);

  // ------------------------------------------------- receive side (own slot)
  //
  // src is a *group* rank as stored in envelope::src (or any_source); the
  // endpoint only matches, it does not translate ranks.

  /// Blocking matched receive; throws ygm::error once the world aborts.
  virtual envelope recv_match(int src, int tag, std::uint64_t ctx) = 0;
  virtual std::optional<envelope> try_recv_match(int src, int tag,
                                                 std::uint64_t ctx) = 0;
  /// Nonblocking probe; the one operation chaos may turn into a false
  /// negative.
  virtual std::optional<status> iprobe(int src, int tag, std::uint64_t ctx) = 0;
  /// Blocking probe (miss-immune, like recv).
  virtual status probe(int src, int tag, std::uint64_t ctx) = 0;
  /// Queued unreceived messages on this rank, across all contexts.
  virtual std::size_t pending() = 0;

  // ------------------------------------------------------------ world hooks

  /// Seconds since this world's transport came up (MPI_Wtime deltas).
  virtual double wtime() const = 0;

  /// Poison the world: every rank blocked in transport wakes with
  /// ygm::error. Called when a rank function throws so the rest of the
  /// world does not deadlock.
  virtual void abort_world() = 0;

  /// Donated progress: called from the progress engine thread while ranks
  /// compute. A backend with wire state to service (the socket backend's
  /// send queues and receive pump) overrides this to advance it without
  /// blocking; returns true if any bytes moved. The default no-op is
  /// correct for backends whose post() completes delivery synchronously
  /// (inproc). Overrides MUST be safe to call concurrently with the owning
  /// rank's own endpoint calls — try-lock and bail beats blocking the rank.
  virtual bool progress_hook() { return false; }

  // ------------------------------------------------------- collective hooks
  //
  // `members` maps group rank -> world rank, `me` is this rank's group
  // rank; rounds use tags base_tag .. base_tag+63 on context `ctx` (the
  // caller's collective plane). Defaults below are backend-agnostic p2p
  // algorithms; a backend with a native fabric may override.

  /// Dissemination barrier, O(log P) rounds.
  virtual void barrier(const std::vector<int>& members, int me,
                       std::uint64_t ctx, int base_tag);

  /// Binomial reduce-to-zero plus broadcast of a u64 sum (the shape the
  /// termination detector's global counter exchange needs).
  virtual std::uint64_t allreduce_sum(std::uint64_t v,
                                      const std::vector<int>& members, int me,
                                      std::uint64_t ctx, int base_tag);

 protected:
  endpoint_stats stats_;

  /// Fold stats_ + the slot's probe counters into this thread's telemetry
  /// lane under "transport.<backend>." — backends call this from their
  /// destructor, on the rank's own thread, before the rank lane unbinds.
  void publish_stats(std::uint64_t iprobe_calls, std::uint64_t iprobe_draws,
                     std::uint64_t iprobe_misses) const;
};

}  // namespace ygm::transport
