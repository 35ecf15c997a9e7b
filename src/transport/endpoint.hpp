// The transport substrate interface: what mail_slot, comm, and the runtime
// need from a communication backend, and nothing more.
//
// One `endpoint` object per rank per run. It owns the rank's receive side
// (a mail_slot matching engine) and is the rank's one way to send. The
// contract (docs/TRANSPORT.md):
//
//   * post() is eager but *bounded*: the payload is framed and either
//     delivered (inproc) or queued toward the peer (socket, shm). Each
//     backend enforces an outbound byte cap per peer (outq_cap_bytes(),
//     YGM_OUTQ_CAP_BYTES, 0 disables): at the cap the process backends
//     block acceptance until the wire drains (pumping their own receive
//     side meanwhile, so two mutually-flooding ranks cannot deadlock), and
//     the inproc backend applies a bounded wait on the destination slot's
//     queued bytes. The payload vector is taken by value and recycled
//     through core::buffer_pool when the bytes are off this rank's hands,
//     so the zero-copy packet discipline survives the seam.
//   * per-(source, context) delivery order is FIFO (MPI non-overtaking);
//     cross-source order is unspecified.
//   * recv/probe semantics are mail_slot's, chaos hooks included, and the
//     receive path over the slot is written once, here: every backend
//     shares it, so a chaos seed reproduces the same fault pattern on any
//     of them.
//
// A backend supplies only its wire: send() toward a peer, and three
// receive-side hooks — a nonblocking pump(), a bounded wait(), and
// peers_silent() — that the shared receive loop drives.
//
// Backends today: transport/inproc/ (threads as ranks, one process),
// transport/socket/ (one process per rank over Unix-domain sockets), and
// transport/shm/ (one process per rank over shared-memory SPSC rings).
// Selection is a runtime choice: ygm::run_options::backend, defaulting to
// the YGM_TRANSPORT environment variable.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>

#include "transport/chaos.hpp"
#include "transport/envelope.hpp"
#include "transport/mail_slot.hpp"
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
  virtual ~endpoint();

  backend_kind kind() const noexcept { return kind_; }
  int world_rank() const noexcept { return rank_; }
  int world_size() const noexcept { return nranks_; }

  /// Frame-and-send toward a world rank, with stats. dest == world_rank()
  /// loops back into this rank's own slot; any other dest goes out over
  /// the backend's send(). Eager below the outbound cap; at the cap a slow
  /// peer stalls the caller (bounded-memory semantics — see
  /// outq_cap_bytes()) instead of growing a queue without bound.
  void post(int dest, envelope&& e);

  // ------------------------------------------------- receive side (own slot)
  //
  // src is a *group* rank as stored in envelope::src (or any_source); the
  // endpoint only matches, it does not translate ranks.

  /// Blocking matched receive; throws ygm::error once the world aborts, or
  /// when every peer has finished and no matching message can arrive.
  envelope recv_match(int src, int tag, std::uint64_t ctx);
  std::optional<envelope> try_recv_match(int src, int tag, std::uint64_t ctx);
  /// Nonblocking probe; the one operation chaos may turn into a false
  /// negative.
  std::optional<status> iprobe(int src, int tag, std::uint64_t ctx);
  /// Blocking probe (miss-immune, like recv).
  status probe(int src, int tag, std::uint64_t ctx);

  // ------------------------------------------------------------ world hooks

  /// Seconds since this world's transport came up (MPI_Wtime deltas).
  double wtime() const;

  /// Poison the world: every rank blocked in transport wakes with
  /// ygm::error. Called when a rank function throws so the rest of the
  /// world does not deadlock.
  virtual void abort_world() = 0;

  /// Donated progress: called from the progress engine thread while ranks
  /// compute. Try-locks the wire (never blocking the owning rank
  /// mid-operation) and runs one pump(); returns true if any bytes moved.
  /// A backend without a wire (inproc: senders deliver straight into the
  /// slot) has nothing to pump and returns false at once.
  bool progress_hook();

 protected:
  /// A backend whose senders deliver straight into `shared` (a slot they
  /// can all reach): no wire, so the receive path never pumps or locks.
  endpoint(backend_kind kind, int rank, int nranks, mail_slot& shared);
  /// A backend with a wire: the endpoint owns its rank's slot, with
  /// `chaos` (nullptr: none) installed before any traffic flows.
  endpoint(backend_kind kind, int rank, int nranks, const chaos_config* chaos);

  // ------------------------------------------ what a backend implements

  /// Move `e` toward peer `dest` (never this rank; post() loops those
  /// back). Called WITHOUT io_mtx_ held; a backend with a wire takes it.
  virtual void send(int dest, envelope&& e) = 0;

  /// Nonblocking: move wire bytes and deliver completed frames into the
  /// slot; true if anything moved. Called with io_mtx_ held, and only on a
  /// backend with a wire.
  virtual bool pump() { return false; }

  /// Wait for inbound activity after a failed match. `m.delayed`: a
  /// matching message is chaos-delayed, so return soon to age it; `m.seq`:
  /// the delivery count the match saw. On a backend with a wire: io_mtx_
  /// held, and the wait is bounded so the loop pumps and re-checks
  /// peers_silent().
  virtual void wait(const mail_slot::miss& m) = 0;

  /// True when no peer can ever deliver another message: a blocked receive
  /// is then a deadlock, not a wait. io_mtx_ held, wire backends only.
  virtual bool peers_silent() const { return false; }

  const backend_kind kind_;
  const int rank_;
  const int nranks_;
  mail_slot* slot_ = nullptr;  ///< this rank's receive side
  const bool has_wire_;
  /// Serializes all wire state between the owning rank thread and the
  /// progress engine. Blocking operations hold it per pump interval (with
  /// short wait bounds) so the engine's posts are never starved for long;
  /// the engine itself only ever try-locks (progress_hook). The slot stays
  /// internally synchronized.
  std::mutex io_mtx_;
  /// Zero point of wtime(); a backend resets it once its world is up.
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  endpoint_stats stats_;

 private:
  /// pump() under io_mtx_, remembering the first wire error so the rank
  /// sees it even when the engine's pump hit it first.
  bool pump_wire();
  /// One blocked step after a failed match: check for a world that can no
  /// longer deliver, pump, else wait(). Returns early on fresh arrivals.
  void await(const mail_slot::miss& m, const char* op);

  std::unique_ptr<mail_slot> own_slot_;  ///< wire backends only
  std::exception_ptr wire_error_;
};

}  // namespace ygm::transport
