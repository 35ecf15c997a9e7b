// Backend #3: one OS process per rank over shared-memory SPSC rings.
//
// Topology: full mesh of bounded byte rings. Each rank owns ONE shm_open
// segment named "/<token>.r<rank>" (token = basename of the rendezvous
// directory) holding every ring INBOUND to it: a pair_block per producer
// rank with a main ring (whole frames, header + payload published with one
// release store) and a spill ring (payload bytes of frames too large to
// inline). A rank therefore maps nranks segments — its own as the consumer,
// every peer's as a producer — and rendezvous is pure filesystem: the
// creator sizes and initializes its segment then release-stores a magic
// word; openers retry shm_open/fstat until the segment exists at full size
// and the magic is visible, under the same handshake deadline as the socket
// backend.
//
// Wire format: the frame header {kind, payload_len, src, tag, ctx} is
// byte-identical to the socket backend's. A payload at or under
// inline_payload_max rides in the main ring behind its header, staged
// together and published with a single release store — the consumer can
// trust any visible header (sizes never tear) and the whole frame is
// readable the moment the header is. Larger payloads put a spill-kind
// header in the main ring and stream their bytes through the spill ring in
// chunks; pooled packet buffers from the PR 5 hot path are the memcpy
// source and destination on the two sides, so bytes cross the process
// boundary exactly once, with no intermediate serialization or staging
// copy.
//
// Idle ranks park on futexes instead of spinning: a consumer with nothing
// readable publishes a parked flag and waits (bounded) on its segment's
// recv doorbell, which producers bump after publishing; a producer blocked
// on a full ring parks the same way on the ring's space doorbell, which the
// consumer bumps after freeing room. Waits are bounded (lost-wake
// insurance) and every loop re-checks the abort flag, so a crashed peer
// costs latency, never liveness.
//
// Backpressure: the ring's fixed capacity is the hard bound — a producer
// that cannot fit a frame stalls (pumping its own inbound rings meanwhile,
// so two mutually-flooding ranks drain each other instead of deadlocking),
// and transport::outq_cap_bytes() is additionally honoured when it is
// tighter than the ring, mirroring the socket backend's accept rule.
//
// The receive side shares mail_slot with the other backends: the pump
// delivers completed frames into the slot, so all matching/chaos semantics
// come from the one engine and a chaos seed reproduces the same fault
// pattern on any backend.
//
// Failure: abort_world sets an aborted flag in every mapped segment and
// bumps every doorbell; peers notice on their next pump or park and poison
// their slots. A peer that dies without fin leaves its segment behind —
// the launcher's post_reap sweep shm_unlinks every "/<token>.r<i>" after
// reaping children, so abnormal exits cannot leak /dev/shm space.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "transport/chaos.hpp"
#include "transport/endpoint.hpp"
#include "transport/mail_slot.hpp"
#include "transport/shm/spsc_ring.hpp"

namespace ygm::transport::shm {

/// Main-ring capacity per pair (power of two). Frames up to
/// inline_payload_max + header must fit with room to spare.
inline constexpr std::size_t main_ring_bytes = 256 * 1024;
/// Spill-ring capacity per pair (power of two); payloads larger than the
/// ring still pass — they stream through in chunks.
inline constexpr std::size_t spill_ring_bytes = 256 * 1024;
/// Largest payload carried inline in the main ring.
inline constexpr std::size_t inline_payload_max = 16 * 1024;

/// Head of every segment. magic is release-stored LAST by the creator, so
/// an opener that acquire-loads it sees a fully initialized layout.
struct alignas(cache_line) seg_header {
  std::atomic<std::uint32_t> magic;
  std::uint32_t nranks;
  std::atomic<std::uint32_t> aborted;
  /// Doorbell the owning (consumer) rank parks on; every producer bumps it
  /// after publishing into any of this segment's rings.
  std::atomic<std::uint32_t> recv_seq;
  std::atomic<std::uint32_t> recv_parked;
};
static_assert(sizeof(seg_header) == cache_line);

/// One producer rank's lane into a segment: control + data for the main
/// and spill rings. Fixed-size so the segment layout is plain indexing.
struct alignas(cache_line) pair_block {
  ring_ctrl main_ctrl;
  ring_ctrl spill_ctrl;
  std::byte main_data[main_ring_bytes];
  std::byte spill_data[spill_ring_bytes];
};

inline constexpr std::uint32_t seg_magic = 0x79676d73;  // "ygms"

/// Segment byte size for a world of nranks (a pair_block per producer;
/// the self slot is unused but keeps indexing trivial).
constexpr std::size_t segment_bytes(int nranks) {
  return sizeof(seg_header) +
         static_cast<std::size_t>(nranks) * sizeof(pair_block);
}

/// "/<token>.r<rank>" — the shm_open name of one rank's inbound segment,
/// where token is the basename of the rendezvous directory. Exposed so the
/// launcher's orphan sweep and tests can reconstruct names.
std::string segment_name(const std::string& dir, int rank);

class endpoint final : public transport::endpoint {
 public:
  /// Rendezvous under `dir` (every rank of the world passes the same
  /// directory): create this rank's segment, then map every peer's. Blocks
  /// until all segments are up or `handshake_timeout_s` elapses. `chaos`
  /// installs fault injection on the receive slot (nullptr: none).
  endpoint(const std::string& dir, int rank, int nranks,
           const chaos_config* chaos);
  ~endpoint() override;

  backend_kind kind() const noexcept override { return backend_kind::shm; }
  int world_rank() const noexcept override { return rank_; }
  int world_size() const noexcept override { return nranks_; }

  transport::channel& peer(int dest) override;

  envelope recv_match(int src, int tag, std::uint64_t ctx) override;
  std::optional<envelope> try_recv_match(int src, int tag,
                                         std::uint64_t ctx) override;
  std::optional<status> iprobe(int src, int tag, std::uint64_t ctx) override;
  status probe(int src, int tag, std::uint64_t ctx) override;
  std::size_t pending() override;

  double wtime() const override;
  void abort_world() override;

  /// Engine-donated progress: try-lock the I/O mutex (never block the rank
  /// mid-operation) and drain inbound rings; reports whether bytes moved.
  bool progress_hook() override;

  /// Seconds a rank will wait for the rest of the world to rendezvous.
  static constexpr double handshake_timeout_s = 30.0;

 private:
  enum class frame_kind : std::uint32_t {
    data = 2,   ///< header + payload inline in the main ring
    spill = 5,  ///< header in the main ring; payload streams via spill ring
  };

  // Byte-identical to socket::endpoint::wire_header — the framed-header
  // layout is the ABI shared by the process-per-rank backends.
  struct wire_header {
    std::uint32_t kind = 0;
    std::uint32_t payload_len = 0;
    std::int32_t src = 0;
    std::int32_t tag = 0;
    std::uint64_t ctx = 0;
  };
  static_assert(sizeof(wire_header) == 24, "framed header layout is the ABI");

  /// One mapped segment (own or a peer's).
  struct segment {
    void* base = nullptr;
    std::size_t bytes = 0;
    seg_header* hdr = nullptr;
  };

  /// Producer-side view of the pair of rings toward one peer.
  struct out_pair {
    ring_view main;
    ring_view spill;
    bool fin_sent = false;
  };

  /// Consumer-side view of one inbound pair, plus spill reassembly state:
  /// the pump never blocks mid-frame, so a partially-streamed spill payload
  /// parks here between passes.
  struct in_pair {
    ring_view main;
    ring_view spill;
    bool have_spill_hdr = false;
    wire_header spill_hdr{};
    std::vector<std::byte> spill_payload;
    std::size_t spill_got = 0;
    bool fin_seen = false;
  };

  class peer_channel final : public transport::channel {
   public:
    peer_channel() = default;
    peer_channel(endpoint* ep, int dest) : ep_(ep), dest_(dest) {}
    void post(envelope&& e) override { ep_->post_to_peer(dest_, std::move(e)); }

   private:
    endpoint* ep_ = nullptr;
    int dest_ = 0;
  };

  void post_to_peer(int dest, envelope&& e);

  /// Drain every inbound ring into the slot (strictly nonblocking).
  /// Returns true if any bytes were consumed.
  bool pump_inbound();
  bool pump_pair(int src, in_pair& p);

  /// Park until this rank's recv doorbell rings or ~timeout_us elapses,
  /// Dekker-checked against the inbound rings so a concurrent publish is
  /// never slept through.
  void park_for_inbound(std::uint32_t timeout_us);

  /// Ring the recv doorbell of `dest`'s segment if its owner is parked.
  void ding_peer(int dest);

  /// Wait (bounded park) for free space on a ring toward `dest`; pumps
  /// own inbound each pass and honours abort. Returns false on abort.
  bool wait_for_space(int dest, ring_view& ring, std::size_t need);

  void handshake(const std::string& dir, const chaos_config* chaos);
  void mark_aborted_locked();
  bool world_marked_aborted() const;
  bool all_peers_silent() const;
  void publish_outq_gauge() const;

  seg_header* own_hdr() const {
    return segments_[static_cast<std::size_t>(rank_)].hdr;
  }

  int rank_ = 0;
  int nranks_ = 1;
  std::string seg_name_;  ///< own segment's shm name (for unlink)
  /// Serializes all ring-touching state between the owning rank thread and
  /// the progress engine, same discipline as the socket backend: blocking
  /// operations lock per pump iteration (with short park timeouts) so the
  /// engine's posts are never starved for long; the engine only try-locks.
  std::mutex io_mtx_;
  mail_slot slot_;
  std::vector<segment> segments_;  // indexed by world rank
  std::vector<out_pair> out_;      // toward each peer; self unused
  std::vector<in_pair> in_;        // from each peer; self unused
  std::vector<peer_channel> channels_;
  double epoch_wtime_ = 0;  // CLOCK_MONOTONIC seconds at setup
  bool aborted_ = false;
  // ring-level counters, published with the endpoint stats at teardown
  std::uint64_t ring_tx_bytes_ = 0;
  std::uint64_t ring_rx_bytes_ = 0;
  std::uint64_t spill_tx_bytes_ = 0;
  std::uint64_t spill_rx_bytes_ = 0;
  std::uint64_t ring_full_stalls_ = 0;  ///< posts that waited for ring space
  std::uint64_t outq_stalls_ = 0;       ///< posts that hit outq_cap_bytes
  std::uint64_t outq_peak_bytes_ = 0;   ///< high-water in-flight ring bytes
  std::uint64_t futex_parks_ = 0;       ///< times this rank actually parked
};

}  // namespace ygm::transport::shm
