// Causal message tracing: sampled cross-rank journeys.
//
// The mailbox layers answer "how much traffic?" through counters and "where
// did this RANK's time go?" through spans, but neither can answer "why did
// THIS message take three rounds to arrive?". This layer closes that gap
// with distributed-tracing-style causality: a deterministic sample of
// point-to-point messages carries a compact 24-byte trace context on the
// packet wire format (core/packet.hpp's trace-annotation escape record),
// and every stage of a sampled message's life — enqueue into a coalescing
// buffer, the coalesced flush that put it on the wire, each intermediary
// forward at a NL/NR/NLNR relay, and the final delivery callback —
// appends a hop event to the recording rank's existing telemetry event
// ring. An offline pass (telemetry/journey.hpp, the
// tools/ygm_trace CLI) stitches hop events back into complete journeys and
// decomposes per-message latency by hop kind and routing stage.
//
// Costs, by construction:
//   * sampling off (rate 0, the default) — one predicted branch per send
//     and per received record; zero wire bytes; nothing recorded;
//   * sampling on, message not sampled — same as off (the decision is a
//     stateless hash of (origin, seq), no RNG state, no allocation);
//   * message sampled — one escape record (~30 wire bytes) per hop leg and
//     one 64-byte ring event per hop.
// Under -DYGM_TELEMETRY=OFF every hot-path helper here compiles to nothing,
// like the rest of the telemetry hooks.
//
// Journey shape (point-to-point; broadcasts are never sampled, so a journey
// is a chain, not a tree):
//
//   origin:  enqueue(hop=0)  flush(hop=0, dur=buffer residency)
//   relay:   forward(hop=k)  enqueue(hop=k)  flush(hop=k, dur=residency)
//   dest:    deliver(hop=L)  — exactly one per journey, L = leg count
//
// where hop counts completed network legs (incremented on receipt), so the
// deliver event's hop index equals router::path(origin, dest).size().
//
// Also here: the stall watchdog. wait_empty() polls one per iteration; if
// no quiescence progress (hops or detector rounds) happens for a
// configurable window, the first stalled rank dumps a flight-recorder
// postmortem — per-rank ring tails, in-flight sampled journeys with their
// last-seen hop, queue depth and detector state of the stalled rank — as
// JSON to a file and a summary to stderr, then the run keeps waiting (the
// watchdog observes, it does not abort).
#pragma once

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/knobs.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::telemetry::causal {

// ------------------------------------------------------- wire trace context

/// The 24 bytes a sampled message carries across every hop.
struct wire_ctx {
  std::uint64_t id = 0;     ///< 48-bit journey id (exact in a JSON double)
  std::uint16_t origin = 0; ///< originating rank
  std::uint16_t hop = 0;    ///< network legs completed so far
  std::uint32_t seq = 0;    ///< origin-local send sequence number
  /// Session-clock timestamp of the origin send() (microseconds), stamped
  /// by try_begin. Rides the wire so the delivering rank can feed live
  /// end-to-end latency sketches (live.hpp) without journey stitching.
  /// Comparable across ranks: inproc lanes share one session clock, and
  /// socket children inherit the pre-fork session epoch (CLOCK_MONOTONIC
  /// is system-wide). 0 when the origin thread had no lane clock.
  double origin_us = 0;
};

inline constexpr std::size_t wire_ctx_bytes = 24;

/// Serialize/deserialize the fixed 24-byte wire layout (field-wise copies,
/// so the encode and decode sides agree independent of struct padding).
void encode_wire(const wire_ctx& c, std::vector<std::byte>& out);
wire_ctx decode_wire(std::span<const std::byte> in);

// ----------------------------------------------------------------- sampling

namespace detail {
/// Sampling threshold: a message is sampled iff hash <= threshold - 1.
/// 0 means sampling is off. One load of trace_sample's threshold; the
/// mailbox's world resolved the knob table when it was built.
inline std::uint64_t sample_threshold() noexcept {
  return knob::num_unchecked(knob::id::trace_sample);
}
/// splitmix64-based decision hash of (origin, seq, salt).
std::uint64_t journey_hash(int origin, std::uint32_t seq,
                           std::uint32_t salt) noexcept;
}  // namespace detail

/// Hot-path sampling decision for one outgoing point-to-point message.
/// Returns true (and fills `out`) iff the (origin, seq) pair is sampled
/// under the current rate AND this thread records into a telemetry lane.
/// `salt` distinguishes journeys of different mailboxes on one world (pass
/// the mailbox's data tag); the decision stays deterministic per run.
inline bool try_begin(int origin, std::uint32_t seq, std::uint32_t salt,
                      wire_ctx& out) noexcept {
#if defined(YGM_TELEMETRY_DISABLED)
  (void)origin;
  (void)seq;
  (void)salt;
  (void)out;
  return false;
#else
  const std::uint64_t threshold = detail::sample_threshold();
  if (threshold == 0 || tls() == nullptr) return false;
  const std::uint64_t h = detail::journey_hash(origin, seq, salt);
  if (h > threshold - 1) return false;
  out.id = h >> 16;  // 48 bits: exactly representable in a JSON double
  out.origin = static_cast<std::uint16_t>(origin);
  out.hop = 0;
  out.seq = seq;
  out.origin_us = now_us();  // live e2e latency base (tls() checked above)
  return true;
#endif
}

// --------------------------------------------------------------- hop events

enum class hop_kind : std::uint8_t {
  enqueue,  ///< message entered a coalescing buffer (origin or relay)
  flush,    ///< the coalesced flush that shipped it; dur = buffer residency
  forward,  ///< relay re-queue decision at an intermediary
  deliver,  ///< final receive-callback invocation (exactly one per journey)
  credit_stall,  ///< send blocked on exhausted credit ("credit.stall");
                 ///< NOT part of any journey — stitching skips it
};

/// Ring-event name for a hop kind ("trace.enqueue", "trace.flush", ...).
std::string_view hop_event_name(hop_kind k) noexcept;
/// Inverse of hop_event_name; false if `name` is not a hop event.
bool parse_hop_event_name(std::string_view name, hop_kind& out) noexcept;

/// Hop events pack (hop index, payload-or-packet bytes) into one integer
/// arg so the 64-byte ring event holds the whole hop: low 8 bits hop index,
/// upper bits the byte count (clamped to 2^40-1 so the packed value stays
/// below 2^48 and survives a JSON double round trip).
inline constexpr std::uint64_t pack_hop_bytes(std::uint32_t hop,
                                              std::uint64_t bytes) noexcept {
  const std::uint64_t b =
      bytes < (std::uint64_t{1} << 40) ? bytes : (std::uint64_t{1} << 40) - 1;
  return (b << 8) | (hop & 0xffu);
}
inline constexpr std::uint32_t unpack_hop(std::uint64_t packed) noexcept {
  return static_cast<std::uint32_t>(packed & 0xffu);
}
inline constexpr std::uint64_t unpack_bytes(std::uint64_t packed) noexcept {
  return packed >> 8;
}

/// Record one hop of a sampled journey on this thread's lane. When
/// `start_us` >= 0 the hop is a complete event spanning [start_us, now]
/// (queue residency); when negative it is an instant at now. `bytes` is the
/// payload size (enqueue/forward/deliver) or the wire packet size the
/// record rode in (flush). No-op without a recorder.
#if defined(YGM_TELEMETRY_DISABLED)
inline void record_hop(const wire_ctx&, hop_kind, double,
                       std::uint64_t) noexcept {}
#else
void record_hop(const wire_ctx& c, hop_kind k, double start_us,
                std::uint64_t bytes) noexcept;
#endif

/// Record one credit-stall ("credit.stall") complete event spanning
/// [start_us, now] on this thread's lane: a send blocked until flow-control
/// credit returned. `dest` rides in the `id` arg and the unacked byte count
/// in `hb`, so ygm_trace can attribute queue residency to backpressure per
/// destination. Gated only on having a recorder, not on sampling — stalls
/// are rare and always worth keeping. No-op without a recorder.
#if defined(YGM_TELEMETRY_DISABLED)
inline void record_credit_stall(int, double, std::uint64_t) noexcept {}
#else
void record_credit_stall(int dest, double start_us,
                         std::uint64_t bytes) noexcept;
#endif

// ----------------------------------------------------------- stall watchdog

/// The postmortem fires at most once per *stall episode* (the first stalled
/// rank wins; a wedged detector stalls every rank at once and one dump is
/// worth more than eight interleaved ones). The dedup latch re-arms when
/// the dumping watchdog sees progress resume or its wait completes (a
/// successful drain), so a second stall later in a long run is captured
/// too. postmortem_fired() is sticky — true once any dump happened since
/// the last reset — so callers can check it after the episode is over.
/// Tests reset the latch between runs.
void reset_postmortem_latch() noexcept;
bool postmortem_fired() noexcept;

/// Progress snapshot a waiting rank reports to its watchdog each poll.
/// The credit fields are zero for callers predating flow control (all
/// fields are defaulted, so old brace-initializers keep compiling).
struct stall_report {
  std::uint64_t hops_sent = 0;
  std::uint64_t hops_received = 0;
  std::uint64_t term_rounds = 0;
  std::uint64_t queued_bytes = 0;
  std::uint64_t credit_budget = 0;     ///< effective budget/dest (0 = off)
  std::uint64_t credit_in_flight = 0;  ///< max unacked bytes to any dest
  std::uint64_t credit_stalls = 0;     ///< sends blocked on credit so far
};

/// Per-wait_empty watchdog: arm on construction, poll() once per wait
/// iteration. If the progress signature (hops + detector rounds) does not
/// change for the configured window, dumps the flight-recorder postmortem;
/// when progress resumes it re-arms, so every distinct stall in the wait is
/// observed (the process latch still dedups concurrent ranks). Costs one
/// branch per poll when disabled.
class stall_watchdog {
 public:
  stall_watchdog();
  ~stall_watchdog();

  stall_watchdog(const stall_watchdog&) = delete;
  stall_watchdog& operator=(const stall_watchdog&) = delete;

  void poll(const stall_report& r) noexcept {
#if !defined(YGM_TELEMETRY_DISABLED)
    if (timeout_ms_ <= 0) return;
    poll_slow(r);
#else
    (void)r;
#endif
  }

 private:
  void poll_slow(const stall_report& r) noexcept;

  double timeout_ms_ = 0;
  std::uint64_t last_sig_ = ~std::uint64_t{0};
  std::chrono::steady_clock::time_point last_change_{};
  bool fired_ = false;   ///< current stall episode already reported
  bool dumped_ = false;  ///< this object holds the process postmortem latch
};

/// Write the flight-recorder postmortem for a stall observed on the calling
/// thread's lane: stalled-rank state, per-lane ring tails, and in-flight
/// sampled journeys with their last-seen hop. Returns false if the JSON
/// file could not be written (the stderr summary is always attempted).
/// Exposed for tests and for drivers that detect wedges by other means.
bool dump_postmortem(const stall_report& r, double stalled_ms,
                     const std::string& path);

}  // namespace ygm::telemetry::causal
