// Per-rank incoming-message queue with MPI-style matching.
//
// This is the matching engine every transport backend shares: the inproc
// backend delivers into it from sender threads, the socket and shm backends
// deliver into it from their wire pumps as frames complete. Keeping one
// engine keeps the matching semantics — and the chaos fault patterns, which
// hash from slot-local state — bitwise identical across backends. The slot
// itself never blocks a receiver: the blocking receive loop is written
// once, in transport::endpoint, over take/peek and wait_delivery.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "transport/chaos.hpp"
#include "transport/envelope.hpp"
#include "transport/types.hpp"

namespace ygm::transport {

/// One rank's incoming mailbox. Senders call deliver(); the owning rank
/// matches messages by (source, tag, context), with any_source/any_tag
/// wildcards. Matching scans the queue in arrival order, which preserves
/// MPI's non-overtaking guarantee per (source, context): messages from one
/// sender are delivered in the order they were sent.
///
/// With a chaos config installed (configure_chaos), the slot additionally
/// injects MPI-legal adversity: arriving messages may stay invisible to
/// matching for a bounded number of this rank's matching operations
/// (per-source order preserved, cross-source order scrambled), iprobe may
/// report false negatives a bounded number of times in a row, and messaging
/// operations may stall briefly. All decisions are hashes of
/// (seed, rank, source, context, stream index), so a seed reproduces the
/// same fault pattern for the same message streams.
///
/// abort() poisons the slot so that a rank blocked in recv/probe wakes up
/// and throws instead of deadlocking when another rank dies with an
/// exception.
class mail_slot {
 public:
  /// Enqueue a message (called by sender threads or the backend's wire
  /// pump).
  void deliver(envelope&& e);

  /// Why a take or peek came back empty: whether a matching message
  /// exists that is merely chaos-delayed (a blocked receiver then retries
  /// promptly, ageing the delay), and the delivery count the match saw (the
  /// key a blocked receiver hands to wait_delivery, so a delivery that
  /// lands after the failed match is never slept through).
  struct miss {
    bool delayed = false;
    std::uint64_t seq = 0;
  };

  /// Nonblocking matched receive; removes and returns the first visible
  /// match. `m`, when non-null, describes an empty result.
  std::optional<envelope> take(int src, int tag, std::uint64_t ctx,
                               miss* m = nullptr);

  /// Nonblocking peek at the first visible match, never a chaos miss (the
  /// building block of the *blocking* probe, which must be miss-immune
  /// just like recv). `m` as in take().
  std::optional<status> peek(int src, int tag, std::uint64_t ctx,
                             miss* m = nullptr);

  /// iprobe's peek: like peek(), but under chaos this is the only operation
  /// allowed to lie (bounded false negatives).
  std::optional<status> peek_may_miss(int src, int tag, std::uint64_t ctx);

  /// Wait until a delivery moves the count past `seen` (a miss::seq) or
  /// the slot is aborted.
  void wait_delivery(std::uint64_t seen);
  /// As above, but return after `bound` at the latest.
  void wait_delivery(std::uint64_t seen, std::chrono::microseconds bound);

  /// Maybe sleep (chaos scheduling jitter). Called by every blocking
  /// receive and probe on entry, whatever the backend.
  void stall();

  /// Payload bytes currently queued (unreceived), across all contexts.
  /// Lock-free (relaxed atomic) so a *sender* can consult the destination's
  /// queue depth for backpressure without contending on the slot mutex.
  std::size_t queued_bytes() const noexcept {
    return payload_bytes_.load(std::memory_order_relaxed);
  }

  /// Install fault injection for this slot; `owner_rank` diversifies the
  /// per-rank hash streams. Must be called before any traffic flows
  /// (backends do this during endpoint setup).
  void configure_chaos(const chaos_config& cfg, int owner_rank);

  /// Wake all blocked operations with an error (world teardown on failure).
  void abort();

  /// Cumulative probe behaviour, for the endpoint's per-backend telemetry
  /// lane (docs/TRANSPORT.md §Observability). `draws` counts the eligible
  /// miss draws taken (iprobe calls that had a matchable message while
  /// misses were armed) and `misses` the false negatives actually injected;
  /// `iprobe_calls` counts every iprobe regardless of queue state.
  struct probe_counters {
    std::uint64_t iprobe_calls = 0;
    std::uint64_t draws = 0;
    std::uint64_t misses = 0;
  };
  probe_counters probe_stats() const;

 private:
  struct queued {
    envelope env;
    std::uint64_t visible_at = 0;  ///< tick at which matching may see it
  };

  /// Per-(source, context) chaos bookkeeping: how many messages this stream
  /// has delivered (the deterministic per-message index) and the visibility
  /// deadline of its latest message (non-overtaking clamp).
  struct stream_state {
    std::uint64_t arrivals = 0;
    std::uint64_t last_visible_at = 0;
  };

  static bool matches(const envelope& e, int src, int tag, std::uint64_t ctx) {
    return e.ctx == ctx && (src == any_source || e.src == src) &&
           (tag == any_tag || e.tag == tag);
  }

  /// First *visible* match in q_ (npos when none), plus whether a matching
  /// message exists that is merely chaos-delayed — blocked callers use that
  /// to age the delay with a timed wait instead of sleeping forever.
  struct match_result {
    std::size_t index;
    bool delayed_match;
  };
  match_result find_match_locked(int src, int tag, std::uint64_t ctx) const;

  /// Advance this rank's matching-operation clock (matures delayed
  /// messages). Caller holds mtx_.
  void tick_locked() { ++clock_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  mutable std::mutex mtx_;
  mutable std::condition_variable cv_;
  std::deque<queued> q_;
  std::atomic<std::size_t> payload_bytes_{0};  ///< sum of q_ payload sizes
  std::uint64_t delivered_ = 0;  ///< deliveries so far (wait_delivery key)
  bool aborted_ = false;

  // ------------------------------------------------------------- chaos
  chaos_config chaos_{};  // default: everything off
  int rank_ = 0;
  std::uint64_t clock_ = 0;    ///< matching operations performed
  std::uint32_t misses_ = 0;   ///< consecutive iprobe false negatives
  std::uint64_t probe_draws_ = 0;  ///< eligible iprobe miss draws taken
  std::uint64_t iprobe_calls_ = 0;  ///< every iprobe (telemetry only)
  std::uint64_t miss_total_ = 0;    ///< false negatives injected (telemetry)
  std::unordered_map<std::uint64_t, stream_state> streams_;
  std::atomic<std::uint64_t> stall_draws_{0};
};

}  // namespace ygm::transport
