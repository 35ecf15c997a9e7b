// Backend #1: the in-process threaded simulator (ranks are threads, one
// address space). This is the original mpisim substrate re-homed behind the
// transport::endpoint interface — behaviour-identical, chaos hooks
// preserved.
//
// A `fabric` is the process-wide shared state of one run: the per-rank mail
// slots, the chaos config, the clock epoch, and abort propagation (what
// `mpisim::world` used to be). Each rank thread then holds one
// `inproc::endpoint`, which sends by locking the destination slot directly —
// no wire, no framing cost, which is exactly why this backend remains the
// default for tests and single-host benchmarks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "transport/chaos.hpp"
#include "transport/endpoint.hpp"
#include "transport/mail_slot.hpp"

namespace ygm::transport::inproc {

/// Shared by every rank thread of one run invocation. Thread-safe.
class fabric {
 public:
  explicit fabric(int nranks);

  int size() const noexcept { return static_cast<int>(slots_.size()); }

  mail_slot& slot(int world_rank);

  /// Install seeded fault injection on every rank slot. Must run before any
  /// traffic flows (mpisim::run calls this before spawning rank threads).
  void set_chaos(const chaos_config& cfg);

  /// The chaos config in force (defaults to everything-off).
  const chaos_config& chaos() const noexcept { return chaos_; }

  /// Seconds since this fabric was created (like MPI_Wtime deltas).
  double wtime() const;

  /// Poison all slots so blocked ranks wake with an error; called when a
  /// rank function throws, to avoid deadlocking the remaining ranks.
  void abort_all();

  bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

 private:
  std::vector<std::unique_ptr<mail_slot>> slots_;
  chaos_config chaos_{};
  std::atomic<bool> aborted_{false};
  std::chrono::steady_clock::time_point epoch_;
};

/// One rank thread's endpoint onto a shared fabric. The receive side
/// delegates straight to the rank's slot (whose condition variable is
/// signalled by in-process senders, so blocking receives need no progress
/// pump); the send side is a per-peer channel that locks the destination
/// slot.
class endpoint final : public transport::endpoint {
 public:
  endpoint(fabric& f, int rank);
  ~endpoint() override;

  backend_kind kind() const noexcept override { return backend_kind::inproc; }
  int world_rank() const noexcept override { return rank_; }
  int world_size() const noexcept override { return fabric_->size(); }

  transport::channel& peer(int dest) override;

  envelope recv_match(int src, int tag, std::uint64_t ctx) override;
  std::optional<envelope> try_recv_match(int src, int tag,
                                         std::uint64_t ctx) override;
  std::optional<status> iprobe(int src, int tag, std::uint64_t ctx) override;
  status probe(int src, int tag, std::uint64_t ctx) override;
  std::size_t pending() override;

  double wtime() const override;
  void abort_world() override;

 private:
  class slot_channel final : public transport::channel {
   public:
    slot_channel() = default;
    slot_channel(endpoint* ep, int dest) : ep_(ep), dest_(dest) {}
    void post(envelope&& e) override { ep_->post_local(dest_, std::move(e)); }

   private:
    endpoint* ep_ = nullptr;
    int dest_ = 0;
  };

  /// Deliver into the destination slot, applying the channel-level outbound
  /// cap as a *soft* bound: when the destination's queued bytes exceed
  /// outq_cap_bytes() the sender waits (bounded) for the receiver to drain,
  /// then proceeds regardless — with threads sharing one address space a
  /// hard block here could deadlock a receiver that is itself blocked
  /// posting, so overruns are counted (outq_overflows) instead of risking
  /// liveness. The mailbox credit layer above provides the hard guarantee.
  void post_local(int dest, envelope&& e);

  fabric* fabric_;
  int rank_;
  mail_slot* slot_;  // fabric_->slot(rank_), cached
  std::vector<slot_channel> channels_;
  // outbound-cap counters, published at teardown
  std::uint64_t outq_peak_bytes_ = 0;
  std::uint64_t outq_stalls_ = 0;
  std::uint64_t outq_overflows_ = 0;
};

}  // namespace ygm::transport::inproc
