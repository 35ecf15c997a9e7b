// The YGM progress engine: opt-in dedicated progress.
//
// YGM is *pseudo*-asynchronous (paper §IV): nothing moves unless a rank
// polls, so a rank deep in compute stalls every peer routing through it.
// The related work is unanimous that dedicated progress is the fix ("MPI
// Progress For All", arXiv 2405.13807; "Asynchronous MPI for the Masses",
// arXiv 1302.4280). This header adds that mechanism without giving up the
// polling mode's zero-synchronization hot path:
//
//   engine   — one progress thread per OS process hosting rank bodies: one
//              for the whole world on the inproc backend (every rank is a
//              thread of one process), one per forked rank process on the
//              socket and shm backends. Started per run by
//              ygm::launch in the process hosting the rank bodies.
//   station  — one per (comm_world, rank): the engine-visible face of a
//              rank. Owns the rank's registered pumps and the
//              progress_guard depth.
//   pump     — one per engine-mode mailbox: the engine_advance closure the
//              engine drives, plus the enable/busy teardown handshake.
//   guard    — RAII marking a compute region the engine may steal from.
//
// What the engine is allowed to do, and when (the safety contract):
//
//   * It only advances a rank's mailboxes while that rank is inside a
//     progress_guard. Outside a guard the rank gets no help — and needs
//     none, because it is polling itself.
//   * It moves communication only: it drains the transport, forwards
//     intermediary records and delivers (or defers) messages addressed to
//     the rank. The termination detector is a protocol the rank runs;
//     wait_empty()/test_empty() drive it from the rank thread alone.
//   * Mailbox state is protected by a per-mailbox recursive mutex that is
//     only ever taken in engine mode (polling mode keeps its
//     zero-synchronization hot path: one predictable branch). The engine
//     always try-locks: if the rank thread is active inside the mailbox,
//     the engine moves on instead of blocking it.
//   * Deliveries addressed to the rank are NOT executed on the engine
//     thread by default: the engine batches them (packet format, trace
//     escapes included) onto a bounded queue under the mailbox mutex, and
//     the rank thread runs the callbacks at its next poll()/test_empty().
//     The application therefore never sees its callback race its compute
//     code. A guard opened with deliver::on_engine opts into engine-side
//     execution for callbacks that are safe to run concurrently.
//   * A full deferred queue is backpressure: the engine stops draining the
//     transport for that mailbox (messages stay in the mail slot) until
//     the rank catches up.
//
// Chaos faults stay injected at the transport seam: the engine drains
// through the same mpi.iprobe()/recv path as the rank, so visibility
// delays, iprobe false negatives, and stalls hit engine-stolen progress
// exactly as they hit polled progress.
//
// The progress mode is a knob (docs/KNOBS.md): run_options::progress_mode >
// YGM_PROGRESS > polling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/knobs.hpp"

namespace ygm::transport {
class endpoint;
}
namespace ygm::core {
class comm_world;
}
namespace ygm::telemetry {
class recorder;
}

namespace ygm::progress {

// ------------------------------------------------------------------- mode

/// In the order of the knob table's YGM_PROGRESS choices.
enum class mode {
  polling,  ///< historical behaviour: progress only when a rank polls
  engine,   ///< dedicated progress thread steals from guarded ranks
};

inline std::string_view to_string(mode m) noexcept {
  return knob::spec_of(knob::id::progress_mode).choices[std::size_t(m)];
}

/// Parse a mode name ("polling" | "engine"); nullopt on anything else.
inline std::optional<mode> mode_from_name(std::string_view name) noexcept {
  const auto i = knob::choice_index(knob::id::progress_mode, name);
  return i ? std::optional(mode(*i)) : std::nullopt;
}

/// The mode YGM_PROGRESS names (polling when unset). Throws ygm::error on
/// an unknown name: a silent fallback would fake engine coverage.
inline mode mode_from_env() {
  return mode(knob::from_env()[knob::id::progress_mode].num);
}

// ------------------------------------------------------------------- pump

/// One engine-mode mailbox's registration with its station.
struct pump {
  /// Cleared by the mailbox destructor (via station::remove_pump) before
  /// the mailbox dies; the engine never invokes a disabled pump.
  std::atomic<bool> enabled{true};
  /// Set by the engine around each engine_advance call; remove_pump spins
  /// on it so teardown cannot race a steal in flight.
  std::atomic<bool> busy{false};

  /// Engine thread. Returns true if any progress was made. The bool asks
  /// for engine-side callback execution (guard deliver::on_engine).
  std::function<bool(bool inline_deliveries)> engine_advance;
};

// ---------------------------------------------------------------- station

class engine;

/// One rank's face toward the engine: pumps, guard depth, and the transport
/// endpoint whose progress_hook the engine donates cycles to. Created by
/// comm_world (always — progress::guard works in polling mode too);
/// registered with the engine only when one is installed and the world is
/// eligible (untimed).
class station {
 public:
  station(engine* eng, transport::endpoint* ep);

  station(const station&) = delete;
  station& operator=(const station&) = delete;

  bool engine_attached() const noexcept { return engine_ != nullptr; }

  // ----------------------------------------------------------- rank side

  void add_pump(std::shared_ptr<pump> p);

  /// Disable + wait out any steal in flight on `p`, then drop it. After
  /// this returns the engine will never touch the owning mailbox again.
  void remove_pump(const std::shared_ptr<pump>& p);

  void enter_guard(bool inline_deliveries) noexcept;
  void exit_guard(bool inline_deliveries) noexcept;

  /// Stop the engine from ever touching this station again (idempotent;
  /// spins out a service pass in flight). comm_world's destructor calls
  /// this before the endpoint can die.
  void shutdown() noexcept;

  // -------------------------------------------------- mailbox-side state

  /// Depth of open progress_guards on the owning rank.
  int guard_depth() const noexcept {
    return guard_depth_.load(std::memory_order_acquire);
  }
  /// True while a deliver::on_engine guard is open.
  bool inline_deliveries() const noexcept {
    return inline_depth_.load(std::memory_order_acquire) > 0;
  }

  // ---------------------------------------------------------- engine side

  /// One engine service pass: advance eligible pumps, donate a pump to the
  /// endpoint's progress hook. Returns true if any progress was made.
  bool service();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

 private:
  engine* engine_;
  transport::endpoint* ep_;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> servicing_{false};
  std::atomic<int> guard_depth_{0};
  std::atomic<int> inline_depth_{0};
  std::mutex pumps_mtx_;
  std::vector<std::shared_ptr<pump>> pumps_;
  std::vector<std::shared_ptr<pump>> scratch_;  // engine-side snapshot
};

// ----------------------------------------------------------------- engine

/// The engine's fixed tuning, named so reports can print it.
struct engine_options {
  /// Idle passes before the engine starts sleeping between passes.
  int spin_passes = 16;
  /// Sleep between passes once idle (microseconds).
  std::chrono::microseconds idle_sleep{100};
  /// Cap on each mailbox's deferred-delivery queue (batches, one per
  /// engine drain pass).
  std::size_t ring_slots = 64;
};

class engine {
 public:
  using options = engine_options;

  /// Monotonic counters, readable from any thread (tests, benches).
  struct counters {
    std::uint64_t passes = 0;         ///< service loop iterations
    std::uint64_t steal_attempts = 0; ///< pump engine_advance invocations
    std::uint64_t steals = 0;         ///< invocations that made progress
    std::uint64_t hook_pumps = 0;     ///< endpoint progress_hook donations
  };

  /// `telemetry_world` >= 0 binds the engine thread to a fresh lane of that
  /// telemetry world (session::add_lane), so causal hop events recorded
  /// from the engine stitch into the same journeys as the rank lanes. Pass
  /// -1 when the lane would not survive (socket children ship exactly one
  /// lane per rank) — engine counters then fold into the stopping thread's
  /// lane instead.
  explicit engine(int telemetry_world = -1);
  ~engine();

  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  /// Register a station (thread-safe; the engine loop picks it up on its
  /// next pass). The engine holds a reference until the station shuts down.
  void adopt(std::shared_ptr<station> st);

  counters stats() const noexcept;

  // Station-side accounting (called from the engine thread during service).
  void note_steal(bool advanced) noexcept;
  void note_hook_pump() noexcept;

 private:
  void loop();
  void publish_counters();

  int telemetry_world_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> hook_pumps_{0};
  std::mutex incoming_mtx_;
  std::vector<std::shared_ptr<station>> incoming_;  // guarded by incoming_mtx_
  std::vector<std::shared_ptr<station>> stations_;  // engine thread only
  std::thread thread_;
};

// ------------------------------------------------- process-wide installation

/// The process's installed engine, or nullptr in polling mode. Set before
/// rank bodies start and cleared after they join (thread creation/join
/// provides the ordering), so rank threads may read it without
/// synchronization.
engine* current() noexcept;

/// Owns the process engine and installs it as current() for its lifetime.
/// One per OS process hosting rank bodies; ygm::launch creates it in that
/// process (the driver process on inproc, each forked child on socket and
/// shm — an engine thread would not survive fork).
class engine_scope {
 public:
  explicit engine_scope(int telemetry_world = -1);
  ~engine_scope();

  engine_scope(const engine_scope&) = delete;
  engine_scope& operator=(const engine_scope&) = delete;

  engine& get() noexcept { return *eng_; }

 private:
  std::unique_ptr<engine> eng_;
};

// ------------------------------------------------------------- rank facade
//
// The ygm::progress surface applications use. It works in polling mode too
// (guard becomes a no-op marker), so application code is mode-independent.

/// Delivery policy for a guard region.
enum class deliver {
  deferred,   ///< engine batches callbacks; the rank runs them at its next
              ///< poll()/test_empty()
  on_engine,  ///< engine runs callbacks directly (caller asserts safety)
};

/// RAII: marks a compute region the engine may steal progress from. Open it
/// around compute loops between sends; close it before touching state your
/// callbacks share without synchronization (unless you opted into
/// deliver::deferred, the default, which never runs callbacks concurrently
/// with the rank).
class guard {
 public:
  explicit guard(core::comm_world& w, deliver policy = deliver::deferred);
  ~guard();

  guard(const guard&) = delete;
  guard& operator=(const guard&) = delete;

 private:
  station* st_;
  bool inline_ = false;
};

}  // namespace ygm::progress
