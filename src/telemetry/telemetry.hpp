// YGM telemetry subsystem: per-rank recorders, a process-wide session, and
// exporters (Chrome trace JSON, metrics JSON, text summary).
//
// Design (docs/TELEMETRY.md has the full story):
//
//   session   — process-wide collection point. Owns one recorder per
//               (world, rank) lane; ygm::launch creates a lane per rank
//               thread automatically whenever a global session is
//               installed. Merging and export are pull-based: nothing is
//               aggregated until write_*()/print_summary() runs.
//   recorder  — one per simulated rank: a metrics_registry, an event ring,
//               a string-intern table, and a fixed array of well-known
//               counters/histograms for hot paths (O(1), no hashing).
//   tls()     — thread-local recorder pointer. All instrumentation helpers
//               are a null check away from zero work, so an uninstrumented
//               run costs one thread-local load + predictable branch per
//               call site. Compile out entirely with -DYGM_TELEMETRY=OFF
//               (which defines YGM_TELEMETRY_DISABLED).
//   span      — RAII complete-event timer ("X" phase in the Chrome trace).
//
// Layering: telemetry sits between ser and mpisim — it depends only on
// common, and every higher layer (mpisim, routing, core, bench) may record
// into it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/knobs.hpp"
#include "telemetry/live.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace ygm::telemetry {

// ------------------------------------------------- well-known fast metrics
//
// Hot-path instrumentation (router next_hop, every mpisim send/recv) cannot
// afford a string hash per update, so the layers below core record into
// fixed enum-indexed slots; the session folds them into the named registry
// at export under the canonical names in fast_counter_name()/
// fast_histogram_name().

enum class fast_counter : unsigned {
  route_next_hop,       ///< router::next_hop decisions
  route_bcast_fanout,   ///< fan-out edges returned by bcast_next_hops
  mpi_sends,            ///< mpisim point-to-point sends
  mpi_send_bytes,
  mpi_recvs,
  mpi_recv_bytes,
  mpi_collectives,      ///< barrier/collective invocations
  term_rounds,          ///< termination-detection rounds completed
  pool_hits,            ///< packet-buffer-pool acquires served from the pool
  pool_misses,          ///< pool acquires that had to heap-allocate
  alloc_bytes,          ///< bytes freshly reserved by pool misses
  deliveries,           ///< mailbox message deliveries (live msg-rate feed)
  count_  // sentinel
};

enum class fast_histogram : unsigned {
  remote_packet_bytes,  ///< coalesced wire packet sizes (cross-node)
  local_packet_bytes,   ///< coalesced packet sizes (same-node)
  exchange_us,          ///< duration of capacity-triggered exchanges
  count_  // sentinel
};

std::string_view fast_counter_name(fast_counter c);
std::string_view fast_histogram_name(fast_histogram h);

// -------------------------------------------------------------- recorder

class session;

class recorder {
 public:
  recorder(session& owner, int world, int rank, std::size_t ring_capacity);

  int world() const noexcept { return world_; }
  int rank() const noexcept { return rank_; }

  /// Microseconds since the owning session's epoch.
  double now_us() const noexcept;

  metrics_registry& metrics() noexcept { return metrics_; }
  const metrics_registry& metrics() const noexcept { return metrics_; }
  event_ring& ring() noexcept { return ring_; }
  const event_ring& ring() const noexcept { return ring_; }

  /// Intern a name for use in trace events (stable per recorder).
  name_id intern(std::string_view s);
  const std::vector<std::string>& names() const noexcept { return names_; }

  void push(const trace_event& e) noexcept { ring_.push(e); }

  // Fast counters stay single-writer (the lane's owning thread), but the
  // live sampler/statusz threads read them concurrently — so the slots are
  // accessed through relaxed atomic_refs: same generated code on the write
  // side (one load + add + store), defined behaviour on the read side.
  void fast_add(fast_counter c, std::uint64_t n) noexcept {
    std::atomic_ref<std::uint64_t> slot(
        fast_counters_[static_cast<unsigned>(c)]);
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
  void fast_add_scheme_hop(unsigned scheme_index) noexcept {
    if (scheme_index < kSchemes) {
      std::atomic_ref<std::uint64_t> slot(scheme_hops_[scheme_index]);
      slot.store(slot.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    }
  }
  void fast_record(fast_histogram h, double v) noexcept {
    fast_histos_[static_cast<unsigned>(h)].record(v);
  }

  std::uint64_t fast_value(fast_counter c) const noexcept {
    return std::atomic_ref<const std::uint64_t>(
               fast_counters_[static_cast<unsigned>(c)])
        .load(std::memory_order_relaxed);
  }
  std::uint64_t fast_scheme_hop_value(unsigned scheme_index) const noexcept {
    if (scheme_index >= kSchemes) return 0;
    return std::atomic_ref<const std::uint64_t>(scheme_hops_[scheme_index])
        .load(std::memory_order_relaxed);
  }

  /// The live-telemetry block (gauge slots + latency sketches) the sampler
  /// and statusz may read while this lane's thread is still running.
  live::live_block& live() noexcept { return live_; }
  const live::live_block& live() const noexcept { return live_; }

  /// Fold the fast slots into the named registry (idempotent only once —
  /// the session calls this exactly once per recorder at export).
  void fold_fast_metrics();

 private:
  static constexpr unsigned kSchemes = 4;  // routing::scheme_kind cardinality

  session* owner_;
  int world_;
  int rank_;
  metrics_registry metrics_;
  event_ring ring_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, name_id> name_ids_;
  std::uint64_t fast_counters_[static_cast<unsigned>(fast_counter::count_)] = {};
  std::uint64_t scheme_hops_[kSchemes] = {};
  histogram fast_histos_[static_cast<unsigned>(fast_histogram::count_)];
  live::live_block live_;
  std::uint64_t dropped_folded_ = 0;  // drops already folded into metrics
};

// --------------------------------------------------------------- session

struct config {
  /// Per-rank event ring capacity (events). 0 disables the timeline but
  /// keeps metrics.
  std::size_t ring_capacity = std::size_t{1} << 16;
};

class session {
 public:
  explicit session(config cfg = {});
  ~session();

  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// Open a lane group for one mpisim world of `nranks` ranks; returns the
  /// world index (Chrome-trace pid). Snapshots the knob table. Thread-safe.
  int begin_world(int nranks);

  /// Append one extra lane to an already-begun world (lane index = previous
  /// lane count) and return its index. Used for non-rank service threads
  /// whose events must stitch with the world's rank lanes — the progress
  /// engine records causal hop events and steal counters here. Thread-safe.
  int add_lane(int world);

  /// The recorder for one (world, rank) lane. Thread-safe lookup; the
  /// returned recorder itself must only be used from its rank thread.
  recorder& rank_recorder(int world, int rank);

  /// Microseconds since session construction (trace timestamp base).
  double now_us() const noexcept;

  /// Number of worlds begun so far (world indices are [0, world_count())).
  int world_count() const;

  /// All per-rank registries (plus folded fast metrics) merged into one.
  /// The all-worlds overload folds every lane the session ever opened —
  /// reusing one session across consecutive ygm::launch calls therefore
  /// mixes runs (gauges keep the max across them); use the per-world
  /// overload to read one run's metrics in isolation.
  metrics_registry merged_metrics() const;
  metrics_registry merged_metrics(int world) const;

  /// Visit every lane (export-time only: visited rank threads must have
  /// finished, except from a crash-dump path that accepts torn reads).
  void visit_lanes(const std::function<void(const recorder&)>& f) const;

  // Exporters (export.cpp). Path overloads return false on I/O failure.
  // The metrics JSON's "config" is the last world's knob table snapshot.
  void write_chrome_trace(std::ostream& os) const;
  bool write_chrome_trace(const std::string& path) const;
  void write_metrics_json(std::ostream& os) const;
  bool write_metrics_json(const std::string& path) const;
  void print_summary(std::FILE* out = stdout) const;

  /// Total events dropped to ring overwrite across all lanes.
  std::uint64_t events_dropped() const;

 private:
  /// Visit every recorder of every world (export-time only; the visited
  /// rank threads must have finished).
  template <class F>
  void for_each_recorder(F&& f) const {
    std::lock_guard lock(mtx_);
    for (const auto& lanes : worlds_) {
      for (const auto& rec : lanes) f(*rec);
    }
  }

  mutable std::mutex mtx_;
  std::vector<std::vector<std::unique_ptr<recorder>>> worlds_;
  knob::table run_config_;  ///< the knob table as the last world began
  std::chrono::steady_clock::time_point epoch_;
  config cfg_;
};

// ------------------------------------------------ global session + attach

/// The installed process-wide session, or nullptr when telemetry is off.
session* global();

/// Install (or clear, with nullptr) the global session. Not thread-safe:
/// call from the driver thread before/after ygm::launch.
void set_global(session* s);

namespace detail {
// constinit matters: without it, every cross-TU access to an extern
// thread_local goes through the dynamic-init wrapper function, turning the
// hot-path "one load + branch" promise into a call per hook.
extern constinit thread_local recorder* tls_recorder;
}

/// This thread's recorder (nullptr when unattached or telemetry disabled).
inline recorder* tls() noexcept {
#if defined(YGM_TELEMETRY_DISABLED)
  return nullptr;
#else
  return detail::tls_recorder;
#endif
}

/// RAII: bind this thread to a (world, rank) lane of a session. Also
/// registers the lane with the live lane registry (live.hpp) so the
/// sampler/statusz see it for exactly the scope's lifetime.
class rank_scope {
 public:
  rank_scope(session& s, int world, int rank);
  ~rank_scope();
  rank_scope(const rank_scope&) = delete;
  rank_scope& operator=(const rank_scope&) = delete;

 private:
  recorder* prev_;
  recorder* bound_;
};

// ------------------------------------------------------ hot-path helpers
//
// All helpers are no-ops (a thread-local load + branch) when this thread
// has no recorder, and compile to nothing under YGM_TELEMETRY_DISABLED.

inline void add(fast_counter c, std::uint64_t n = 1) noexcept {
  if (recorder* r = tls()) r->fast_add(c, n);
}

inline void add_scheme_hop(unsigned scheme_index) noexcept {
  if (recorder* r = tls()) r->fast_add_scheme_hop(scheme_index);
}

inline void sample(fast_histogram h, double v) noexcept {
  if (recorder* r = tls()) r->fast_record(h, v);
}

/// Record an instant event ("i" phase) on this rank's lane.
void instant(std::string_view name);
void instant(std::string_view name, std::string_view arg_name,
             std::uint64_t arg, double vtime_us = -1);

/// Bump a named counter in this rank's registry (cold paths only — hashes
/// the name; hot paths use fast_counter slots).
void count(std::string_view name, std::uint64_t n = 1);

/// Microseconds on this thread's lane clock (0 when unattached).
inline double now_us() noexcept {
  recorder* r = tls();
  return r == nullptr ? 0.0 : r->now_us();
}

// ------------------------------------------------- live-telemetry helpers
//
// Feed points for the live layer (docs/TELEMETRY.md §Live telemetry). Same
// contract as the hot-path helpers above: one tls() load + branch when
// unattached, nothing at all under YGM_TELEMETRY_DISABLED.

namespace live {

/// Publish a live gauge value on this thread's lane (single writer per
/// lane holds because each lane is owned by one thread).
inline void gauge_set(gauge g, double v) noexcept {
  if (recorder* r = telemetry::tls()) r->live().set_gauge(g, v);
}

/// Feed one observed latency into this lane's (scheme, kind) sketch.
inline void note_latency(unsigned scheme_index, latency_kind k,
                         double us) noexcept {
  if (recorder* r = telemetry::tls()) {
    r->live().record_latency(scheme_index, k, us);
  }
}

}  // namespace live

/// Pre-interned instant-event template for hot call sites (e.g. per-hop
/// routing decisions): name lookup happens once per recorder, after which
/// each record() is a timestamp plus a handful of stores.
class instant_marker {
 public:
  explicit instant_marker(std::string_view name, std::string_view arg0 = {},
                          std::string_view arg1 = {})
      : name_str_(name), arg0_str_(arg0), arg1_str_(arg1) {}

  void record(std::uint64_t v0 = 0, std::uint64_t v1 = 0,
              double vtime_us = -1) noexcept {
    recorder* r = tls();
    if (r == nullptr) return;
    if (r != cached_) rebind(r);
    trace_event e;
    e.kind = event_kind::instant;
    e.name = name_;
    e.ts_us = r->now_us();
    e.vtime_us = vtime_us;
    e.arg0_name = arg0_;
    e.arg0 = v0;
    e.arg1_name = arg1_;
    e.arg1 = v1;
    r->push(e);
  }

 private:
  void rebind(recorder* r) {
    cached_ = r;
    name_ = r->intern(name_str_);
    arg0_ = arg0_str_.empty() ? no_name : r->intern(arg0_str_);
    arg1_ = arg1_str_.empty() ? no_name : r->intern(arg1_str_);
  }

  std::string_view name_str_, arg0_str_, arg1_str_;
  recorder* cached_ = nullptr;
  name_id name_ = no_name;
  name_id arg0_ = no_name;
  name_id arg1_ = no_name;
};

/// RAII span timer: records one complete ("X") event on destruction.
/// Inert when the thread has no recorder — construction is then just a
/// tls() check.
class span {
 public:
  explicit span(std::string_view name) : rec_(tls()) {
    if (rec_ != nullptr) {
      name_ = rec_->intern(name);
      start_us_ = rec_->now_us();
    }
  }

  span(const span&) = delete;
  span& operator=(const span&) = delete;

  /// Attach up to two integer args (shown in the trace viewer).
  void arg(std::string_view arg_name, std::uint64_t v) noexcept {
    if (rec_ == nullptr) return;
    if (e_arg0_ == no_name) {
      e_arg0_ = rec_->intern(arg_name);
      arg0_ = v;
    } else if (e_arg1_ == no_name) {
      e_arg1_ = rec_->intern(arg_name);
      arg1_ = v;
    }
  }

  /// Stamp the modeled virtual-time clock (seconds) onto the event.
  void vtime_seconds(double t) noexcept { vtime_us_ = t * 1e6; }

  /// Also feed the duration into a well-known histogram on close.
  void sample_into(fast_histogram h) noexcept {
    histo_ = static_cast<int>(h);
  }

  ~span() {
    if (rec_ == nullptr) return;
    const double end = rec_->now_us();
    trace_event e;
    e.kind = event_kind::complete;
    e.name = name_;
    e.ts_us = start_us_;
    e.dur_us = end - start_us_;
    e.vtime_us = vtime_us_;
    e.arg0_name = e_arg0_;
    e.arg0 = arg0_;
    e.arg1_name = e_arg1_;
    e.arg1 = arg1_;
    rec_->push(e);
    if (histo_ >= 0) {
      rec_->fast_record(static_cast<fast_histogram>(histo_), e.dur_us);
    }
  }

 private:
  recorder* rec_;
  name_id name_ = no_name;
  name_id e_arg0_ = no_name;
  name_id e_arg1_ = no_name;
  std::uint64_t arg0_ = 0;
  std::uint64_t arg1_ = 0;
  double start_us_ = 0;
  double vtime_us_ = -1;
  int histo_ = -1;
};

}  // namespace ygm::telemetry
