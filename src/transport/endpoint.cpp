#include "transport/endpoint.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::transport {

std::string_view to_string(backend_kind k) noexcept {
  switch (k) {
    case backend_kind::inproc:
      return "inproc";
    case backend_kind::socket:
      return "socket";
    case backend_kind::shm:
      return "shm";
  }
  return "?";
}

std::optional<backend_kind> backend_from_name(std::string_view name) noexcept {
  if (name == "inproc") return backend_kind::inproc;
  if (name == "socket") return backend_kind::socket;
  if (name == "shm") return backend_kind::shm;
  return std::nullopt;
}

backend_kind backend_from_env() {
  const char* v = std::getenv("YGM_TRANSPORT");
  if (v == nullptr || *v == '\0') return backend_kind::inproc;
  const auto k = backend_from_name(v);
  YGM_CHECK(k.has_value(), std::string("unknown YGM_TRANSPORT backend '") +
                               v + "' (expected inproc | socket | shm)");
  return *k;
}

namespace {

std::size_t outq_cap_from_env() {
  const char* v = std::getenv("YGM_OUTQ_CAP_BYTES");
  if (v != nullptr && *v != '\0') {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (end != nullptr && *end == '\0') return static_cast<std::size_t>(n);
  }
  return std::size_t{4} << 20;  // 4 MiB
}

// Process-wide so forked socket children inherit the launch override.
std::atomic<std::size_t> g_outq_cap{outq_cap_from_env()};

}  // namespace

std::size_t outq_cap_bytes() noexcept {
  return g_outq_cap.load(std::memory_order_relaxed);
}

void set_outq_cap_bytes(std::size_t cap) noexcept {
  g_outq_cap.store(cap, std::memory_order_relaxed);
}

endpoint::endpoint(backend_kind kind, int rank, int nranks, mail_slot& shared)
    : kind_(kind), rank_(rank), nranks_(nranks), slot_(&shared),
      has_wire_(false) {}

endpoint::endpoint(backend_kind kind, int rank, int nranks,
                   const chaos_config* chaos)
    : kind_(kind), rank_(rank), nranks_(nranks), has_wire_(true),
      own_slot_(std::make_unique<mail_slot>()) {
  YGM_CHECK(nranks > 0 && rank >= 0 && rank < nranks,
            std::string(to_string(kind)) + " endpoint rank outside world");
  slot_ = own_slot_.get();
  if (chaos != nullptr && chaos->enabled()) slot_->configure_chaos(*chaos, rank);
}

endpoint::~endpoint() {
  // Runs on the rank's own thread, inside its telemetry lane, after the
  // backend's destructor has published its own counters.
  const std::string prefix =
      std::string("transport.") + std::string(to_string(kind_)) + ".";
  const auto probes = slot_->probe_stats();
  telemetry::count(prefix + "posts",
                   stats_.posts.load(std::memory_order_relaxed));
  telemetry::count(prefix + "post_bytes",
                   stats_.post_bytes.load(std::memory_order_relaxed));
  telemetry::count(prefix + "iprobe_calls", probes.iprobe_calls);
  telemetry::count(prefix + "iprobe_draws", probes.draws);
  telemetry::count(prefix + "iprobe_misses", probes.misses);
}

void endpoint::post(int dest, envelope&& e) {
  YGM_ASSERT(dest >= 0 && dest < nranks_);
  stats_.posts.fetch_add(1, std::memory_order_relaxed);
  stats_.post_bytes.fetch_add(e.payload.size(), std::memory_order_relaxed);
  if (dest == rank_) {
    slot_->deliver(std::move(e));
  } else {
    send(dest, std::move(e));
  }
}

bool endpoint::pump_wire() {
  if (wire_error_) std::rethrow_exception(wire_error_);
  try {
    return pump();
  } catch (...) {
    wire_error_ = std::current_exception();
    throw;
  }
}

void endpoint::await(const mail_slot::miss& m, const char* op) {
  std::unique_lock<std::mutex> lock;
  if (has_wire_) {
    lock = std::unique_lock(io_mtx_);
    // Checked before the pump: a peer that dies mid-pump aborts the slot,
    // and the retried match then reports the abort, not a silent world.
    YGM_CHECK(m.delayed || !peers_silent(),
              std::string(to_string(kind_)) + " " + op +
                  " would block forever: all peers finished and no "
                  "matching message is queued");
    if (pump_wire()) return;  // fresh deliveries: retry the match now
  }
  wait(m);
}

envelope endpoint::recv_match(int src, int tag, std::uint64_t ctx) {
  slot_->stall();
  for (;;) {
    mail_slot::miss m;
    if (auto e = slot_->take(src, tag, ctx, &m)) return std::move(*e);
    await(m, "recv");
  }
}

status endpoint::probe(int src, int tag, std::uint64_t ctx) {
  slot_->stall();
  for (;;) {
    mail_slot::miss m;
    if (auto st = slot_->peek(src, tag, ctx, &m)) return *st;
    await(m, "probe");
  }
}

std::optional<envelope> endpoint::try_recv_match(int src, int tag,
                                                 std::uint64_t ctx) {
  if (has_wire_) {
    std::lock_guard lock(io_mtx_);
    pump_wire();
  }
  return slot_->take(src, tag, ctx);
}

std::optional<status> endpoint::iprobe(int src, int tag, std::uint64_t ctx) {
  if (has_wire_) {
    std::lock_guard lock(io_mtx_);
    pump_wire();
  }
  return slot_->peek_may_miss(src, tag, ctx);
}

bool endpoint::progress_hook() {
  if (!has_wire_) return false;
  std::unique_lock lock(io_mtx_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  try {
    return pump_wire();
  } catch (...) {
    // Kept in wire_error_: the owning rank's next pump rethrows it.
    return false;
  }
}

double endpoint::wtime() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

}  // namespace ygm::transport
