#include "telemetry/live.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "telemetry/sampler.hpp"
#include "telemetry/statusz.hpp"

namespace ygm::telemetry::live {

// ------------------------------------------------------------ window epoch

namespace {
std::atomic<std::uint64_t> g_window_epoch{1};
}

std::uint64_t window_epoch() noexcept {
  return g_window_epoch.load(std::memory_order_relaxed);
}

void bump_window_epoch() noexcept {
  g_window_epoch.fetch_add(1, std::memory_order_relaxed);
}

// ------------------------------------------------------------------- names

std::string_view gauge_name(gauge g) {
  switch (g) {
    case gauge::queued_bytes:
      return "queued_bytes";
    case gauge::credit_used:
      return "credit_used";
    case gauge::outq_bytes:
      return "outq_bytes";
    case gauge::count_:
      break;
  }
  return "?";
}

std::string_view latency_kind_name(latency_kind k) {
  switch (k) {
    case latency_kind::e2e:
      return "e2e";
    case latency_kind::flush:
      return "flush";
    case latency_kind::count_:
      break;
  }
  return "?";
}

namespace {
// Indices match routing::scheme_kind (pinned like kSchemeHopNames in
// session.cpp; router.cpp asserts the order from the routing side).
constexpr std::string_view kSchemeNames[kSchemes] = {
    "NoRoute",
    "NodeLocal",
    "NodeRemote",
    "NLNR",
};
}  // namespace

std::string_view scheme_name(unsigned scheme_index) {
  return scheme_index < kSchemes ? kSchemeNames[scheme_index]
                                 : std::string_view("?");
}

std::string sketch_metric_name(unsigned scheme_index, latency_kind k) {
  std::string out = "live.";
  out += latency_kind_name(k);
  out += "_us.";
  out += scheme_name(scheme_index);
  return out;
}

// ------------------------------------------------------------ lane registry

lane_registry& lane_registry::instance() {
  static lane_registry reg;
  return reg;
}

void lane_registry::bind(recorder* rec, int world, int rank) {
  if (rec == nullptr) return;
  std::lock_guard lock(mtx_);
  for (auto& e : lanes_) {
    if (e.rec == rec) {
      ++e.refs;
      return;
    }
  }
  lanes_.push_back(entry{rec, world, rank, 1});
}

void lane_registry::unbind(recorder* rec) {
  if (rec == nullptr) return;
  std::lock_guard lock(mtx_);
  for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
    if (it->rec == rec) {
      if (--it->refs == 0) lanes_.erase(it);
      return;
    }
  }
}

void lane_registry::for_each(
    const std::function<void(recorder&, int world, int rank)>& f) {
  std::lock_guard lock(mtx_);
  for (auto& e : lanes_) f(*e.rec, e.world, e.rank);
}

std::size_t lane_registry::bound_count() const {
  std::lock_guard lock(mtx_);
  return lanes_.size();
}

// ------------------------------------------------------- engine stats feed

namespace {
std::mutex g_engine_mtx;
std::function<engine_stats()> g_engine_provider;
std::atomic<bool> g_engine_driver{false};
}  // namespace

void set_engine_stats_provider(std::function<engine_stats()> provider) {
  std::lock_guard lock(g_engine_mtx);
  g_engine_provider = std::move(provider);
}

engine_stats query_engine_stats() {
  std::lock_guard lock(g_engine_mtx);
  if (!g_engine_provider) return {};
  return g_engine_provider();
}

void set_engine_driver(bool active) noexcept {
  g_engine_driver.store(active, std::memory_order_release);
}

bool engine_driver_active() noexcept {
  return g_engine_driver.load(std::memory_order_acquire);
}

// ------------------------------------------------------------------- knobs

namespace {

std::atomic<int> g_sample_override{-1};
std::atomic<int> g_statusz_override{-1};

std::mutex g_dir_mtx;
std::string g_statusz_dir_hint;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  return !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

int resolved_sample_ms() {
  const int ov = g_sample_override.load(std::memory_order_acquire);
  if (ov >= 0) return ov;
  return std::max(0, env_int("YGM_SAMPLE_MS", 100));
}

void set_sample_ms_override(int ms) {
  g_sample_override.store(ms < 0 ? -1 : ms, std::memory_order_release);
}

int sample_ms_override() noexcept {
  return g_sample_override.load(std::memory_order_acquire);
}

bool resolved_statusz() {
  const int ov = g_statusz_override.load(std::memory_order_acquire);
  if (ov >= 0) return ov != 0;
  return env_truthy("YGM_STATUSZ");
}

void set_statusz_override(int v) {
  g_statusz_override.store(v < 0 ? -1 : (v != 0 ? 1 : 0),
                           std::memory_order_release);
}

int statusz_override() noexcept {
  return g_statusz_override.load(std::memory_order_acquire);
}

std::string statusz_dir() {
  if (const char* v = std::getenv("YGM_STATUSZ_DIR");
      v != nullptr && *v != '\0') {
    return v;
  }
  {
    std::lock_guard lock(g_dir_mtx);
    if (!g_statusz_dir_hint.empty()) return g_statusz_dir_hint;
  }
  if (const char* v = std::getenv("TMPDIR"); v != nullptr && *v != '\0') {
    return v;
  }
  return "/tmp";
}

void set_statusz_dir_hint(const std::string& dir) {
  std::lock_guard lock(g_dir_mtx);
  g_statusz_dir_hint = dir;
}

// --------------------------------------------------------- process services

std::shared_ptr<void> make_process_services() {
#if defined(YGM_TELEMETRY_DISABLED)
  return nullptr;
#else
  const int period_ms = resolved_sample_ms();
  const bool serve = resolved_statusz();
  if (period_ms <= 0 && !serve) return nullptr;
  struct bundle {
    // Declaration order matters: the statusz server (declared second) is
    // destroyed first, so a request can never observe a dead sampler.
    std::unique_ptr<sampler> smp;
    std::unique_ptr<statusz_server> srv;
  };
  auto b = std::make_shared<bundle>();
  if (period_ms > 0) {
    sampler::config cfg;
    cfg.period_ms = period_ms;
    cfg.own_thread = !engine_driver_active();
    b->smp = std::make_unique<sampler>(cfg);
  }
  if (serve) {
    statusz_server::config cfg;
    cfg.dir = statusz_dir();
    b->srv = std::make_unique<statusz_server>(cfg);
  }
  return b;
#endif
}

}  // namespace ygm::telemetry::live
