#include "telemetry/causal.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "common/assert.hpp"
#include "telemetry/journey.hpp"
#include "telemetry/json_util.hpp"

namespace ygm::telemetry::causal {

// ------------------------------------------------- wire context encoding

void encode_wire(const wire_ctx& c, std::vector<std::byte>& out) {
  const std::size_t base = out.size();
  out.resize(base + wire_ctx_bytes);
  std::byte* p = out.data() + base;
  std::memcpy(p + 0, &c.id, 8);
  std::memcpy(p + 8, &c.origin, 2);
  std::memcpy(p + 10, &c.hop, 2);
  std::memcpy(p + 12, &c.seq, 4);
  std::memcpy(p + 16, &c.origin_us, 8);
}

wire_ctx decode_wire(std::span<const std::byte> in) {
  YGM_CHECK(in.size() == wire_ctx_bytes, "malformed trace annotation record");
  wire_ctx c;
  std::memcpy(&c.id, in.data() + 0, 8);
  std::memcpy(&c.origin, in.data() + 8, 2);
  std::memcpy(&c.hop, in.data() + 10, 2);
  std::memcpy(&c.seq, in.data() + 12, 4);
  std::memcpy(&c.origin_us, in.data() + 16, 8);
  return c;
}

// ----------------------------------------------------------------- sampling

namespace {

std::atomic<std::uint64_t> g_threshold{0};
std::atomic<double> g_rate{0.0};

/// Map a rate in [0, 1] to the hash threshold (sampled iff hash < t, with
/// ~0 meaning "all"). 32-bit resolution is plenty for a sampling knob.
std::uint64_t threshold_for(double rate) {
  if (!(rate > 0.0)) return 0;
  if (rate >= 1.0) return ~std::uint64_t{0};
  auto t = static_cast<std::uint64_t>(rate * 4294967296.0) << 32;
  if (t == 0) t = 1;  // a positive rate must be able to sample something
  return t;
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return end == v ? fallback : parsed;
}

// Watchdog configuration (process-global; see header).
std::atomic<double> g_stall_timeout_ms{0.0};
std::mutex g_postmortem_path_mtx;
std::string g_postmortem_path = "ygm_postmortem.json";  // NOLINT
// Two separate process-global flags: `fired` is the sticky "a postmortem
// was written since the last reset" answer tests and drivers query; `held`
// is the dedup latch one watchdog holds while its stall episode is live,
// released on progress resumption (re-arm) or destruction so a later stall
// can dump again without making postmortem_fired() flicker.
std::atomic<bool> g_postmortem_fired{false};
std::atomic<bool> g_postmortem_held{false};

/// Environment knobs are read once at static initialization (before main,
/// so set_* calls made by drivers always win over the environment).
struct env_init {
  env_init() {
    const double rate = env_double("YGM_TRACE_SAMPLE", 0.0);
    g_rate.store(rate < 0 ? 0.0 : (rate > 1 ? 1.0 : rate));
    g_threshold.store(threshold_for(g_rate.load()));
    g_stall_timeout_ms.store(env_double("YGM_STALL_TIMEOUT_MS", 0.0));
    if (const char* p = std::getenv("YGM_POSTMORTEM_OUT");
        p != nullptr && *p != '\0') {
      g_postmortem_path = p;
    }
  }
} g_env_init;

}  // namespace

double sample_rate() { return g_rate.load(std::memory_order_relaxed); }

void set_sample_rate(double rate) {
  if (rate < 0) rate = 0;
  if (rate > 1) rate = 1;
  g_rate.store(rate, std::memory_order_relaxed);
  g_threshold.store(threshold_for(rate), std::memory_order_relaxed);
}

namespace detail {

std::uint64_t sample_threshold() noexcept {
  return g_threshold.load(std::memory_order_relaxed);
}

std::uint64_t journey_hash(int origin, std::uint32_t seq,
                           std::uint32_t salt) noexcept {
  const std::uint64_t seeded =
      splitmix64(static_cast<std::uint64_t>(static_cast<unsigned>(origin)) ^
                 (static_cast<std::uint64_t>(salt) << 32));
  std::uint64_t h = splitmix64(seeded ^ seq);
  // Reserve the all-ones value so "threshold == ~0 means sample everything"
  // holds exactly (try_begin tests hash <= threshold - 1).
  if (h == ~std::uint64_t{0}) --h;
  return h;
}

}  // namespace detail

// --------------------------------------------------------------- hop events

std::string_view hop_event_name(hop_kind k) noexcept {
  switch (k) {
    case hop_kind::enqueue:
      return "trace.enqueue";
    case hop_kind::flush:
      return "trace.flush";
    case hop_kind::forward:
      return "trace.forward";
    case hop_kind::deliver:
      return "trace.deliver";
    case hop_kind::credit_stall:
      return "credit.stall";
  }
  return "trace.?";
}

bool parse_hop_event_name(std::string_view name, hop_kind& out) noexcept {
  for (const auto k : {hop_kind::enqueue, hop_kind::flush, hop_kind::forward,
                       hop_kind::deliver, hop_kind::credit_stall}) {
    if (name == hop_event_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

#if !defined(YGM_TELEMETRY_DISABLED)
void record_hop(const wire_ctx& c, hop_kind k, double start_us,
                std::uint64_t bytes) noexcept {
  recorder* r = tls();
  if (r == nullptr) return;
  trace_event e;
  const double now = r->now_us();
  if (start_us >= 0) {
    e.kind = event_kind::complete;
    e.ts_us = start_us;
    e.dur_us = now >= start_us ? now - start_us : 0;
  } else {
    e.kind = event_kind::instant;
    e.ts_us = now;
  }
  e.name = r->intern(hop_event_name(k));
  e.arg0_name = r->intern("id");
  e.arg0 = c.id;
  e.arg1_name = r->intern("hb");
  e.arg1 = pack_hop_bytes(c.hop, bytes);
  r->push(e);
}

void record_credit_stall(int dest, double start_us,
                         std::uint64_t bytes) noexcept {
  recorder* r = tls();
  if (r == nullptr) return;
  trace_event e;
  const double now = r->now_us();
  e.kind = event_kind::complete;
  e.ts_us = start_us >= 0 ? start_us : now;
  e.dur_us = now >= e.ts_us ? now - e.ts_us : 0;
  e.name = r->intern(hop_event_name(hop_kind::credit_stall));
  e.arg0_name = r->intern("id");
  e.arg0 = static_cast<std::uint64_t>(static_cast<unsigned>(dest));
  e.arg1_name = r->intern("hb");
  e.arg1 = pack_hop_bytes(0, bytes);
  r->push(e);
}
#endif

// ----------------------------------------------------------- stall watchdog

double stall_timeout_ms() {
  return g_stall_timeout_ms.load(std::memory_order_relaxed);
}

void set_stall_timeout_ms(double ms) {
  g_stall_timeout_ms.store(ms < 0 ? 0 : ms, std::memory_order_relaxed);
}

std::string postmortem_path() {
  std::lock_guard lock(g_postmortem_path_mtx);
  return g_postmortem_path;
}

void set_postmortem_path(std::string path) {
  std::lock_guard lock(g_postmortem_path_mtx);
  g_postmortem_path = std::move(path);
}

void reset_postmortem_latch() noexcept {
  g_postmortem_fired.store(false);
  g_postmortem_held.store(false);
}

bool postmortem_fired() noexcept { return g_postmortem_fired.load(); }

stall_watchdog::stall_watchdog() noexcept : timeout_ms_(stall_timeout_ms()) {}

stall_watchdog::~stall_watchdog() {
  // The wait completed (successful drain). If this watchdog consumed the
  // process dedup latch, release it so a second stall later in a long run
  // gets its own postmortem instead of passing silently. The sticky
  // postmortem_fired() answer is deliberately left set.
  if (dumped_) g_postmortem_held.store(false);
}

void stall_watchdog::poll_slow(const stall_report& r) noexcept {
  // Any hop or detector round counts as quiescence progress; the signature
  // is a sum of monotonic counters, so progress always changes it.
  const std::uint64_t sig = r.hops_sent + r.hops_received + r.term_rounds;
  const auto now = std::chrono::steady_clock::now();
  if (sig != last_sig_) {
    last_sig_ = sig;
    last_change_ = now;
    if (fired_) {
      // Progress resumed after a report: re-arm for the next stall episode
      // within this same wait, handing back the dedup latch if we hold it
      // (postmortem_fired() stays set — a dump did happen).
      fired_ = false;
      if (dumped_) {
        dumped_ = false;
        g_postmortem_held.store(false);
      }
    }
    return;
  }
  if (fired_) return;  // this episode already reported
  const double stalled_ms =
      std::chrono::duration<double, std::milli>(now - last_change_).count();
  if (stalled_ms < timeout_ms_) return;
  fired_ = true;
  if (g_postmortem_held.exchange(true)) return;  // another rank dumped first
  dumped_ = true;
  g_postmortem_fired.store(true);
  dump_postmortem(r, stalled_ms, postmortem_path());
}

namespace {

void write_postmortem_json(std::ostream& os, const stall_report& r,
                           double stalled_ms, int world, int rank,
                           const journey_map& journeys) {
  os << "{\n  \"stalled\": {\"world\": " << world << ", \"rank\": " << rank
     << ", \"stalled_ms\": " << json_number(stalled_ms)
     << ", \"queued_bytes\": " << r.queued_bytes
     << ", \"hops_sent\": " << r.hops_sent
     << ", \"hops_received\": " << r.hops_received
     << ", \"term_rounds\": " << r.term_rounds << "},\n";
  os << "  \"credit\": {\"budget_bytes\": " << r.credit_budget
     << ", \"in_flight_bytes\": " << r.credit_in_flight
     << ", \"stalls\": " << r.credit_stalls << "},\n";
  os << "  \"sample_rate\": " << json_number(sample_rate()) << ",\n";

  // Per-lane ring tails: the most recent window of each rank's timeline,
  // names resolved (the ring itself stores interned ids).
  os << "  \"lanes\": [";
  bool first_lane = true;
  if (session* s = global()) {
    s->visit_lanes([&](const recorder& rec) {
      os << (first_lane ? "" : ",") << "\n    {\"world\": " << rec.world()
         << ", \"rank\": " << rec.rank()
         << ", \"recorded\": " << rec.ring().recorded()
         << ", \"dropped\": " << rec.ring().dropped() << ", \"tail\": [";
      first_lane = false;
      std::vector<trace_event> tail;
      rec.ring().for_each([&](const trace_event& e) { tail.push_back(e); });
      constexpr std::size_t kTail = 64;
      const std::size_t start = tail.size() > kTail ? tail.size() - kTail : 0;
      const auto& names = rec.names();
      const auto name_of = [&](name_id id) -> std::string {
        return id < names.size() ? json_escape(names[id]) : std::string("?");
      };
      for (std::size_t i = start; i < tail.size(); ++i) {
        const trace_event& e = tail[i];
        os << (i == start ? "" : ",") << "\n      {\"name\": \""
           << name_of(e.name) << "\", \"ph\": \""
           << (e.kind == event_kind::complete ? 'X' : 'i')
           << "\", \"ts_us\": " << json_number(e.ts_us);
        if (e.kind == event_kind::complete) {
          os << ", \"dur_us\": " << json_number(e.dur_us);
        }
        if (e.arg0_name != no_name) {
          os << ", \"" << name_of(e.arg0_name) << "\": " << e.arg0;
        }
        if (e.arg1_name != no_name) {
          os << ", \"" << name_of(e.arg1_name) << "\": " << e.arg1;
        }
        os << '}';
      }
      os << "\n    ]}";
    });
  }
  os << "\n  ],\n";

  // Sampled journeys: completed count plus every in-flight journey with its
  // last-seen hop — the "where did it get stuck?" line of the postmortem.
  std::size_t complete = 0;
  os << "  \"journeys\": {\"in_flight\": [";
  bool first_j = true;
  constexpr std::size_t kMaxInFlight = 256;
  std::size_t listed = 0, in_flight = 0;
  for (const auto& [key, j] : journeys) {
    if (j.complete()) {
      ++complete;
      continue;
    }
    ++in_flight;
    if (listed >= kMaxInFlight) continue;
    ++listed;
    const hop_record& last = j.last_hop();
    os << (first_j ? "" : ",") << "\n    {\"world\": " << key.first
       << ", \"id\": " << key.second << ", \"origin\": " << j.origin()
       << ", \"hops_seen\": " << j.hops.size() << ", \"last\": {\"kind\": \""
       << json_escape(hop_event_name(last.kind)) << "\", \"rank\": "
       << last.rank << ", \"hop\": " << last.hop
       << ", \"ts_us\": " << json_number(last.ts_us) << "}}";
    first_j = false;
  }
  os << "\n  ], \"in_flight_total\": " << in_flight
     << ", \"complete\": " << complete << "}\n}\n";
}

}  // namespace

bool dump_postmortem(const stall_report& r, double stalled_ms,
                     const std::string& path) {
  recorder* self = tls();
  const int world = self != nullptr ? self->world() : -1;
  const int rank = self != nullptr ? self->rank() : -1;

  // NOTE: this is a crash-dump path — other rank threads may still be
  // appending to their rings while we read them. A torn event yields a
  // garbled tail entry, never a crash (rings are fixed arrays of PODs), and
  // a wedged run's peers are by definition mostly idle.
  journey_map journeys;
  if (session* s = global()) journeys = stitch(extract_hops(*s));

  std::size_t in_flight = 0;
  for (const auto& [key, j] : journeys) {
    if (!j.complete()) ++in_flight;
  }

  std::fprintf(
      stderr,
      "ygm: STALL suspected on world=%d rank=%d — no quiescence progress for "
      "%.0f ms (queued_bytes=%" PRIu64 " hops_sent=%" PRIu64
      " hops_received=%" PRIu64 " term_rounds=%" PRIu64
      ", %zu sampled journey(s) in flight); writing postmortem to %s\n",
      world, rank, stalled_ms, r.queued_bytes, r.hops_sent, r.hops_received,
      r.term_rounds, in_flight, path.c_str());
  std::size_t shown = 0;
  for (const auto& [key, j] : journeys) {
    if (j.complete() || shown >= 8) continue;
    const hop_record& last = j.last_hop();
    std::fprintf(stderr,
                 "ygm:   in-flight journey id=%" PRIu64
                 " origin=%d last seen: %s on rank %d (leg %u)\n",
                 key.second, j.origin(),
                 std::string(hop_event_name(last.kind)).c_str(), last.rank,
                 last.hop);
    ++shown;
  }

  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "ygm: could not write postmortem file %s\n",
                 path.c_str());
    return false;
  }
  write_postmortem_json(os, r, stalled_ms, world, rank, journeys);
  return static_cast<bool>(os);
}

}  // namespace ygm::telemetry::causal
