#include "common/knobs.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <mutex>

#include "common/assert.hpp"

namespace ygm::knob {

namespace {

constexpr double kU32 = std::numeric_limits<std::uint32_t>::max();
constexpr double kU64 = std::numeric_limits<std::uint64_t>::max();

// Flags are integers in [0, 1]; probabilities are reals in [0, 1].
constexpr std::array<spec, kCount> kSpecs{{
    {"backend", "YGM_TRANSPORT", kind::choice, "inproc", 0,
     {"inproc", "socket", "shm"}},
    {"progress_mode", "YGM_PROGRESS", kind::choice, "polling", 0,
     {"polling", "engine"}},
    {"chaos", "YGM_CHAOS", kind::preset, "off", 0, {"off", "light", "heavy"}},
    {"chaos_seed", "YGM_CHAOS_SEED", kind::integer, "0", kU64},
    {"chaos_delay_prob", "YGM_CHAOS_DELAY_PROB", kind::real, "0", 1},
    {"chaos_max_delay_ticks", "YGM_CHAOS_MAX_DELAY_TICKS", kind::integer, "0",
     kU32},
    {"chaos_iprobe_miss_prob", "YGM_CHAOS_IPROBE_MISS_PROB", kind::real, "0",
     1},
    {"chaos_stall_prob", "YGM_CHAOS_STALL_PROB", kind::real, "0", 1},
    {"chaos_max_stall_us", "YGM_CHAOS_MAX_STALL_US", kind::integer, "0", kU32},
    {"trace_sample", "YGM_TRACE_SAMPLE", kind::real, "0", 1},
    {"credit_bytes", "YGM_CREDIT_BYTES", kind::integer, "1048576", kU64},
    {"outq_cap_bytes", "YGM_OUTQ_CAP_BYTES", kind::integer, "4194304", kU64},
    {"sample_ms", "YGM_SAMPLE_MS", kind::integer, "100",
     std::numeric_limits<int>::max()},
    {"statusz", "YGM_STATUSZ", kind::integer, "0", 1},
    {"statusz_dir", "YGM_STATUSZ_DIR", kind::text, ""},
    {"stall_timeout_ms", "YGM_STALL_TIMEOUT_MS", kind::real, "0",
     std::numeric_limits<double>::infinity()},
    {"postmortem_out", "YGM_POSTMORTEM_OUT", kind::text,
     "ygm_postmortem.json"},
    {"tmpdir", "TMPDIR", kind::text, "/tmp"},
    {"telemetry", "YGM_TELEMETRY", kind::integer, "0", 1},
    {"bench_csv", "YGM_BENCH_CSV", kind::integer, "0", 1},
}};

bool parse_uint(std::string_view t, std::uint64_t& out) {
  const int base = t.starts_with("0x") ? 16 : 10;
  if (base == 16) t.remove_prefix(2);
  const auto r = std::from_chars(t.data(), t.data() + t.size(), out, base);
  return r.ec == std::errc{} && r.ptr == t.data() + t.size();
}

bool parse_real(std::string_view t, double& out) {
  const auto r = std::from_chars(t.data(), t.data() + t.size(), out);
  return r.ec == std::errc{} && r.ptr == t.data() + t.size();
}

std::uint64_t threshold_of(double x) {
  if (!(x > 0.0)) return 0;
  if (x >= 1.0) return ~std::uint64_t{0};
  const auto t = static_cast<std::uint64_t>(x * 4294967296.0) << 32;
  return t == 0 ? 1 : t;  // a positive fraction must be able to sample
}

/// Range-checks `v` for knob `s` and fills the fields derived from it.
bool admit(const spec& s, value& v) {
  switch (s.type) {
    case kind::integer:
      return static_cast<double>(v.num) <= s.max;  // exact below 2^53
    case kind::real:
      v.num = threshold_of(v.real);
      return v.real >= 0.0 && v.real <= s.max;  // false for NaN
    case kind::choice:
      if (v.num >= s.choices.size() || s.choices[v.num].empty()) return false;
      v.text = s.choices[v.num];
      return true;
    default:
      return true;
  }
}

std::string expected(const spec& s) {
  if (s.type == kind::integer || s.type == kind::real) {
    char max[32];
    return (s.type == kind::integer ? "a decimal or 0x-hex integer in [0, "
                                    : "a decimal number in [0, ") +
           std::string(max, std::to_chars(max, max + 32, s.max).ptr) + "]";
  }
  std::string out = "one of";
  for (const auto c : s.choices) {
    if (!c.empty()) out.append(" ").append(c);
  }
  return s.type == kind::preset ? out + ", optionally :SEED" : out;
}

/// The one parser: `text` in knob `k`'s syntax; `who` names it in errors.
value parse(id k, std::string_view text, std::string_view who, source from) {
  const spec& s = spec_of(k);
  value v{.from = from};
  bool ok = true;
  if (s.type == kind::integer) {
    ok = parse_uint(text, v.num);
  } else if (s.type == kind::real) {
    ok = parse_real(text, v.real);
  } else if (s.type == kind::text) {
    v.text = text;
  } else {
    const auto colon =
        s.type == kind::preset ? text.find(':') : std::string_view::npos;
    const auto i = choice_index(k, text.substr(0, colon));
    ok = i && (colon == text.npos || parse_uint(text.substr(colon + 1), v.num));
    if (s.type == kind::choice) v.num = i.value_or(0);
    if (s.type == kind::preset) v.text = text.substr(0, colon);
  }
  if (!ok || !admit(s, v)) {
    throw ygm::error(std::string(who) + "='" + std::string(text) +
                     "' is malformed: expected " + expected(s));
  }
  return v;
}

value resolve(id k) {
  const spec& s = spec_of(k);
  const char* e = std::getenv(std::string(s.env).c_str());
  return e != nullptr && *e != '\0'
             ? parse(k, e, s.env, source::env)
             : parse(k, s.fallback, s.name, source::fallback);
}

std::mutex g_mtx;

table& resolved_locked() {
  if (!detail::g_current.resolved()) detail::g_current.read_env();
  return detail::g_current;
}

}  // namespace

namespace detail {
constinit table g_current;
}

std::string_view to_string(source s) noexcept {
  constexpr std::string_view names[] = {"default", "env", "field"};
  return names[static_cast<std::size_t>(s)];
}

const spec& spec_of(id k) noexcept {
  return kSpecs[static_cast<std::size_t>(k)];
}

std::optional<std::size_t> choice_index(id k, std::string_view name) noexcept {
  const auto& c = spec_of(k).choices;
  const auto it = std::find(c.begin(), c.end(), name);
  if (name.empty() || it == c.end()) return std::nullopt;
  return it - c.begin();
}

std::string render(id k, const value& v) {
  const kind type = spec_of(k).type;
  if (type == kind::integer) return std::to_string(v.num);
  if (type == kind::real) {
    char buf[32];
    return {buf, std::to_chars(buf, buf + sizeof buf, v.real).ptr};
  }
  if (type == kind::preset && v.from != source::field && v.num != 0) {
    return v.text + ":" + std::to_string(v.num);
  }
  return v.text;
}

void table::set(id k, value v) {
  const spec& s = spec_of(k);
  v.from = source::field;
  YGM_CHECK(admit(s, v), std::string(s.name) + "=" + render(k, v) +
                             " is out of range: expected " + expected(s));
  values_[static_cast<std::size_t>(k)] = std::move(v);
}

void table::read_env() {
  for (std::size_t i = 0; i < kCount; ++i) {
    if (values_[i].from != source::field) values_[i] = resolve(id(i));
  }
  resolved_ = true;
}

table from_env() {
  table t;
  t.read_env();
  return t;
}

const table& current() {
  std::lock_guard lock(g_mtx);
  return resolved_locked();
}

void set(id k, value v) {
  std::lock_guard lock(g_mtx);
  resolved_locked().set(k, std::move(v));
}

run_scope::run_scope() {
  std::lock_guard lock(g_mtx);
  saved_ = detail::g_current;
  table run = saved_;
  run.read_env();  // may throw; the process's table is untouched until here
  detail::g_current = std::move(run);
}

run_scope::~run_scope() {
  std::lock_guard lock(g_mtx);
  detail::g_current = saved_;
}

}  // namespace ygm::knob
