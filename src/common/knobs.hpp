// The knob table: every setting read from the environment, in one place
// (docs/KNOBS.md). Each knob has a name (its run_options field, where one
// exists), an environment variable, a default and a strict parser for its
// kind; its resolved value carries its source. Precedence: run_options
// field (or runtime setter) > environment > default; an empty variable is
// unset. The environment is read lazily — on the first current() and by
// every ygm::launch — so a malformed value raises ygm::error naming its
// variable from that call, never during static initialization.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ygm::knob {

/// In docs/KNOBS.md order.
enum class id : std::uint8_t {
  backend, progress_mode, chaos, chaos_seed, chaos_delay_prob,
  chaos_max_delay_ticks, chaos_iprobe_miss_prob, chaos_stall_prob,
  chaos_max_stall_us, trace_sample, credit_bytes, outq_cap_bytes, sample_ms,
  statusz, statusz_dir, stall_timeout_ms, postmortem_out, tmpdir,
  telemetry, bench_csv, count_
};
inline constexpr std::size_t kCount = static_cast<std::size_t>(id::count_);

/// integer: decimal, or hex after 0x, in [0, max]. real: a decimal number
/// in [0, max]. choice: one of choices. preset: a choice, optionally
/// followed by :SEED. text: anything.
enum class kind : std::uint8_t { integer, real, choice, preset, text };
enum class source : std::uint8_t { fallback, env, field };
std::string_view to_string(source s) noexcept;

struct spec {
  std::string_view name, env;
  kind type;
  std::string_view fallback;  ///< the default, in the knob's own syntax
  double max = 0;
  std::array<std::string_view, 3> choices{};
};
const spec& spec_of(id k) noexcept;
std::optional<std::size_t> choice_index(id k, std::string_view name) noexcept;

/// integer: num. real: real, and num holds min(real, 1) as the 64-bit
/// threshold a uniform hash is compared against (0 = never, ~0 = always).
/// choice: num is the index, text the name. preset: text is the name, num
/// the seed. text: text.
struct value {
  std::uint64_t num = 0;
  double real = 0.0;
  std::string text{};
  source from = source::fallback;
};

/// The value as the metrics JSON "config" object reports it.
std::string render(id k, const value& v);

class table {
 public:
  const value& operator[](id k) const noexcept {
    return values_[static_cast<std::size_t>(k)];
  }
  /// Lay a field over knob k, as num, real or text by its kind (a preset
  /// takes any description). Throws ygm::error naming the knob when out of
  /// range.
  void set(id k, value v);
  /// Re-read the environment (or default) for every knob no field set.
  void read_env();
  bool resolved() const noexcept { return resolved_; }

 private:
  std::array<value, kCount> values_{};
  bool resolved_ = false;
};

/// A table from the environment and the defaults alone.
table from_env();
/// The process's table, resolved on first use. Thread-safe.
const table& current();
inline const value& get(id k) { return current()[k]; }
/// table::set on the process's table.
void set(id k, value v);

/// ygm::launch holds one for each run while no rank runs: it re-reads the
/// environment on entry and restores the previous table with one
/// assignment on exit. Ranks read the table without synchronization, and
/// forked children inherit it.
class run_scope {
 public:
  run_scope();
  ~run_scope();
  run_scope(const run_scope&) = delete;
  run_scope& operator=(const run_scope&) = delete;

 private:
  table saved_;
};

namespace detail {
extern table g_current;
}

/// One load, no resolution: for per-message paths, which only run once an
/// endpoint or world exists, whose construction resolved the table.
inline std::uint64_t num_unchecked(id k) noexcept {
  return detail::g_current[k].num;
}

}  // namespace ygm::knob
