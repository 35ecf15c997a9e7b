// Benchmark-side spans around calls into the library's public API.
//
// A span is opened by the benchmark's own code around one call into a layer
// (mailbox send/wait_empty, the receive callback it registered, generator
// for_each, the apps entry points). Spans nest on a per-thread stack, so a
// callback that runs inside mailbox::send is that send's child, and each
// span's self time is its duration minus the time its children cover.
//
// Spans around every message (send, send_bcast, the receive callback) would
// cost more than a message if each one read the clock, so those are timed
// on a random 1 in kSampleEvery of their calls, and each timed one stands
// for kSampleEvery in the totals, self times and covered time. The timer's
// own cost inside a timed span (timer_bias_s, measured once) is taken off
// its duration, since the weight would multiply it too. Every other kind is
// timed every time, and every span is counted. A timed span is subtracted
// from its parent only when the parent is timed and is its direct parent; a
// timed span inside an untimed one is already in the estimate made from
// that untimed span's timed siblings.
//
// Per-kind totals (count, total, self) cost nothing to keep; the first
// `keep_limit` timed spans of a lane are also kept whole, with their parent
// and weight, for the Chrome trace the benchmark writes at the end.
//
// With no lane bound to the thread (untraced runs) a span is one
// thread-local load and a branch.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace ygmbench::spans {

enum class kind : unsigned {
  for_each,              ///< graph generator for_each (streams the edges)
  send,                  ///< mailbox::send
  send_bcast,            ///< mailbox::send_bcast
  callback,              ///< the benchmark's mailbox receive callback
  wait_empty,            ///< mailbox::wait_empty
  degree_count,          ///< apps::degree_count
  select_delegates,      ///< graph::select_delegates
  connected_components,  ///< apps::connected_components
  count_
};

inline constexpr std::size_t kinds = static_cast<std::size_t>(kind::count_);

inline constexpr std::array<std::string_view, kinds> names = {
    "graph.for_each",         "mailbox.send",
    "mailbox.send_bcast",     "bench.callback",
    "mailbox.wait_empty",     "apps.degree_count",
    "graph.select_delegates", "apps.connected_components"};

/// The spans whose union trace.unaccounted_share measures against solve_s.
constexpr bool accounted(kind k) noexcept {
  return k == kind::send || k == kind::send_bcast || k == kind::callback ||
         k == kind::wait_empty;
}

/// The kinds that open around every message and are timed on a sample.
constexpr bool per_message(kind k) noexcept {
  return k == kind::send || k == kind::send_bcast || k == kind::callback;
}

/// One in this many per-message spans is timed, on average.
inline constexpr std::uint64_t kSampleEvery = 64;

struct totals {
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// What one phase (set-up or one solve) of one rank recorded.
struct phase {
  std::array<totals, kinds> by_kind{};
  /// Wall time covered by the outermost accounted spans.
  double covered_s = 0;
};

/// A span kept whole for the trace file.
struct record {
  kind k = kind::send;
  int parent = -1;  ///< index of the enclosing kept span, -1 at top level
  double start_us = 0;
  double dur_us = 0;
  double self_us = 0;
  double weight = 1;  ///< how many spans this one stands for
};

/// Span timestamps: the time-stamp counter where there is one (about half
/// the cost of steady_clock); elsewhere steady_clock nanoseconds.
inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Seconds per tick, measured once against steady_clock.
inline double seconds_per_tick() {
#if defined(__x86_64__)
  static const double s = [] {
    using sc = std::chrono::steady_clock;
    const auto c0 = sc::now();
    const std::uint64_t t0 = ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t t1 = ticks();
    const auto c1 = sc::now();
    return std::chrono::duration<double>(c1 - c0).count() /
           static_cast<double>(t1 - t0);
  }();
  return s;
#else
  return 1e-9;
#endif
}

inline double timer_bias_s();

/// One thread's spans. Aligned so that lanes of different threads, which are
/// written on every span, never share a cache line.
class alignas(128) lane {
 public:
  /// `epoch` (a ticks() value) is time zero of the kept spans; `seed` picks
  /// which per-message spans are timed; `bias_s` is taken off every timed
  /// span's duration.
  lane(std::uint64_t epoch, std::size_t keep_limit, std::uint64_t seed,
       double bias_s = timer_bias_s())
      : epoch_(epoch),
        keep_limit_(keep_limit),
        spt_(seconds_per_tick()),
        bias_s_(bias_s),
        rng_(seed | 1) {
    stack_.reserve(16);
  }

  /// Opens a span; returns whether it is timed. An untimed span must be
  /// closed with skip(), a timed one with close().
  bool open(kind k) {
    ++cur_.by_kind[static_cast<std::size_t>(k)].count;
    if (accounted(k)) ++acc_depth_;
    if (!per_message(k)) {
      open_timed(k, 1.0);
    } else if (--countdown_ == 0) {
      // Gaps uniform in [1, 2 * kSampleEvery - 1]: one in kSampleEvery on
      // average, without a period the workload could fall in step with.
      countdown_ = 1 + next_random() % (2 * kSampleEvery - 1);
      open_timed(k, static_cast<double>(kSampleEvery));
    } else {
      ++untimed_depth_;
      return false;
    }
    return true;
  }

  void skip(kind k) {
    --untimed_depth_;
    if (accounted(k)) --acc_depth_;
  }

  // Out of line, so the untimed path above stays small enough to inline.
  [[gnu::noinline]] void close() {
    const std::uint64_t now = ticks();
    const frame f = stack_.back();
    stack_.pop_back();
    const double dur = seconds(now - f.start) - bias_s_;
    const double self = dur - f.child_s;
    totals& t = cur_.by_kind[static_cast<std::size_t>(f.k)];
    t.total_s += f.weight * dur;
    t.self_s += f.weight * self;
    // Only a direct child is subtracted from the enclosing timed span.
    if (!stack_.empty() && stack_.back().untimed_depth == untimed_depth_) {
      stack_.back().child_s += f.weight * dur;
    }
    if (f.kept >= 0) {
      kept_[static_cast<std::size_t>(f.kept)].dur_us = dur * 1e6;
      kept_[static_cast<std::size_t>(f.kept)].self_us = self * 1e6;
    }
    if (accounted(f.k) && --acc_depth_ == 0) cur_.covered_s += f.weight * dur;
  }

  /// End the current phase: return what it recorded and start afresh.
  phase take() {
    phase p = cur_;
    cur_ = phase{};
    return p;
  }

  const std::vector<record>& kept() const noexcept { return kept_; }

 private:
  [[gnu::noinline]] void open_timed(kind k, double weight) {
    const std::uint64_t now = ticks();
    int kept = -1;
    if (kept_.size() < keep_limit_) {
      kept = static_cast<int>(kept_.size());
      record r;
      r.k = k;
      r.parent = stack_.empty() ? -1 : stack_.back().kept;
      r.start_us = us(now - epoch_);
      r.weight = weight;
      kept_.push_back(r);
    }
    stack_.push_back({k, now, 0.0, weight, kept, untimed_depth_});
  }

  struct frame {
    kind k;
    std::uint64_t start;
    double child_s;
    double weight;
    int kept;
    int untimed_depth;  ///< untimed spans open when this one opened
  };

  double seconds(std::uint64_t d) const { return static_cast<double>(d) * spt_; }
  double us(std::uint64_t d) const { return seconds(d) * 1e6; }

  std::uint64_t next_random() noexcept {  // xorshift64
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  std::uint64_t epoch_;
  std::size_t keep_limit_;
  double spt_;
  double bias_s_;
  std::uint64_t rng_;
  std::uint64_t countdown_ = 1;  ///< per-message spans until the next timed one
  std::vector<frame> stack_;
  std::vector<record> kept_;
  phase cur_;
  int acc_depth_ = 0;      ///< accounted spans open, timed or not
  int untimed_depth_ = 0;  ///< untimed spans open
};

/// The duration an empty timed span records: the part of opening and
/// closing it that falls between its two clock reads. Measured once.
inline double timer_bias_s() {
  static const double s = [] {
    constexpr int kSpans = 2000;
    lane l(ticks(), 0, 1, 0.0);
    std::vector<double> per_span;
    for (int b = 0; b < 9; ++b) {
      for (int i = 0; i < kSpans; ++i) {
        l.open(kind::for_each);
        l.close();
      }
      per_span.push_back(
          l.take().by_kind[static_cast<std::size_t>(kind::for_each)].total_s /
          kSpans);
    }
    std::sort(per_span.begin(), per_span.end());
    return per_span[per_span.size() / 2];
  }();
  return s;
}

inline thread_local lane* tl_lane = nullptr;

/// RAII: bind a lane (or none) to this thread for the scope's lifetime.
class bind {
 public:
  explicit bind(lane* l) : prev_(tl_lane) { tl_lane = l; }
  ~bind() { tl_lane = prev_; }
  bind(const bind&) = delete;
  bind& operator=(const bind&) = delete;

 private:
  lane* prev_;
};

/// RAII span; inert when no lane is bound.
class scope {
 public:
  explicit scope(kind k) : lane_(tl_lane), k_(k) {
    if (lane_ != nullptr) timed_ = lane_->open(k);
  }
  ~scope() {
    if (lane_ == nullptr) return;
    if (timed_) {
      lane_->close();
    } else {
      lane_->skip(k_);
    }
  }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  lane* lane_;
  kind k_;
  bool timed_ = false;
};

}  // namespace ygmbench::spans
