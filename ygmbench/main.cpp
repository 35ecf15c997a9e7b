// ygm_bench: runs one benchmark workload on the inproc backend in this
// process, checks every output against a serial reference, and prints one
// JSON line per launch (set-up plus timed solves). ygmbench/run.py builds
// this binary, runs it, and turns those lines into the benchmark's metrics;
// ygmbench/NOTES.md describes the workloads and the metrics.
//
// With --trace 1, launches cycle through three kinds: plain, span launches
// that bind benchmark-side spans (spans.hpp) to every rank thread, and
// counter launches that install a telemetry session so the counters the
// library publishes can be read afterwards. The two are kept apart because
// the session slows the library's message path far more than the spans do.
// Isolated layer probes run before the first launch.
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/connected_components.hpp"
#include "apps/degree_count.hpp"
#include "common/rng.hpp"
#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "graph/delegates.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "routing/router.hpp"
#include "ser/serialize.hpp"
#include "spans.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/endpoint.hpp"

namespace {

using namespace ygm;
namespace sp = ygmbench::spans;
using clk = std::chrono::steady_clock;

double secs(clk::duration d) { return std::chrono::duration<double>(d).count(); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clk::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// Nearest-rank percentile, q in [0, 1]; reorders v.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const auto at = v.begin() + static_cast<std::ptrdiff_t>(k == 0 ? 0 : k - 1);
  std::nth_element(v.begin(), at, v.end());
  return *at;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ------------------------------------------------------------ JSON output

std::string json_string(std::string_view s) {
  return "\"" + telemetry::json_escape(s) + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Flat JSON object builder; values are appended in call order.
class json_obj {
 public:
  json_obj& num(std::string_view k, double v) { return raw(k, json_number(v)); }
  json_obj& num(std::string_view k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  json_obj& num(std::string_view k, std::uint32_t v) {
    return raw(k, std::to_string(v));
  }
  json_obj& num(std::string_view k, int v) { return raw(k, std::to_string(v)); }
  json_obj& str(std::string_view k, std::string_view v) {
    return raw(k, json_string(v));
  }
  json_obj& flag(std::string_view k, bool v) { return raw(k, v ? "true" : "false"); }
  json_obj& raw(std::string_view k, std::string_view json) {
    if (!body_.empty()) body_ += ',';
    body_ += json_string(k);
    body_ += ':';
    body_ += json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// ---------------------------------------------------------------- options

enum class workload { degree_er, cc_rmat, cascade_engine };

// Launch knobs the benchmark pins instead of inheriting YGM_* variables;
// the values are the library defaults (core/launch.hpp).
constexpr std::size_t kCreditBytes = std::size_t{1} << 20;
constexpr std::size_t kOutqCapBytes = std::size_t{4} << 20;
constexpr int kSampleMs = 100;

/// Per launch (and for the layer probes); a miss ends the process.
constexpr double kDeadlineS = 30;

struct options {
  workload wl = workload::degree_er;
  std::string wl_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  progress::mode mode = progress::mode::polling;
  int nodes = 2;
  int cores = 2;
  routing::scheme_kind scheme = routing::scheme_kind::nlnr;
  std::size_t capacity = core::default_mailbox_capacity;
  int log_vertices = 20;             ///< degree_er
  std::uint64_t edges = 1ULL << 24;  ///< degree_er; cc_rmat uses 8 << scale
  int scale = 18;                    ///< cc_rmat
  std::uint64_t threshold = 256;     ///< cc_rmat delegate degree
  std::uint32_t ttl = 12000;         ///< cascade_engine hops per token
  std::uint32_t probe_ttl = 10000;   ///< latency probe on the bulk workloads
  int reps = 1;                      ///< timed solves per untraced launch

  int nranks() const noexcept { return nodes * cores; }
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ygm_bench: %s\n"
               "usage: ygm_bench --workload degree_er|cc_rmat|cascade_engine "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       [--progress polling|engine] "
               "[--layout NODESxCORES] [--scale K]\n",
               why.c_str());
  std::exit(2);
}

options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + a);
    kv[a.substr(2)] = argv[++i];
  }
  const auto take = [&](const std::string& k) -> std::optional<std::string> {
    const auto it = kv.find(k);
    if (it == kv.end()) return std::nullopt;
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  const auto to_u64 = [](const std::string& k, const std::string& v) {
    char* end = nullptr;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0') usage("--" + k + " needs an integer");
    return static_cast<std::uint64_t>(x);
  };

  options o;
  const auto wl = take("workload");
  if (!wl) usage("--workload is required");
  o.wl_name = *wl;
  if (*wl == "degree_er") {
    o.wl = workload::degree_er;
  } else if (*wl == "cc_rmat") {
    o.wl = workload::cc_rmat;
    o.scheme = routing::scheme_kind::node_remote;
    o.reps = 2;
  } else if (*wl == "cascade_engine") {
    o.wl = workload::cascade_engine;
    o.nodes = 3;
    o.cores = 1;
    o.scheme = routing::scheme_kind::no_route;
    o.mode = progress::mode::engine;
  } else {
    usage("unknown workload " + *wl);
  }

  if (auto v = take("seed")) o.seed = to_u64("seed", *v);
  if (auto v = take("seconds")) {
    o.seconds = std::strtod(v->c_str(), nullptr);
    if (!(o.seconds > 0)) usage("--seconds must be positive");
  }
  if (auto v = take("trace")) {
    if (*v != "0" && *v != "1") usage("--trace must be 0 or 1");
    o.trace = *v == "1";
  }
  if (auto v = take("trace-out")) o.trace_out = *v;
  if (auto v = take("progress")) {
    const auto m = progress::mode_from_name(*v);
    if (!m) usage("--progress must be polling or engine");
    o.mode = *m;
  }
  if (auto v = take("layout")) {
    if (std::sscanf(v->c_str(), "%dx%d", &o.nodes, &o.cores) != 2 ||
        o.nodes < 1 || o.cores < 1 || o.nranks() < 2 || o.nranks() > 64) {
      usage("--layout must be NODESxCORES with 2..64 ranks");
    }
  }
  if (auto v = take("scale")) {
    o.scale = static_cast<int>(to_u64("scale", *v));
    if (o.scale < 4 || o.scale > 26) usage("--scale must be in [4, 26]");
  }
  if (!kv.empty()) usage("unknown option --" + kv.begin()->first);
  if (o.wl == workload::cc_rmat) o.edges = std::uint64_t{8} << o.scale;
  return o;
}

ygm::run_options run_opts(int nranks, progress::mode m) {
  ygm::run_options r;
  r.nranks = nranks;
  r.backend = transport::backend_kind::inproc;
  r.chaos = mpisim::chaos_config{};
  r.progress_mode = m;
  r.trace_sample = 0.0;
  r.credit_bytes = kCreditBytes;
  r.outq_cap_bytes = kOutqCapBytes;
  r.sample_ms = kSampleMs;
  r.statusz = 0;
  return r;
}

// --------------------------------------------------------------- watchdog

/// Per-launch deadline. A launch that overruns it is counted as a failure:
/// the watchdog reports it and ends the process, since hung rank threads
/// cannot be reclaimed.
class watchdog {
 public:
  watchdog() : thread_([this] { loop(); }) {}
  ~watchdog() {
    stop_.store(true);
    thread_.join();
  }
  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;

  void arm(double limit_s, std::string what) {
    std::lock_guard lock(mu_);
    armed_ = true;
    limit_s_ = limit_s;
    what_ = std::move(what);
    deadline_ = clk::now() + std::chrono::duration_cast<clk::duration>(
                                 std::chrono::duration<double>(limit_s));
  }
  void disarm() {
    std::lock_guard lock(mu_);
    armed_ = false;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::lock_guard lock(mu_);
      if (armed_ && clk::now() > deadline_) {
        emit(json_obj()
                 .raw("deadline_missed", json_obj()
                                             .str("what", what_)
                                             .num("limit_s", limit_s_)
                                             .done())
                 .done());
        std::_Exit(3);
      }
    }
  }

  std::mutex mu_;
  bool armed_ = false;
  double limit_s_ = 0;
  std::string what_;
  clk::time_point deadline_{};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it reads
};

/// What a launch records besides its results.
enum class instrument { none, spans, counters };

const char* to_string(instrument i) {
  switch (i) {
    case instrument::none:
      return "none";
    case instrument::spans:
      return "spans";
    case instrument::counters:
      return "counters";
  }
  return "?";
}

// ------------------------------------------------------------ the cascade

/// One token per rank, forwarded hop by hop; carries its send time.
struct token {
  std::uint32_t origin = 0;
  std::uint32_t hop = 0;
  std::uint64_t sent_ns = 0;

  bool operator==(const token&) const = default;
};

/// Token cascade: every rank injects one token, and every delivery forwards
/// it to a seeded-random other rank until it has made `ttl` hops, so each
/// token is delivered ttl + 1 times. Each hop waits on the one before it, so
/// nothing coalesces and the per-hop send -> callback latency is the
/// mailbox's latency path. It is the cascade_engine workload (the engine
/// probe of traced runs) and, on the bulk workloads, the latency probe run
/// after each timed solve.
class cascade {
 public:
  cascade(core::comm_world& w, std::uint32_t ttl, std::uint64_t seed,
          std::size_t capacity)
      : world_(w),
        ttl_(ttl),
        seed_(seed),
        mb_(w, [this](const token& t) { on_token(t); }, capacity),
        count_(static_cast<std::size_t>(w.size()), 0),
        hop_sum_(static_cast<std::size_t>(w.size()), 0) {}

  /// Collective: inject this rank's token and return at quiescence.
  void run() {
    std::fill(count_.begin(), count_.end(), 0);
    std::fill(hop_sum_.begin(), hop_sum_.end(), 0);
    lat_us_.clear();
    forward(static_cast<std::uint32_t>(world_.rank()), 0);
    sp::scope s(sp::kind::wait_empty);
    mb_.wait_empty();
  }

  const core::mailbox_stats& stats() const noexcept { return mb_.stats(); }
  std::size_t credit_budget() const noexcept { return mb_.credit_budget(); }
  std::vector<double>& latencies_us() noexcept { return lat_us_; }
  /// Per origin rank: deliveries seen here, and the sum of their hop indices.
  const std::vector<std::uint64_t>& counts() const noexcept { return count_; }
  const std::vector<std::uint64_t>& hop_sums() const noexcept { return hop_sum_; }

 private:
  void on_token(const token& t) {
    sp::scope s(sp::kind::callback);
    lat_us_.push_back(static_cast<double>(now_ns() - t.sent_ns) * 1e-3);
    ++count_[t.origin];
    hop_sum_[t.origin] += t.hop;
    if (t.hop < ttl_) forward(t.origin, t.hop + 1);
  }

  void forward(std::uint32_t origin, std::uint32_t hop) {
    const auto p = static_cast<std::uint64_t>(world_.size());
    const std::uint64_t h =
        splitmix64(seed_ ^ (std::uint64_t{origin} << 32 | hop));
    const int dest = static_cast<int>(
        (static_cast<std::uint64_t>(world_.rank()) + 1 + h % (p - 1)) % p);
    sp::scope s(sp::kind::send);
    mb_.send(dest, token{origin, hop, now_ns()});
  }

  core::comm_world& world_;
  std::uint32_t ttl_;
  std::uint64_t seed_;
  core::mailbox<token> mb_;
  std::vector<std::uint64_t> count_;
  std::vector<std::uint64_t> hop_sum_;
  std::vector<double> lat_us_;
};

// ------------------------------------------------------- per-rank results

struct solve_out {
  double secs = 0;
  std::uint64_t deliveries = 0;
  core::mailbox_stats stats;  ///< the timed mailbox traffic of this solve
  sp::phase spans;
  std::uint64_t mismatches = 0;   ///< output entries that differ from the reference
  std::uint64_t degree_sum = 0;   ///< degree_er
  int passes = 0;                 ///< cc_rmat
  std::uint64_t broadcasts = 0;   ///< cc_rmat
  std::uint64_t delegates = 0;    ///< cc_rmat
  // Cascade (workload or latency probe) results for the check.
  std::vector<double> lat_us;
  std::vector<std::uint64_t> token_counts;
  std::vector<std::uint64_t> token_hop_sums;
};

/// Knobs as the library resolved them inside a run.
struct knobs {
  std::uint64_t credit_bytes = 0;
  std::uint64_t credit_budget = 0;
  std::uint64_t outq_cap_bytes = 0;
  int sample_ms = 0;
};

struct rank_out {
  double setup_done_s = 0;  ///< since the launch began
  sp::phase setup_spans;
  std::vector<solve_out> solves;
  knobs resolved;
};

core::mailbox_stats minus(core::mailbox_stats a, const core::mailbox_stats& b) {
  a.app_sends -= b.app_sends;
  a.app_bcasts -= b.app_bcasts;
  a.deliveries -= b.deliveries;
  a.hops_sent -= b.hops_sent;
  a.hops_received -= b.hops_received;
  a.forwards -= b.forwards;
  a.local_packets -= b.local_packets;
  a.remote_packets -= b.remote_packets;
  a.local_bytes -= b.local_bytes;
  a.remote_bytes -= b.remote_bytes;
  a.flushes -= b.flushes;
  a.credit_stalls -= b.credit_stalls;
  return a;
}

sp::phase take_phase() {
  return sp::tl_lane != nullptr ? sp::tl_lane->take() : sp::phase{};
}

knobs resolved_knobs(const core::comm_world& world, std::size_t credit_budget) {
  return {world.credit_bytes(), credit_budget, transport::outq_cap_bytes(),
          telemetry::live::resolved_sample_ms()};
}

void record_cascade(cascade& cas, solve_out& so) {
  so.lat_us = std::move(cas.latencies_us());
  so.token_counts = cas.counts();
  so.token_hop_sums = cas.hop_sums();
}

/// After a bulk solve: run the latency probe on the same world, untraced.
void run_probe(cascade& probe, solve_out& so) {
  {
    sp::bind untraced(nullptr);
    probe.run();
  }
  record_cascade(probe, so);
}

// -------------------------------------------------------------- reference

struct reference {
  std::vector<std::uint64_t> degrees;    ///< degree_er, per global vertex
  std::vector<graph::vertex_id> labels;  ///< cc_rmat, per global vertex
};

reference make_reference(const options& o) {
  reference ref;
  const int p = o.nranks();
  if (o.wl == workload::degree_er) {
    ref.degrees.assign(std::size_t{1} << o.log_vertices, 0);
    for (int r = 0; r < p; ++r) {
      const graph::erdos_renyi_generator gen(graph::vertex_id{1} << o.log_vertices,
                                             o.edges, o.seed, r, p);
      gen.for_each([&](const graph::edge& e) {
        ++ref.degrees[e.src];
        ++ref.degrees[e.dst];
      });
    }
  } else if (o.wl == workload::cc_rmat) {
    std::vector<graph::edge> all;
    all.reserve(o.edges);
    for (int r = 0; r < p; ++r) {
      const graph::rmat_generator gen(o.scale, o.edges,
                                      graph::rmat_params::graph500(), o.seed, r, p);
      gen.for_each([&](const graph::edge& e) { all.push_back(e); });
    }
    ref.labels = apps::connected_components_reference(
        graph::vertex_id{1} << o.scale, all);
  }
  return ref;
}

// ------------------------------------------------------------- rank bodies

void degree_body(const options& o, const reference& ref, int reps,
                 core::comm_world& world, rank_out& out,
                 clk::time_point t_launch) {
  mpisim::comm& c = world.mpi();
  const graph::vertex_id nv = graph::vertex_id{1} << o.log_vertices;
  const graph::erdos_renyi_generator gen(nv, o.edges, o.seed, c.rank(), c.size());
  const graph::round_robin_partition part{c.size()};
  std::vector<std::uint64_t> degrees(part.local_count(c.rank(), nv), 0);

  // Paper Algorithm 1: one message per edge endpoint to its owner.
  core::mailbox<graph::vertex_id> mb(
      world,
      [&](const graph::vertex_id& v) {
        sp::scope s(sp::kind::callback);
        ++degrees[part.local_index(v)];
      },
      o.capacity);
  cascade probe(world, o.probe_ttl, o.seed, o.capacity);
  // The edges are generated into memory during set-up, as on cc_rmat, so
  // the solve times the message path alone.
  std::vector<graph::edge> mine;
  mine.reserve(gen.local_edge_count());
  {
    sp::scope s(sp::kind::for_each);
    gen.for_each([&](const graph::edge& e) { mine.push_back(e); });
  }
  out.resolved = resolved_knobs(world, mb.credit_budget());
  out.setup_done_s = secs(clk::now() - t_launch);
  out.setup_spans = take_phase();

  for (int rep = 0; rep < reps; ++rep) {
    std::fill(degrees.begin(), degrees.end(), 0);
    c.barrier();
    const core::mailbox_stats before = mb.stats();
    const auto t0 = clk::now();
    for (const auto& e : mine) {
      {
        sp::scope s1(sp::kind::send);
        mb.send(part.owner(e.src), e.src);
      }
      sp::scope s2(sp::kind::send);
      mb.send(part.owner(e.dst), e.dst);
    }
    {
      sp::scope s(sp::kind::wait_empty);
      mb.wait_empty();
    }
    solve_out so;
    so.secs = secs(clk::now() - t0);
    so.spans = take_phase();
    so.stats = minus(mb.stats(), before);
    so.deliveries = so.stats.deliveries;
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      so.degree_sum += degrees[i];
      if (degrees[i] != ref.degrees[part.global_id(c.rank(), i)]) ++so.mismatches;
    }
    run_probe(probe, so);
    out.solves.push_back(std::move(so));
  }
}

void cc_body(const options& o, const reference& ref, int reps,
             core::comm_world& world, rank_out& out, clk::time_point t_launch) {
  mpisim::comm& c = world.mpi();
  const graph::rmat_generator gen(o.scale, o.edges,
                                  graph::rmat_params::graph500(), o.seed,
                                  c.rank(), c.size());
  const graph::round_robin_partition part{c.size()};
  cascade probe(world, o.probe_ttl, o.seed, o.capacity);

  apps::degree_count_result deg;
  {
    sp::scope s(sp::kind::degree_count);
    deg = apps::degree_count(world, gen, o.capacity);
  }
  graph::delegate_set delegates;
  {
    sp::scope s(sp::kind::select_delegates);
    delegates = graph::select_delegates(world, deg.local_degrees, part,
                                        o.threshold);
  }
  std::vector<graph::edge> mine;
  mine.reserve(gen.local_edge_count());
  {
    sp::scope s(sp::kind::for_each);
    gen.for_each([&](const graph::edge& e) { mine.push_back(e); });
  }
  // connected_components ingests every edge direction through a mailbox,
  // except delegate-delegate edges, which it stores in place.
  std::uint64_t ingest_deliveries = 0;
  for (const auto& e : mine) {
    if (!(delegates.contains(e.src) && delegates.contains(e.dst))) {
      ingest_deliveries += 2;
    }
  }
  out.resolved = resolved_knobs(world, probe.credit_budget());
  out.setup_done_s = secs(clk::now() - t_launch);
  out.setup_spans = take_phase();

  for (int rep = 0; rep < reps; ++rep) {
    c.barrier();
    const auto t0 = clk::now();
    apps::cc_result res;
    {
      sp::scope s(sp::kind::connected_components);
      res = apps::connected_components(world, mine, gen.num_vertices(),
                                       delegates, o.capacity);
    }
    solve_out so;
    so.secs = secs(clk::now() - t0);
    so.spans = take_phase();
    so.stats = res.stats;
    so.deliveries = res.stats.deliveries + ingest_deliveries;
    so.passes = res.passes;
    so.broadcasts = res.broadcasts;
    so.delegates = delegates.size();
    for (std::size_t i = 0; i < res.local_labels.size(); ++i) {
      if (res.local_labels[i] != ref.labels[part.global_id(c.rank(), i)]) {
        ++so.mismatches;
      }
    }
    run_probe(probe, so);
    out.solves.push_back(std::move(so));
  }
}

void cascade_body(const options& o, int reps, core::comm_world& world,
                  rank_out& out, clk::time_point t_launch) {
  mpisim::comm& c = world.mpi();
  cascade cas(world, o.ttl, o.seed, o.capacity);
  out.resolved = resolved_knobs(world, cas.credit_budget());
  out.setup_done_s = secs(clk::now() - t_launch);
  out.setup_spans = take_phase();

  for (int rep = 0; rep < reps; ++rep) {
    c.barrier();
    const core::mailbox_stats before = cas.stats();
    const auto t0 = clk::now();
    cas.run();
    solve_out so;
    so.secs = secs(clk::now() - t0);
    so.spans = take_phase();
    so.stats = minus(cas.stats(), before);
    so.deliveries = so.stats.deliveries;
    record_cascade(cas, so);
    out.solves.push_back(std::move(so));
  }
}

// ------------------------------------------------------------------ launch

/// One launch's outcome, reduced over ranks.
struct launch_out {
  bool ok = true;
  std::vector<std::string> errors;
  double setup_s = 0;
  std::vector<std::string> solve_json;
  std::string layers_json;  ///< span and counter launches only
  knobs resolved;           ///< as rank 0 saw them
};

/// Sums per-kind span totals over ranks for the trace file.
std::array<sp::totals, sp::kinds> g_span_totals{};

void add_totals(const sp::phase& p) {
  for (std::size_t k = 0; k < sp::kinds; ++k) {
    g_span_totals[k].count += p.by_kind[k].count;
    g_span_totals[k].total_s += p.by_kind[k].total_s;
    g_span_totals[k].self_s += p.by_kind[k].self_s;
  }
}

void write_trace(const std::string& path,
                 const std::vector<std::unique_ptr<sp::lane>>& lanes) {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t r = 0; r < lanes.size(); ++r) {
    const auto& kept = lanes[r]->kept();
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const sp::record& rec = kept[i];
      os << (first ? "\n" : ",\n");
      first = false;
      os << json_obj()
                .str("name", sp::names[static_cast<std::size_t>(rec.k)])
                .str("ph", "X")
                .num("pid", 0)
                .num("tid", static_cast<int>(r))
                .num("ts", rec.start_us)
                .num("dur", rec.dur_us)
                .raw("args", json_obj()
                                 .num("id", static_cast<int>(i))
                                 .num("parent", rec.parent)
                                 .num("self_us", rec.self_us)
                                 .num("weight", rec.weight)
                                 .done())
                .done();
    }
  }
  os << "\n],\"spanTotals\":{";
  for (std::size_t k = 0; k < sp::kinds; ++k) {
    if (k != 0) os << ',';
    os << json_string(sp::names[k]) << ':'
       << json_obj()
              .num("count", g_span_totals[k].count)
              .num("total_s", g_span_totals[k].total_s)
              .num("self_s", g_span_totals[k].self_s)
              .done();
  }
  os << "}}\n";
}

std::uint64_t counter(const telemetry::metrics_registry& m, std::string_view name) {
  const auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second;
}

/// Per-layer numbers from a span launch (which runs exactly one solve):
/// span times and mailbox_stats.
std::string span_layer_json(const std::vector<rank_out>& outs) {
  const double p = static_cast<double>(outs.size());
  double send_s = 0, callback_s = 0, wait_s = 0, gen_s = 0, degree_s = 0,
         delegates_s = 0, unaccounted = 0, solve_s = 0;
  core::mailbox_stats st;
  std::uint64_t broadcasts = 0;
  for (const rank_out& ro : outs) {
    const solve_out& so = ro.solves.front();
    const auto self = [&](sp::kind k) {
      return so.spans.by_kind[static_cast<std::size_t>(k)].self_s;
    };
    const auto setup = [&](sp::kind k) {
      return ro.setup_spans.by_kind[static_cast<std::size_t>(k)];
    };
    send_s += self(sp::kind::send) + self(sp::kind::send_bcast);
    callback_s += self(sp::kind::callback);
    wait_s += self(sp::kind::wait_empty);
    gen_s += setup(sp::kind::for_each).self_s;
    degree_s += setup(sp::kind::degree_count).total_s;
    delegates_s += setup(sp::kind::select_delegates).total_s;
    unaccounted += 1.0 - ratio(so.spans.covered_s, so.secs);
    solve_s = std::max(solve_s, so.secs);
    st += so.stats;
    broadcasts += so.broadcasts;
  }
  const solve_out& s0 = outs.front().solves.front();
  const double st_deliveries = static_cast<double>(st.deliveries);
  return json_obj()
      .num("mailbox.send_s", send_s / p)
      .num("mailbox.callback_s", callback_s / p)
      .num("mailbox.flushes", st.flushes)
      .num("mailbox.bytes_per_delivery",
           ratio(static_cast<double>(st.local_bytes + st.remote_bytes),
                 st_deliveries))
      .num("mailbox.remote_packet_bytes_avg", st.avg_remote_packet_bytes())
      .num("mailbox.credit_stalls", st.credit_stalls)
      .num("mailbox.wait_empty_s", wait_s / p)
      .num("termination.wait_share", ratio(wait_s / p, solve_s))
      .num("mailbox.hops_per_delivery",
           ratio(static_cast<double>(st.hops_sent), st_deliveries))
      .num("mailbox.forwards", st.forwards)
      .num("graph.gen_s", gen_s / p)
      .num("cc.degree_s", degree_s / p)
      .num("cc.delegates_s", delegates_s / p)
      .num("cc.passes", s0.passes)
      .num("cc.broadcasts", broadcasts)
      .num("cc.delegates", s0.delegates)
      .num("trace.unaccounted_share", unaccounted / p)
      .done();
}

/// Per-layer numbers from a counter launch: the telemetry session's
/// counters, which cover the whole launch.
std::string counter_layer_json(const telemetry::metrics_registry& m) {
  const auto get = [&](std::string_view name) {
    return static_cast<double>(counter(m, name));
  };
  const double deliveries = get("mailbox.deliveries");
  const double hits = get("pool.hits");
  const double batches = get("progress.deferred_batches");
  return json_obj()
      .num("pool.hit_ratio", ratio(hits, hits + get("pool.misses")))
      .num("alloc.bytes_per_msg", ratio(get("alloc.bytes"), deliveries))
      .num("engine.passes", get("progress.engine.passes"))
      .num("engine.steal_ratio", ratio(get("progress.engine.steals"),
                                       get("progress.engine.steal_attempts")))
      .num("engine.hook_pumps", get("progress.engine.hook_pumps"))
      .num("progress.deferred_batches", batches)
      .num("engine.deliveries_per_batch", ratio(deliveries, batches))
      .num("transport.inproc.outq_stalls", get("transport.inproc.outq_stalls"))
      .done();
}

/// Checks one solve's outputs (summed over ranks); returns the failures.
std::vector<std::string> check_solve(const options& o,
                                     const std::vector<rank_out>& outs,
                                     std::size_t i) {
  std::vector<std::string> bad;
  std::uint64_t mismatches = 0, degree_sum = 0;
  const std::size_t p = outs.size();
  std::vector<std::uint64_t> counts(p, 0), hop_sums(p, 0);
  for (const rank_out& ro : outs) {
    const solve_out& so = ro.solves[i];
    mismatches += so.mismatches;
    degree_sum += so.degree_sum;
    for (std::size_t r = 0; r < p && r < so.token_counts.size(); ++r) {
      counts[r] += so.token_counts[r];
      hop_sums[r] += so.token_hop_sums[r];
    }
  }
  if (mismatches != 0) {
    bad.push_back(std::to_string(mismatches) +
                  " output entries differ from the serial reference");
  }
  if (o.wl == workload::degree_er && degree_sum != 2 * o.edges) {
    bad.push_back("degree sum " + std::to_string(degree_sum) + " != 2 x edges");
  }
  const std::uint64_t ttl =
      o.wl == workload::cascade_engine ? o.ttl : o.probe_ttl;
  for (std::size_t r = 0; r < p; ++r) {
    if (counts[r] != ttl + 1 || hop_sums[r] != ttl * (ttl + 1) / 2) {
      bad.push_back("token " + std::to_string(r) + " delivered " +
                    std::to_string(counts[r]) + " times, expected " +
                    std::to_string(ttl + 1));
    }
  }
  return bad;
}

/// `first_lanes` receives the span lanes of the first span launch, which
/// the trace file shows span by span.
launch_out run_launch(const options& o, const reference& ref, instrument inst,
                      int reps, watchdog& dog, const std::string& what,
                      std::vector<std::unique_ptr<sp::lane>>& first_lanes) {
  launch_out lo;
  const int p = o.nranks();
  std::vector<rank_out> outs(static_cast<std::size_t>(p));
  std::vector<std::unique_ptr<sp::lane>> lanes;
  std::optional<telemetry::session> sess;
  const auto t_launch = clk::now();
  const std::uint64_t epoch = sp::ticks();
  if (inst == instrument::spans) {
    for (int r = 0; r < p; ++r) {
      lanes.push_back(std::make_unique<sp::lane>(
          epoch, 4096, splitmix64(o.seed ^ (std::uint64_t{1} << 32 |
                                       static_cast<std::uint64_t>(r)))));
    }
  }
  if (inst == instrument::counters) {
    telemetry::config tc;
    tc.ring_capacity = 0;  // counters only; no library timeline
    sess.emplace(tc);
    telemetry::set_global(&*sess);
  }
  struct unset_global {
    bool on;
    ~unset_global() {
      if (on) telemetry::set_global(nullptr);
    }
  } unset{inst == instrument::counters};

  dog.arm(kDeadlineS, what);
  try {
    ygm::launch(run_opts(p, o.mode), [&](mpisim::comm& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      sp::bind b(inst == instrument::spans ? lanes[r].get() : nullptr);
      core::comm_world world(c, routing::topology(o.nodes, o.cores), o.scheme);
      switch (o.wl) {
        case workload::degree_er:
          degree_body(o, ref, reps, world, outs[r], t_launch);
          break;
        case workload::cc_rmat:
          cc_body(o, ref, reps, world, outs[r], t_launch);
          break;
        case workload::cascade_engine:
          cascade_body(o, reps, world, outs[r], t_launch);
          break;
      }
    });
  } catch (const std::exception& e) {
    lo.ok = false;
    lo.errors.push_back(std::string("exception: ") + e.what());
  }
  dog.disarm();
  if (!lo.ok) return lo;

  lo.resolved = outs.front().resolved;
  for (const rank_out& ro : outs) {
    lo.setup_s = std::max(lo.setup_s, ro.setup_done_s);
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(reps); ++i) {
    for (auto& e : check_solve(o, outs, i)) {
      lo.ok = false;
      lo.errors.push_back("solve " + std::to_string(i) + ": " + e);
    }
    double solve_s = 0;
    std::uint64_t deliveries = 0;
    std::vector<double> lat;
    for (rank_out& ro : outs) {
      solve_out& so = ro.solves[i];
      solve_s = std::max(solve_s, so.secs);
      deliveries += so.deliveries;
      lat.insert(lat.end(), so.lat_us.begin(), so.lat_us.end());
    }
    const std::size_t samples = lat.size();
    const double p50 = percentile(lat, 0.50);
    const double p99 = percentile(lat, 0.99);
    lo.solve_json.push_back(json_obj()
                                .num("solve_s", solve_s)
                                .num("deliveries", deliveries)
                                .num("p50_us", p50)
                                .num("p99_us", p99)
                                .num("latency_samples",
                                     static_cast<std::uint64_t>(samples))
                                .done());
  }
  if (inst == instrument::spans) {
    for (const rank_out& ro : outs) {
      add_totals(ro.setup_spans);
      for (const solve_out& so : ro.solves) add_totals(so.spans);
    }
    lo.layers_json = span_layer_json(outs);
    if (first_lanes.empty()) first_lanes = std::move(lanes);
  }
  if (inst == instrument::counters) {
    lo.layers_json = counter_layer_json(sess->merged_metrics());
  }
  return lo;
}

// ------------------------------------------------------------------ probes

/// Same shape as connected_components' label message (vertex, label).
struct label_like {
  graph::vertex_id v = 0;
  graph::vertex_id label = 0;

  bool operator==(const label_like&) const = default;
};

volatile std::uint64_t g_probe_sink = 0;

/// Nanoseconds per ser::append_bytes + ser::from_bytes round trip of T.
template <class T, class Make>
double ser_roundtrip_ns(Make make) {
  constexpr std::size_t kInputs = 4096;
  constexpr int kRounds = 64;
  constexpr int kBatches = 7;
  xoshiro256 rng(0x5e7);
  std::vector<T> in;
  for (std::size_t i = 0; i < kInputs; ++i) in.push_back(make(rng));
  std::vector<std::byte> buf;
  std::uint64_t wrong = 0;
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = clk::now();
    for (int round = 0; round < kRounds; ++round) {
      for (const T& v : in) {
        buf.clear();
        ser::append_bytes(v, buf);
        wrong += ser::from_bytes<T>({buf.data(), buf.size()}) == v ? 0 : 1;
      }
    }
    per_op.push_back(secs(clk::now() - t0) * 1e9 / (kInputs * kRounds));
  }
  YGM_CHECK(wrong == 0, "serialization round trip changed a message");
  return median(per_op);
}

double ser_probe(const options& o) {
  switch (o.wl) {
    case workload::degree_er:
      return ser_roundtrip_ns<graph::vertex_id>(
          [](xoshiro256& r) { return r.below(graph::vertex_id{1} << 20); });
    case workload::cc_rmat:
      return ser_roundtrip_ns<label_like>([](xoshiro256& r) {
        return label_like{r.below(graph::vertex_id{1} << 18),
                          r.below(graph::vertex_id{1} << 18)};
      });
    case workload::cascade_engine:
      break;
  }
  return ser_roundtrip_ns<token>([](xoshiro256& r) {
    return token{static_cast<std::uint32_t>(r.below(3)),
                 static_cast<std::uint32_t>(r.below(1u << 14)), r()};
  });
}

/// Nanoseconds per router::next_hop for the workload's scheme and layout.
double router_probe(const options& o) {
  const routing::router rt(o.scheme, routing::topology(o.nodes, o.cores));
  const auto p = static_cast<std::uint64_t>(o.nranks());
  xoshiro256 rng(0x407);
  std::vector<std::pair<int, int>> pairs;
  while (pairs.size() < 4096) {
    const auto here = static_cast<int>(rng.below(p));
    const auto dst = static_cast<int>(rng.below(p));
    if (here != dst) pairs.emplace_back(here, dst);
  }
  constexpr int kRounds = 256;
  constexpr int kBatches = 7;
  std::uint64_t sink = 0;
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = clk::now();
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [here, dst] : pairs) {
        sink += static_cast<std::uint64_t>(rt.next_hop(here, dst));
      }
    }
    per_op.push_back(secs(clk::now() - t0) * 1e9 /
                     (static_cast<double>(pairs.size()) * kRounds));
  }
  g_probe_sink = g_probe_sink + sink;
  return median(per_op);
}

/// Microseconds per round trip of an 8-byte mpisim::comm send/recv between
/// two inproc ranks in polling mode.
double pingpong_probe() {
  constexpr int kIters = 2000;
  constexpr int kBatches = 7;
  constexpr int kTag = 11;
  std::vector<double> per_rt;
  std::atomic<std::uint64_t> wrong{0};
  ygm::launch(run_opts(2, progress::mode::polling), [&](mpisim::comm& c) {
    for (int b = 0; b <= kBatches; ++b) {  // batch 0 warms up
      c.barrier();
      const auto t0 = clk::now();
      for (std::uint64_t i = 0; i < kIters; ++i) {
        if (c.rank() == 0) {
          c.send(i, 1, kTag);
          if (c.recv<std::uint64_t>(1, kTag) != i) ++wrong;
        } else {
          c.send(c.recv<std::uint64_t>(0, kTag), 0, kTag);
        }
      }
      if (c.rank() == 0 && b > 0) {
        per_rt.push_back(secs(clk::now() - t0) * 1e6 / kIters);
      }
    }
  });
  YGM_CHECK(wrong.load() == 0, "ping-pong returned a wrong value");
  return median(per_rt);
}

/// Peak resident set size since the last reset_peak_rss(), in MiB. Linux
/// keeps the high-water mark as VmHWM; elsewhere (or if /proc is not
/// readable) this falls back to the process-lifetime peak from getrusage.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Restart the VmHWM high-water mark at the current RSS, so each launch's
/// peak can be read on its own: the process-lifetime peak is the maximum
/// over launches, and on degree_er that maximum swings with how far one
/// launch's message backlog happened to grow. The heap's free pages are
/// handed back first; otherwise pages the allocator kept from an earlier
/// launch's backlog stay resident and raise every later launch's start.
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string provenance_json(const options& o, const knobs& k) {
  json_obj knob_json;
  knob_json.num("capacity", static_cast<std::uint64_t>(o.capacity))
      .num("credit_bytes", k.credit_bytes)
      .num("credit_budget", k.credit_budget)
      .num("outq_cap_bytes", k.outq_cap_bytes)
      .num("sample_ms", k.sample_ms);
  if (o.mode == progress::mode::engine) {
    const progress::engine::options eo;
    knob_json.num("engine_spin_passes", eo.spin_passes)
        .num("engine_idle_sleep_us",
             static_cast<std::uint64_t>(eo.idle_sleep.count()))
        .num("engine_ring_slots", static_cast<std::uint64_t>(eo.ring_slots));
  }
  json_obj size;
  switch (o.wl) {
    case workload::degree_er:
      size.num("vertices", std::uint64_t{1} << o.log_vertices)
          .num("edges", o.edges)
          .num("probe_ttl", o.probe_ttl);
      break;
    case workload::cc_rmat:
      size.num("scale", o.scale)
          .num("edges", o.edges)
          .num("delegate_threshold", o.threshold)
          .num("probe_ttl", o.probe_ttl);
      break;
    case workload::cascade_engine:
      size.num("ttl", o.ttl);
      break;
  }
#if defined(YGM_TELEMETRY_DISABLED)
  constexpr bool telemetry_compiled = false;
#else
  constexpr bool telemetry_compiled = true;
#endif
  return json_obj()
      .str("workload", o.wl_name)
      .num("seed", o.seed)
      .str("build_type", YGMBENCH_BUILD_TYPE)
      .str("compiler", YGMBENCH_COMPILER)
      .flag("telemetry_compiled", telemetry_compiled)
      .num("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .str("backend", "inproc")
      .str("progress_mode", progress::to_string(o.mode))
      .str("layout", std::to_string(o.nodes) + "x" + std::to_string(o.cores))
      .str("routing", routing::to_string(o.scheme))
      .raw("size", size.done())
      .raw("knobs", knob_json.done())
      .num("seconds", o.seconds)
      .num("deadline_s", kDeadlineS)
      .done();
}

}  // namespace


int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  if (o.trace) sp::timer_bias_s();  // calibrate before any launch
  watchdog dog;
  const reference ref = make_reference(o);

  if (o.trace) {
    dog.arm(kDeadlineS, "layer probes");
    try {
      emit(json_obj()
               .raw("probes", json_obj()
                                  .num("ser.roundtrip_ns", ser_probe(o))
                                  .num("router.next_hop_ns", router_probe(o))
                                  .num("transport.pingpong_us", pingpong_probe())
                                  .done())
               .done());
    } catch (const std::exception& e) {
      emit(json_obj().str("probe_error", e.what()).done());
      return 1;
    }
    dog.disarm();
  }

  std::vector<std::unique_ptr<sp::lane>> first_lanes;
  bool all_ok = true;
  int launch_no = 0;
  const auto launch_once = [&](bool warmup, instrument inst, int reps) {
    const std::string what = "launch " + std::to_string(launch_no);
    reset_peak_rss();
    launch_out lo = run_launch(o, ref, inst, reps, dog, what, first_lanes);
    all_ok = all_ok && lo.ok;
    std::string errors = "[";
    for (std::size_t i = 0; i < lo.errors.size(); ++i) {
      errors += (i == 0 ? "" : ",") + json_string(lo.errors[i]);
    }
    std::string solves = "[";
    for (std::size_t i = 0; i < lo.solve_json.size(); ++i) {
      solves += (i == 0 ? "" : ",") + lo.solve_json[i];
    }
    json_obj line;
    line.num("launch", launch_no++)
        .flag("warmup", warmup)
        .str("instrument", to_string(inst))
        .flag("ok", lo.ok)
        .raw("errors", errors + "]")
        .num("setup_s", lo.setup_s)
        .num("peak_rss_mib", peak_rss_mib())
        .raw("solves", solves + "]");
    if (!lo.layers_json.empty()) line.raw("layers", lo.layers_json);
    emit(line.done());
    return lo;
  };

  // The first launch in a fresh process runs much slower (page faults on
  // fresh buffers), so it is checked but not timed.
  const launch_out warm = launch_once(true, instrument::none, 1);
  emit(json_obj().raw("provenance", provenance_json(o, warm.resolved)).done());

  const auto t0 = clk::now();
  constexpr instrument kCycle[] = {instrument::none, instrument::spans,
                                   instrument::counters};
  for (int i = 0; i < 3 || secs(clk::now() - t0) < o.seconds; ++i) {
    if (o.trace) {
      launch_once(false, kCycle[i % 3], 1);
    } else {
      launch_once(false, instrument::none, o.reps);
    }
  }

  if (o.trace && !o.trace_out.empty()) write_trace(o.trace_out, first_lanes);
  emit(json_obj().flag("done", true).done());
  return all_ok ? 0 : 1;
}
