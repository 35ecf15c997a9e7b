// ygm_top — live cluster view over the per-process statusz endpoints.
//
// Every OS process hosting telemetry lanes serves a Unix-domain socket
// (telemetry/statusz.hpp) at <dir>/ygm-statusz.<pid>.sock. This tool scans
// that directory, polls each endpoint, and renders a refreshing cluster
// view: per-rank message rates, queue/credit/outq occupancy, progress-engine
// steal residency, and live p99 end-to-end latency from the online sketches
// — no offline ygm_trace pass required.
//
// Modes:
//   ygm_top [--dir D] [--interval-ms N]      refreshing terminal view
//   ygm_top --once --json                    one machine-readable snapshot
//   ygm_top --once --json --selfcheck        CI: exit 0 iff >=1 endpoint
//                                            answered health+metrics sanely
//                                            (--require-latency additionally
//                                            demands a live e2e sketch)
//   --wait-ms N                              selfcheck/first-poll patience
//
// Directory resolution is the server side's (live::statusz_dir()): --dir >
// YGM_STATUSZ_DIR > $TMPDIR > /tmp. Point --dir at a socket-backend rendezvous directory to
// watch that job (children bind their statusz sockets next to the rank
// sockets).
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/mini_json.hpp"
#include "telemetry/live.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/statusz.hpp"

namespace {

using ygm::common::json_parser;
using ygm::common::json_value;

struct options {
  std::string dir;
  int interval_ms = 1000;
  int wait_ms = 0;
  bool once = false;
  bool json = false;
  bool selfcheck = false;
  bool require_latency = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--dir D] [--interval-ms N] [--wait-ms N] [--once]\n"
      "          [--json] [--selfcheck] [--require-latency]\n",
      argv0);
}

std::vector<std::string> discover(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* ent = readdir(d)) {
    const std::string name = ent->d_name;
    if (name.rfind("ygm-statusz.", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".sock") == 0) {
      out.push_back(dir + "/" + name);
    }
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------------ parsed model

struct lane_view {
  int world = 0;
  int rank = 0;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
};

struct latency_view {
  std::string scheme;
  std::string kind;
  ygm::telemetry::histogram histo;  // rebuilt from shipped bucket parts
};

struct proc_view {
  std::string sock;
  double pid = 0;
  bool ok = false;
  double sample_ms = 0;
  double ticks = 0;
  bool engine = false;
  double engine_passes = 0;
  double engine_steal_attempts = 0;
  double engine_steals = 0;
  double engine_hook_pumps = 0;
  std::vector<lane_view> lanes;
  std::vector<latency_view> latency;
};

double num_or(const ygm::common::json_object& o, const std::string& k,
              double fallback) {
  auto it = o.find(k);
  return it != o.end() && it->second.is_number() ? it->second.num() : fallback;
}

bool parse_proc(const std::string& sock, proc_view& pv) {
  pv = proc_view{};
  pv.sock = sock;
  const std::string health =
      ygm::telemetry::live::statusz_query(sock, "health");
  if (health.empty()) return false;
  try {
    const json_value h = json_parser(health).parse();
    if (!h.is_object()) return false;
    const auto& ho = h.obj();
    pv.pid = num_or(ho, "pid", 0);
    auto ok_it = ho.find("ok");
    pv.ok = ok_it != ho.end() &&
            std::holds_alternative<bool>(ok_it->second.v) &&
            std::get<bool>(ok_it->second.v);
    pv.sample_ms = num_or(ho, "sample_ms", 0);
    pv.ticks = num_or(ho, "ticks", 0);
    if (auto e = ho.find("engine"); e != ho.end() && e->second.is_object()) {
      const auto& eo = e->second.obj();
      auto a = eo.find("active");
      pv.engine = a != eo.end() &&
                  std::holds_alternative<bool>(a->second.v) &&
                  std::get<bool>(a->second.v);
      pv.engine_passes = num_or(eo, "passes", 0);
      pv.engine_steal_attempts = num_or(eo, "steal_attempts", 0);
      pv.engine_steals = num_or(eo, "steals", 0);
      pv.engine_hook_pumps = num_or(eo, "hook_pumps", 0);
    }
  } catch (const std::exception&) {
    return false;
  }

  const std::string metrics =
      ygm::telemetry::live::statusz_query(sock, "metrics");
  if (metrics.empty()) return false;
  try {
    const json_value m = json_parser(metrics).parse();
    const auto& lanes = m.obj().at("lanes");
    for (const auto& lv : lanes.arr()) {
      const auto& lo = lv.obj();
      lane_view lane;
      lane.world = static_cast<int>(num_or(lo, "world", 0));
      lane.rank = static_cast<int>(num_or(lo, "rank", 0));
      if (auto c = lo.find("counters"); c != lo.end() && c->second.is_object()) {
        for (const auto& [k, v] : c->second.obj()) {
          if (v.is_number()) lane.counters[k] = v.num();
        }
      }
      if (auto g = lo.find("gauges"); g != lo.end() && g->second.is_object()) {
        for (const auto& [k, v] : g->second.obj()) {
          if (v.is_number()) lane.gauges[k] = v.num();
        }
      }
      pv.lanes.push_back(std::move(lane));
    }
  } catch (const std::exception&) {
    return false;
  }

  const std::string lat = ygm::telemetry::live::statusz_query(sock, "latency");
  if (!lat.empty()) {
    try {
      const json_value l = json_parser(lat).parse();
      for (const auto& ev : l.obj().at("latency").arr()) {
        const auto& eo = ev.obj();
        latency_view entry;
        entry.scheme = eo.at("scheme").str();
        entry.kind = eo.at("kind").str();
        std::array<std::uint64_t, ygm::telemetry::histogram::num_buckets> b{};
        if (auto bk = eo.find("buckets");
            bk != eo.end() && bk->second.is_array()) {
          for (const auto& pair : bk->second.arr()) {
            const auto& pa = pair.arr();
            const auto idx = static_cast<std::size_t>(pa.at(0).num());
            if (idx < b.size()) {
              b[idx] = static_cast<std::uint64_t>(pa.at(1).num());
            }
          }
        }
        entry.histo = ygm::telemetry::histogram::from_parts(
            b, static_cast<std::uint64_t>(num_or(eo, "count", 0)),
            num_or(eo, "sum", 0), num_or(eo, "min", 0), num_or(eo, "max", 0));
        pv.latency.push_back(std::move(entry));
      }
    } catch (const std::exception&) {
      // latency is optional — a process with no traced traffic has none
    }
  }
  return true;
}

/// Merge every process's (scheme, kind) sketches — identical bucket math to
/// the per-process merge in statusz.cpp, one level up.
std::map<std::pair<std::string, std::string>, ygm::telemetry::histogram>
merge_latency(const std::vector<proc_view>& procs) {
  std::map<std::pair<std::string, std::string>, ygm::telemetry::histogram>
      merged;
  for (const auto& p : procs) {
    for (const auto& l : p.latency) {
      merged[{l.scheme, l.kind}].merge(l.histo);
    }
  }
  return merged;
}

// ------------------------------------------------------------- JSON output

std::string jnum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void print_json(const std::vector<proc_view>& procs, bool selfcheck_ok) {
  std::string out = "{\"endpoints\":" + std::to_string(procs.size());
  out += ",\"selfcheck\":";
  out += selfcheck_ok ? "true" : "false";
  out += ",\"procs\":[";
  bool first = true;
  for (const auto& p : procs) {
    if (!first) out += ',';
    first = false;
    out += "{\"pid\":" + jnum(p.pid) + ",\"ok\":";
    out += p.ok ? "true" : "false";
    out += ",\"sample_ms\":" + jnum(p.sample_ms);
    out += ",\"ticks\":" + jnum(p.ticks);
    out += ",\"engine_active\":";
    out += p.engine ? "true" : "false";
    if (p.engine) {
      out += ",\"engine_passes\":" + jnum(p.engine_passes);
      out += ",\"engine_steals\":" + jnum(p.engine_steals);
    }
    out += ",\"lanes\":[";
    bool fl = true;
    for (const auto& l : p.lanes) {
      if (!fl) out += ',';
      fl = false;
      out += "{\"world\":" + std::to_string(l.world) +
             ",\"rank\":" + std::to_string(l.rank);
      const auto c = [&](const char* k) {
        auto it = l.counters.find(k);
        return it != l.counters.end() ? it->second : 0.0;
      };
      const auto g = [&](const char* k) {
        auto it = l.gauges.find(k);
        return it != l.gauges.end() ? it->second : 0.0;
      };
      out += ",\"deliveries\":" + jnum(c("mailbox.deliveries"));
      out += ",\"mpi_sends\":" + jnum(c("mpi.sends"));
      out += ",\"queued_bytes\":" + jnum(g("queued_bytes"));
      out += ",\"credit_used\":" + jnum(g("credit_used"));
      out += ",\"outq_bytes\":" + jnum(g("outq_bytes"));
      out += '}';
    }
    out += "]}";
  }
  out += "],\"latency\":[";
  first = true;
  for (const auto& [key, h] : merge_latency(procs)) {
    if (!first) out += ',';
    first = false;
    out += "{\"scheme\":\"" + key.first + "\",\"kind\":\"" + key.second +
           "\",\"count\":" + std::to_string(h.count());
    out += ",\"p50_us\":" + jnum(h.percentile(0.50));
    out += ",\"p99_us\":" + jnum(h.percentile(0.99));
    out += ",\"p999_us\":" + jnum(h.percentile(0.999));
    out += '}';
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
}

// --------------------------------------------------------- terminal output

struct rate_state {
  std::map<std::tuple<double, int, int, std::string>, double> prev;
  std::chrono::steady_clock::time_point prev_at{};
  bool primed = false;
};

void print_view(const std::vector<proc_view>& procs, rate_state& rs) {
  const auto now = std::chrono::steady_clock::now();
  const double dt =
      rs.primed
          ? std::chrono::duration<double>(now - rs.prev_at).count()
          : 0.0;
  std::string out = "\x1b[H\x1b[2J";  // home + clear
  char line[256];
  std::snprintf(line, sizeof(line),
                "ygm_top — %zu process(es)\n"
                "%-8s %-6s %-6s %12s %12s %10s %10s %10s\n",
                procs.size(), "pid", "world", "rank", "deliv/s", "sends/s",
                "queuedB", "creditB", "outqB");
  out += line;
  for (const auto& p : procs) {
    for (const auto& l : p.lanes) {
      const auto rate = [&](const std::string& k) {
        auto it = l.counters.find(k);
        const double cur = it != l.counters.end() ? it->second : 0.0;
        const auto key = std::make_tuple(p.pid, l.world, l.rank, k);
        const auto pit = rs.prev.find(key);
        double r = 0;
        if (pit != rs.prev.end() && dt > 0 && cur >= pit->second) {
          r = (cur - pit->second) / dt;
        }
        rs.prev[key] = cur;
        return r;
      };
      const auto g = [&](const char* k) {
        auto it = l.gauges.find(k);
        return it != l.gauges.end() ? it->second : 0.0;
      };
      std::snprintf(line, sizeof(line),
                    "%-8.0f %-6d %-6d %12.0f %12.0f %10.0f %10.0f %10.0f\n",
                    p.pid, l.world, l.rank, rate("mailbox.deliveries"),
                    rate("mpi.sends"), g("queued_bytes"), g("credit_used"),
                    g("outq_bytes"));
      out += line;
    }
    if (p.engine) {
      const double steal_pct =
          p.engine_steal_attempts > 0
              ? 100.0 * p.engine_steals / p.engine_steal_attempts
              : 0.0;
      std::snprintf(line, sizeof(line),
                    "%-8.0f engine passes=%.0f steals=%.0f (%.1f%% of "
                    "attempts) hook_pumps=%.0f\n",
                    p.pid, p.engine_passes, p.engine_steals, steal_pct,
                    p.engine_hook_pumps);
      out += line;
    }
  }
  out += "\nlive latency (merged sketches):\n";
  const auto merged = merge_latency(procs);
  if (merged.empty()) {
    out += "  (none — enable causal tracing, e.g. YGM_TRACE_SAMPLE=0.05)\n";
  }
  for (const auto& [key, h] : merged) {
    std::snprintf(line, sizeof(line),
                  "  %-10s %-8s n=%-10llu p50=%.0fus p99=%.0fus p999=%.0fus\n",
                  key.first.c_str(), key.second.c_str(),
                  static_cast<unsigned long long>(h.count()),
                  h.percentile(0.50), h.percentile(0.99),
                  h.percentile(0.999));
    out += line;
  }
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
  rs.prev_at = now;
  rs.primed = true;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&](int& idx) -> const char* {
      if (idx + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++idx];
    };
    if (a == "--dir") {
      o.dir = need(i);
    } else if (a == "--interval-ms") {
      o.interval_ms = std::atoi(need(i));
    } else if (a == "--wait-ms") {
      o.wait_ms = std::atoi(need(i));
    } else if (a == "--once") {
      o.once = true;
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--selfcheck") {
      o.selfcheck = true;
    } else if (a == "--require-latency") {
      o.require_latency = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (o.dir.empty()) o.dir = ygm::telemetry::live::statusz_dir();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(o.wait_ms);
  rate_state rs;
  for (;;) {
    std::vector<proc_view> procs;
    for (const auto& sock : discover(o.dir)) {
      proc_view pv;
      // A vanished socket (process exited between scan and query) is
      // skipped, not an error.
      if (parse_proc(sock, pv)) procs.push_back(std::move(pv));
    }

    bool check_ok = false;
    if (o.selfcheck) {
      bool any_ok = false;
      bool any_latency = false;
      for (const auto& p : procs) {
        if (p.ok && !p.lanes.empty()) any_ok = true;
        for (const auto& l : p.latency) {
          if (l.kind == "e2e" && l.histo.count() > 0) any_latency = true;
        }
      }
      check_ok = any_ok && (!o.require_latency || any_latency);
    }

    const bool waiting =
        (procs.empty() || (o.selfcheck && !check_ok)) &&
        std::chrono::steady_clock::now() < deadline;
    if (waiting) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }

    if (o.json) {
      print_json(procs, check_ok);
    } else {
      print_view(procs, rs);
    }
    if (o.once || o.selfcheck) {
      if (o.selfcheck && !check_ok) {
        std::fprintf(stderr,
                     "ygm_top --selfcheck FAILED: %zu endpoint(s) in %s%s\n",
                     procs.size(), o.dir.c_str(),
                     o.require_latency ? " (live e2e latency required)" : "");
        return 1;
      }
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(o.interval_ms));
  }
}
