// Journey stitching: turn per-rank causal hop events back into per-message
// journeys (header-only; shared by tests, the stall postmortem writer, and
// the tools/ygm_trace offline analyzer).
//
// A hop_record is the analyzer-side view of one "trace.*" ring event,
// whichever transport it arrived by (live session ring, or parsed back out
// of a Chrome trace JSON). stitch() groups hops by (world, journey id) and
// orders each group causally: by completed-leg index first, then by the
// within-leg stage order forward -> enqueue -> flush -> deliver
// (wall timestamps cannot order a leg's stages — a flush span's start time
// IS its enqueue time).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/causal.hpp"

namespace ygm::telemetry::causal {

/// One hop event, decoded.
struct hop_record {
  int world = 0;
  int rank = 0;
  std::uint64_t id = 0;
  hop_kind kind = hop_kind::enqueue;
  double ts_us = 0;
  double dur_us = 0;   ///< queue residency for flush, else 0
  std::uint32_t hop = 0;
  std::uint64_t bytes = 0;
};

/// Causal sort key within one journey: which leg, then which stage of it.
inline int hop_stage_order(hop_kind k) noexcept {
  switch (k) {
    case hop_kind::forward:
      return 0;  // relay decision precedes the re-enqueue it causes
    case hop_kind::enqueue:
      return 1;
    case hop_kind::flush:
      return 2;
    case hop_kind::deliver:
      return 3;
    case hop_kind::credit_stall:
      return 4;  // never stitched into journeys (extract_hops skips it)
  }
  return 4;
}

/// One sampled message's reconstructed life, hops in causal order.
struct journey {
  std::vector<hop_record> hops;

  std::size_t delivers() const {
    return static_cast<std::size_t>(
        std::count_if(hops.begin(), hops.end(), [](const hop_record& h) {
          return h.kind == hop_kind::deliver;
        }));
  }
  /// Completed network legs = coalesced flushes the message rode.
  std::size_t legs() const {
    return static_cast<std::size_t>(
        std::count_if(hops.begin(), hops.end(), [](const hop_record& h) {
          return h.kind == hop_kind::flush;
        }));
  }
  bool complete() const { return delivers() == 1; }
  /// Rank that initiated the journey (-1 if the origin hop was lost to
  /// ring overwrite).
  int origin() const {
    for (const auto& h : hops) {
      if (h.hop == 0 && h.kind == hop_kind::enqueue) return h.rank;
    }
    return -1;
  }
  /// Final destination rank (-1 while in flight).
  int dest() const {
    for (const auto& h : hops) {
      if (h.kind == hop_kind::deliver) return h.rank;
    }
    return -1;
  }
  const hop_record& last_hop() const { return hops.back(); }
};

/// Journeys keyed by (world, journey id) — ids are only unique per run, and
/// one session may span several mpisim worlds.
using journey_map = std::map<std::pair<int, std::uint64_t>, journey>;

inline journey_map stitch(std::vector<hop_record> hops) {
  journey_map out;
  for (auto& h : hops) out[{h.world, h.id}].hops.push_back(h);
  for (auto& [key, j] : out) {
    std::sort(j.hops.begin(), j.hops.end(),
              [](const hop_record& a, const hop_record& b) {
                if (a.hop != b.hop) return a.hop < b.hop;
                const int sa = hop_stage_order(a.kind);
                const int sb = hop_stage_order(b.kind);
                if (sa != sb) return sa < sb;
                return a.ts_us < b.ts_us;
              });
  }
  return out;
}

/// Validate stitched journeys. `expected_legs(world, origin, dest)` returns
/// the routing-scheme leg count for that pair, or -1 when unknown (then
/// only transport-independent invariants are checked). Returns one
/// human-readable string per violation; empty means all journeys check out.
inline std::vector<std::string> check_journeys(
    const journey_map& journeys,
    const std::function<int(int world, int origin, int dest)>& expected_legs =
        {}) {
  std::vector<std::string> errors;
  const auto fail = [&](const std::pair<int, std::uint64_t>& key,
                        const std::string& what) {
    errors.push_back("journey world=" + std::to_string(key.first) + " id=" +
                     std::to_string(key.second) + ": " + what);
  };
  for (const auto& [key, j] : journeys) {
    const auto n_deliver = j.delivers();
    if (n_deliver != 1) {
      fail(key, "expected exactly one deliver event, saw " +
                    std::to_string(n_deliver));
      continue;
    }
    if (j.last_hop().kind != hop_kind::deliver) {
      fail(key, "deliver is not the causally last hop");
    }
    const auto legs = j.legs();
    if (j.last_hop().hop != legs) {
      fail(key, "deliver hop index " + std::to_string(j.last_hop().hop) +
                    " != completed leg count " + std::to_string(legs));
    }
    std::uint32_t prev_hop = 0;
    for (const auto& h : j.hops) {
      if (h.hop < prev_hop) {
        fail(key, "hop indices regress (ring overwrite or id collision?)");
        break;
      }
      prev_hop = h.hop;
    }
    if (expected_legs) {
      const int want = expected_legs(key.first, j.origin(), j.dest());
      if (want >= 0 && static_cast<std::size_t>(want) != legs) {
        fail(key, "router path expects " + std::to_string(want) +
                      " legs, journey took " + std::to_string(legs));
      }
    }
  }
  return errors;
}

/// Decode all "trace.*" hop events retained in a live session's rings.
/// Hops that fell off a ring are simply absent (stitching tolerates that;
/// check_journeys will flag the journeys it breaks).
inline std::vector<hop_record> extract_hops(const session& s) {
  std::vector<hop_record> hops;
  s.visit_lanes([&](const recorder& rec) {
    const auto& names = rec.names();
    rec.ring().for_each([&](const trace_event& e) {
      if (e.name >= names.size()) return;
      hop_kind kind;
      if (!parse_hop_event_name(names[e.name], kind)) return;
      // Credit stalls describe the sending rank, not any one message — they
      // carry no journey id and must not fabricate incomplete journeys.
      if (kind == hop_kind::credit_stall) return;
      hop_record h;
      h.world = rec.world();
      h.rank = rec.rank();
      h.id = e.arg0;
      h.kind = kind;
      h.ts_us = e.ts_us;
      h.dur_us = e.kind == event_kind::complete ? e.dur_us : 0;
      h.hop = unpack_hop(e.arg1);
      h.bytes = unpack_bytes(e.arg1);
      hops.push_back(h);
    });
  });
  return hops;
}

}  // namespace ygm::telemetry::causal
