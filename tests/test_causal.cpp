// Tests for the causal-tracing layer (telemetry/causal.hpp): sampling
// determinism, wire-format neutrality at rate 0, journey completeness
// across every routing scheme (including under chaos), the stall
// watchdog's flight-recorder postmortem, and the bench flag validation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hpp"
#include "common/mini_json.hpp"
#include "core/invariants.hpp"
#include "core/mailbox.hpp"
#include "core/ygm.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/journey.hpp"
#include "telemetry/telemetry.hpp"

namespace {

namespace sim = ygm::mpisim;
namespace tel = ygm::telemetry;
namespace causal = ygm::telemetry::causal;
using ygm::common::json_parser;
using ygm::common::json_value;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::routing::router;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

/// Every test must leave the process-global causal config untouched for its
/// neighbours (the knobs are process-wide by design — one runtime, one
/// sampling policy).
struct causal_config_guard {
  causal_config_guard() { causal::reset_postmortem_latch(); }
  ~causal_config_guard() {
    causal::set_sample_rate(0);
    causal::set_stall_timeout_ms(0);
    causal::reset_postmortem_latch();
    tel::set_global(nullptr);
  }
};

// ------------------------------------------------------------- wire format

TEST(CausalWire, ContextRoundTrips) {
  causal::wire_ctx c;
  c.id = (std::uint64_t{1} << 48) - 5;
  c.origin = 513;
  c.hop = 3;
  c.seq = 0xdeadbeef;
  c.origin_us = 123456789.25;  // live e2e sketches need this to survive
  std::vector<std::byte> buf;
  causal::encode_wire(c, buf);
  ASSERT_EQ(buf.size(), causal::wire_ctx_bytes);
  const causal::wire_ctx d = causal::decode_wire(buf);
  EXPECT_EQ(d.id, c.id);
  EXPECT_EQ(d.origin, c.origin);
  EXPECT_EQ(d.hop, c.hop);
  EXPECT_EQ(d.seq, c.seq);
  EXPECT_DOUBLE_EQ(d.origin_us, c.origin_us);
}

TEST(CausalWire, HopBytePackingRoundTripsAndSurvivesJsonDouble) {
  const std::uint64_t packed = causal::pack_hop_bytes(7, 123456789);
  EXPECT_EQ(causal::unpack_hop(packed), 7u);
  EXPECT_EQ(causal::unpack_bytes(packed), 123456789u);
  // Must survive a JSON double round trip (the Chrome trace stores args as
  // numbers).
  EXPECT_LT(packed, std::uint64_t{1} << 53);
  EXPECT_EQ(static_cast<std::uint64_t>(static_cast<double>(packed)), packed);
  // Byte counts clamp instead of bleeding into the hop field.
  const std::uint64_t huge =
      causal::pack_hop_bytes(3, std::uint64_t{1} << 60);
  EXPECT_EQ(causal::unpack_hop(huge), 3u);
  EXPECT_EQ(causal::unpack_bytes(huge), (std::uint64_t{1} << 40) - 1);
}

TEST(CausalSampling, RateEndpointsAndDeterminism) {
  causal_config_guard guard;
  causal::set_sample_rate(0);
  EXPECT_EQ(causal::detail::sample_threshold(), 0u);
  causal::set_sample_rate(1.0);
  // Rate 1.0 must sample EVERY (origin, seq): threshold is all-ones and the
  // decision hash never returns ~0.
  for (int origin = 0; origin < 8; ++origin) {
    for (std::uint32_t seq = 0; seq < 64; ++seq) {
      EXPECT_LE(causal::detail::journey_hash(origin, seq, 7),
                causal::detail::sample_threshold() - 1);
    }
  }
  // Deterministic: same inputs, same hash (replayability of a sampled run).
  EXPECT_EQ(causal::detail::journey_hash(3, 41, 9),
            causal::detail::journey_hash(3, 41, 9));
  // Half rate lands in the right ballpark over a big population.
  causal::set_sample_rate(0.5);
  int sampled = 0;
  const std::uint64_t thr = causal::detail::sample_threshold();
  for (std::uint32_t seq = 0; seq < 10000; ++seq) {
    if (causal::detail::journey_hash(0, seq, 1) <= thr - 1) ++sampled;
  }
  EXPECT_GT(sampled, 4500);
  EXPECT_LT(sampled, 5500);
}

// --------------------------------------------- rate 0 == untraced wire

/// Drive a fixed all-to-all and return the total wire bytes it produced.
std::uint64_t all_to_all_wire_bytes() {
  const topology topo(2, 2);
  std::uint64_t wire = 0;
  sim::run(topo.num_ranks(), [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    // Credit acks piggyback on flushes whose timing depends on thread
    // interleaving, which would make the wire-byte totals compared below
    // nondeterministic. They are orthogonal to tracing; pin them off.
    world.set_credit_bytes(0);
    int recv = 0;
    mailbox<int> mb(world, [&](const int&) { ++recv; }, 256);
    for (int i = 0; i < 25; ++i) {
      for (int d = 0; d < c.size(); ++d) {
        if (d != c.rank()) mb.send(d, i);
      }
    }
    mb.wait_empty();
    EXPECT_EQ(recv, 25 * (c.size() - 1));
    const auto total = c.allreduce(
        mb.stats().local_bytes + mb.stats().remote_bytes, sim::op_sum{});
    if (c.rank() == 0) wire = total;
  });
  return wire;
}

TEST(CausalSampling, RateZeroIsWireByteIdenticalToUntraced) {
  causal_config_guard guard;

  // Baseline: no telemetry session at all (the pre-tracing world).
  const std::uint64_t baseline = all_to_all_wire_bytes();
  ASSERT_GT(baseline, 0u);

  // Session installed, sampling at 0: the wire must be byte-identical and
  // nothing may be recorded or annotated.
  tel::session off;
  tel::set_global(&off);
  causal::set_sample_rate(0);
  const std::uint64_t at_zero = all_to_all_wire_bytes();
  tel::set_global(nullptr);
  EXPECT_EQ(at_zero, baseline);
  EXPECT_TRUE(causal::stitch(causal::extract_hops(off)).empty());
  EXPECT_EQ(off.merged_metrics().counters().count("trace.annotated_records"),
            0u);

  // Sampling at 1.0 pays for what it records: strictly more wire bytes and
  // an annotation for every traced leg.
  tel::session on;
  tel::set_global(&on);
  causal::set_sample_rate(1.0);
  const std::uint64_t at_one = all_to_all_wire_bytes();
  tel::set_global(nullptr);
  EXPECT_GT(at_one, baseline);
  EXPECT_GT(on.merged_metrics().counters().at("trace.annotated_records"), 0u);
}

TEST(CausalSampling, InplaceEncodingMatchesReferenceIncludingEscape) {
  // The mailboxes now serialize traced records in place (escape record via
  // packet_append, message payload via packet_append_inplace). The wire
  // bytes must match the reference construction — escape + copy-based
  // append — for every length-slot hint, or ygm_trace's decode breaks.
  causal::wire_ctx ctx;
  ctx.id = 0x00dead'beef'cafeULL;
  ctx.origin = 6;
  ctx.hop = 2;

  const std::vector<std::uint64_t> values = {0, 42, std::uint64_t{1} << 40};
  for (const std::uint64_t v : values) {
    const auto payload = ygm::ser::to_bytes(v);

    std::vector<std::byte> reference;
    std::vector<std::byte> esc;
    causal::encode_wire(ctx, esc);
    ygm::core::packet_append(reference, /*is_bcast=*/false,
                             ygm::core::packet_trace_escape, esc);
    ygm::core::packet_append(reference, /*is_bcast=*/false, /*addr=*/3,
                             payload);

    for (const std::size_t hint : {std::size_t{0}, payload.size(),
                                   std::size_t{200}, std::size_t{20000}}) {
      std::vector<std::byte> inplace;
      std::vector<std::byte> esc2;
      causal::encode_wire(ctx, esc2);
      ygm::core::packet_append(inplace, /*is_bcast=*/false,
                               ygm::core::packet_trace_escape, esc2);
      const auto rec = ygm::core::packet_append_inplace(
          inplace, /*is_bcast=*/false, /*addr=*/3, hint,
          [&](std::vector<std::byte>& out) { ygm::ser::append_bytes(v, out); });
      EXPECT_EQ(inplace, reference) << "value " << v << " hint " << hint;
      EXPECT_EQ(rec.payload_size, payload.size());
    }
  }
}

// ----------------------------------------------- journey completeness

void run_journey_trial(scheme_kind scheme) {
  causal_config_guard guard;
  tel::session session;
  tel::set_global(&session);
  causal::set_sample_rate(1.0);

  const topology topo(2, 2);
  constexpr int msgs = 30;
  sim::run(topo.num_ranks(), [&](sim::comm& c) {
    comm_world world(c, topo, scheme);
    int recv = 0;
    mailbox<std::uint32_t> mb(world, [&](const std::uint32_t&) { ++recv; },
                              512);
    for (int i = 0; i < msgs; ++i) {
      for (int d = 0; d < c.size(); ++d) {
        if (d != c.rank()) mb.send(d, static_cast<std::uint32_t>(i));
      }
    }
    mb.wait_empty();
    EXPECT_EQ(recv, msgs * (c.size() - 1));
  });
  tel::set_global(nullptr);

  const auto journeys = causal::stitch(causal::extract_hops(session));
  // Rate 1.0: every cross-rank send is a journey.
  EXPECT_EQ(journeys.size(),
            static_cast<std::size_t>(topo.num_ranks()) *
                static_cast<std::size_t>(topo.num_ranks() - 1) * msgs);

  const router route(scheme, topo);
  const auto errors = causal::check_journeys(
      journeys, [&](int /*world*/, int origin, int dest) {
        if (origin < 0 || dest < 0) return -1;
        return static_cast<int>(route.path(origin, dest).size());
      });
  for (const auto& e : errors) ADD_FAILURE() << e;
  for (const auto& [key, j] : journeys) {
    EXPECT_TRUE(j.complete());
    EXPECT_LE(j.legs(), static_cast<std::size_t>(route.max_hops()));
  }
}

TEST(CausalJourneys, CompleteAcrossAllSchemesMailbox) {
  for (const auto scheme : ygm::routing::all_schemes) {
    SCOPED_TRACE(std::string(ygm::routing::to_string(scheme)));
    run_journey_trial(scheme);
  }
}

TEST(CausalJourneys, SurviveChaosAcrossSeedsAndSampleRates) {
  // 16 seeds of the chaos harness with tracing enabled: the invariant
  // checks must stay green AND every sampled journey must still stitch
  // complete — packet corruption of the annotation records would break
  // both.
  causal_config_guard guard;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    tel::session session;
    tel::set_global(&session);
    causal::set_sample_rate(seed % 2 == 0 ? 1.0 : 0.5);

    ygm::core::trial_config t;
    t.seed = seed;
    t.scheme = ygm::routing::all_schemes[seed % 4];
    t.nodes = 2;
    t.cores = 2;
    t.capacity = (seed % 3 == 0) ? 1 : 96;
    t.msgs_per_rank = 12;
    t.bcasts_per_rank = 2;
    t.epochs = 1;
    t.chaos = sim::chaos_config::light(seed);

    std::vector<std::string> violations;
    sim::run(t.num_ranks(), t.chaos, [&](sim::comm& c) {
      const auto local = ygm::core::run_chaos_trial(c, t);
      const auto gathered = c.gather(local, 0);
      if (c.rank() == 0) {
        for (const auto& per_rank : gathered) {
          violations.insert(violations.end(), per_rank.begin(),
                            per_rank.end());
        }
      }
    });
    tel::set_global(nullptr);
    for (const auto& v : violations) ADD_FAILURE() << v;

    const auto journeys = causal::stitch(causal::extract_hops(session));
    EXPECT_FALSE(journeys.empty());
    const router route(t.scheme, topology(t.nodes, t.cores));
    const auto errors = causal::check_journeys(journeys);
    for (const auto& e : errors) ADD_FAILURE() << e;
    for (const auto& [key, j] : journeys) {
      EXPECT_LE(j.legs(), static_cast<std::size_t>(route.max_hops()));
    }
  }
}

// ------------------------------------------------------- stall watchdog

TEST(CausalWatchdog, StallDumpsParseablePostmortem) {
  causal_config_guard guard;
  const std::string dump = "test_causal_postmortem.json";
  std::remove(dump.c_str());

  tel::session session;
  tel::set_global(&session);
  causal::set_sample_rate(1.0);
  causal::set_postmortem_path(dump);
  causal::set_stall_timeout_ms(50);

  // Rank 0 flushes a message toward rank 1 and waits; rank 1 sleeps through
  // the watchdog window before servicing its mailbox, so rank 0 sees zero
  // quiescence progress and must dump the flight recorder.
  sim::run(2, [&](sim::comm& c) {
    comm_world world(c, topology(2, 1), scheme_kind::no_route);
    int recv = 0;
    mailbox<int> mb(world, [&](const int&) { ++recv; }, 64);
    if (c.rank() == 0) {
      mb.send(1, 42);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    mb.wait_empty();
    if (c.rank() == 1) {
      EXPECT_EQ(recv, 1);
    }
  });
  tel::set_global(nullptr);

  ASSERT_TRUE(causal::postmortem_fired());
  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << "postmortem file missing: " << dump;
  std::ostringstream buf;
  buf << in.rdbuf();
  json_value root;
  ASSERT_NO_THROW(root = json_parser(buf.str()).parse());

  // The stuck rank is named...
  const auto& stalled = root.obj().at("stalled").obj();
  EXPECT_EQ(static_cast<int>(stalled.at("rank").num()), 0);
  EXPECT_GE(stalled.at("stalled_ms").num(), 50.0);
  // ...and the in-flight journey's last-seen hop shows the message left the
  // origin's buffer (flushed) but never arrived.
  const auto& journeys = root.obj().at("journeys").obj();
  const auto& in_flight = journeys.at("in_flight").arr();
  ASSERT_FALSE(in_flight.empty());
  bool saw_flushed = false;
  for (const auto& j : in_flight) {
    const auto& last = j.obj().at("last").obj();
    if (last.at("kind").str() == "trace.flush") saw_flushed = true;
  }
  EXPECT_TRUE(saw_flushed);

  std::remove(dump.c_str());
}

TEST(CausalWatchdog, QuiescentRunNeverFires) {
  causal_config_guard guard;
  tel::session session;
  tel::set_global(&session);
  causal::set_stall_timeout_ms(10000);
  sim::run(2, [&](sim::comm& c) {
    comm_world world(c, topology(2, 1), scheme_kind::no_route);
    int recv = 0;
    mailbox<int> mb(world, [&](const int&) { ++recv; });
    mb.send(1 - c.rank(), 7);
    mb.wait_empty();
    EXPECT_EQ(recv, 1);
  });
  tel::set_global(nullptr);
  EXPECT_FALSE(causal::postmortem_fired());
}

// --------------------------------------------------- bench flag hygiene

TEST(BenchFlagsDeathTest, UnknownTelemetryFlagIsRejected) {
  const char* argv[] = {"bench", "--trace-sampel=1.0"};
  EXPECT_EXIT(
      ygm::bench::check_telemetry_flags(2, const_cast<char**>(argv)),
      ::testing::ExitedWithCode(2), "unknown telemetry flag");
}

TEST(BenchFlags, KnownTelemetryFlagsPass) {
  const char* argv[] = {"bench", "--trace-out=/tmp/t.json",
                        "--trace-sample=0.5", "--telemetry-summary"};
  // Must not exit.
  ygm::bench::check_telemetry_flags(4, const_cast<char**>(argv));
  SUCCEED();
}

}  // namespace
