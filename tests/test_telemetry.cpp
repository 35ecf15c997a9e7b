// Tests for the telemetry subsystem: registry merge across simulated ranks,
// histogram percentiles, ring-buffer overflow policy, and a bench-style run
// whose Chrome-trace JSON export is parsed back and validated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/knobs.hpp"
#include "common/mini_json.hpp"
#include "core/ygm.hpp"
#include "telemetry/telemetry.hpp"

namespace {

namespace sim = ygm::mpisim;
namespace tel = ygm::telemetry;
using ygm::common::json_parser;
using ygm::common::json_value;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// -------------------------------------------------- histogram percentiles

TEST(Histogram, ExactStatsAndPercentileBounds) {
  tel::histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));

  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);

  // Percentiles are log2-bucket approximations: within a factor of 2 of the
  // exact order statistic, clamped to [min, max].
  const double p50 = h.percentile(0.50);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p99, 495.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);

  // Monotone in p.
  double prev = 0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(Histogram, SingleBucketDistributionIsExactish) {
  tel::histogram h;
  for (int i = 0; i < 100; ++i) h.record(64.0);
  // All mass in one bucket: every percentile must land on [min, max] = 64.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 64.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 64.0);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  tel::histogram a, b, both;
  for (int i = 0; i < 50; ++i) {
    a.record(i);
    both.record(i);
  }
  for (int i = 1000; i < 1100; ++i) {
    b.record(i);
    both.record(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_DOUBLE_EQ(a.min(), both.min());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.percentile(0.9), both.percentile(0.9));
}

// ------------------------------------------------- ring overflow policy

TEST(EventRing, OverwritesOldestAndCountsDrops) {
  tel::event_ring ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tel::trace_event e;
    e.arg0 = i;
    ring.push(e);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);

  // Overwrite-oldest: the survivors are the NEWEST four, oldest first.
  std::vector<std::uint64_t> kept;
  ring.for_each([&](const tel::trace_event& e) { kept.push_back(e.arg0); });
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(EventRing, ZeroCapacityDropsEverythingButCounts) {
  tel::event_ring ring(0);
  ring.push({});
  ring.push({});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.recorded(), 2u);
  EXPECT_EQ(ring.dropped(), 2u);
}

// ------------------------------------- registry merge across ranks

TEST(Session, RegistryMergesAcrossSimulatedRanks) {
  constexpr int kRanks = 6;
  tel::session session;
  tel::set_global(&session);

  ygm::launch({.nranks = kRanks}, [&](sim::comm& c) {
    // mpisim attached this rank thread to its lane automatically.
    auto* rec = tel::tls();
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->rank(), c.rank());

    rec->metrics().counter("test.per_rank") +=
        static_cast<std::uint64_t>(c.rank() + 1);
    double& g = rec->metrics().gauge("test.rank_gauge");
    g = static_cast<double>(c.rank());
    rec->metrics().histo("test.histo").record(
        static_cast<double>(100 * (c.rank() + 1)));
  });
  tel::set_global(nullptr);

  const tel::metrics_registry m = session.merged_metrics();
  // 1 + 2 + ... + kRanks
  EXPECT_EQ(m.counters().at("test.per_rank"),
            static_cast<std::uint64_t>(kRanks * (kRanks + 1) / 2));
  // Gauges merge by max.
  EXPECT_DOUBLE_EQ(m.gauges().at("test.rank_gauge"), kRanks - 1);
  // Histograms merge bucket-wise.
  EXPECT_EQ(m.histos().at("test.histo").count(),
            static_cast<std::uint64_t>(kRanks));
  EXPECT_DOUBLE_EQ(m.histos().at("test.histo").max(), 100.0 * kRanks);

  // Merging twice must not change totals (fast-slot folding is delta-based).
  const tel::metrics_registry again = session.merged_metrics();
  EXPECT_EQ(again.counters().at("test.per_rank"),
            m.counters().at("test.per_rank"));
}

TEST(Session, PerWorldMetricsDoNotBleedAcrossRuns) {
  // One session reused across consecutive ygm::launch calls: the all-worlds
  // merge mixes the runs (gauges keep the max over STALE worlds), so the
  // per-world accessors and the metrics JSON "worlds" array must keep each
  // run readable in isolation.
  tel::session session;
  tel::set_global(&session);
  ygm::launch({.nranks = 2}, [&](sim::comm&) {
    tel::tls()->metrics().gauge("test.queue_depth") = 100.0;
    tel::tls()->metrics().counter("test.msgs") += 7;
  });
  ygm::launch({.nranks = 2}, [&](sim::comm&) {
    tel::tls()->metrics().gauge("test.queue_depth") = 5.0;
    tel::tls()->metrics().counter("test.msgs") += 1;
  });
  tel::set_global(nullptr);

  ASSERT_EQ(session.world_count(), 2);
  // The stale first run must not leak into the second run's view...
  const tel::metrics_registry run2 = session.merged_metrics(1);
  EXPECT_DOUBLE_EQ(run2.gauges().at("test.queue_depth"), 5.0);
  EXPECT_EQ(run2.counters().at("test.msgs"), 2u);
  // ...while the all-worlds merge (documented behavior) still mixes them.
  const tel::metrics_registry all = session.merged_metrics();
  EXPECT_DOUBLE_EQ(all.gauges().at("test.queue_depth"), 100.0);
  EXPECT_EQ(all.counters().at("test.msgs"), 16u);

  // The JSON export carries the per-world split whenever >1 world exists.
  std::ostringstream os;
  session.write_metrics_json(os);
  const json_value root = json_parser(os.str()).parse();
  const auto& worlds = root.obj().at("worlds").arr();
  ASSERT_EQ(worlds.size(), 2u);
  EXPECT_DOUBLE_EQ(
      worlds[0].obj().at("gauges").obj().at("test.queue_depth").num(), 100.0);
  EXPECT_DOUBLE_EQ(
      worlds[1].obj().at("gauges").obj().at("test.queue_depth").num(), 5.0);
  EXPECT_DOUBLE_EQ(worlds[1].obj().at("counters").obj().at("test.msgs").num(),
                   2.0);
}

TEST(Session, MailboxAndSubstrateCountersReachTheRegistry) {
  constexpr int kRanks = 8;
  constexpr int kSendsPerRank = 40;
  const topology topo(4, 2);

  tel::session session;
  tel::set_global(&session);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::uint64_t sink = 0;
    mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { sink += v; }, 256);
    for (int i = 0; i < kSendsPerRank; ++i) {
      mb.send((c.rank() + 1 + i) % c.size(), 7);
    }
    mb.wait_empty();
    c.barrier();
  });
  tel::set_global(nullptr);

  const tel::metrics_registry m = session.merged_metrics();
  // The mailbox published its stats into the registry at destruction.
  EXPECT_EQ(m.counters().at("mailbox.app_sends"),
            static_cast<std::uint64_t>(kRanks * kSendsPerRank));
  EXPECT_EQ(m.counters().at("mailbox.deliveries"),
            static_cast<std::uint64_t>(kRanks * kSendsPerRank));
  // Substrate layers recorded through their fast slots.
  EXPECT_GT(m.counters().at("route.next_hop"), 0u);
  EXPECT_GT(m.counters().at("route.next_hop.NLNR"), 0u);
  EXPECT_GT(m.counters().at("mpi.sends"), 0u);
  EXPECT_GT(m.counters().at("mpi.send_bytes"), 0u);
  // Packet-size histograms saw the coalesced flush traffic.
  EXPECT_GT(m.histos().at("mailbox.remote_packet_bytes").count(), 0u);
}

// ------------------------------------------- Chrome trace round trip

TEST(Export, BenchStyleRunProducesValidChromeTrace) {
  const topology topo(2, 2);
  tel::session session;
  tel::set_global(&session);
  // One field set explicitly, so the metrics JSON's "config" shows a field
  // source beside the environment and default ones.
  ygm::launch({.nranks = topo.num_ranks(), .credit_bytes = std::size_t{1} << 20},
              [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_remote);
    std::uint64_t sink = 0;
    mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { sink += v; }, 128);
    for (int i = 0; i < 200; ++i) mb.send((c.rank() + 1) % c.size(), 1);
    mb.send_bcast(5);
    mb.wait_empty();
    c.barrier();
  });
  tel::set_global(nullptr);

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string trace = os.str();

  const json_value root = json_parser(trace).parse();
  ASSERT_TRUE(root.is_object());
  const auto& events = root.obj().at("traceEvents");
  ASSERT_TRUE(events.is_array());

  // Every (pid, tid) lane must carry a rank.main complete event; every
  // event must be structurally sound.
  std::map<std::pair<int, int>, bool> lane_has_main;
  int spans = 0;
  for (const auto& ev : events.arr()) {
    ASSERT_TRUE(ev.is_object());
    const auto& o = ev.obj();
    const std::string& ph = o.at("ph").str();
    ASSERT_TRUE(ph == "M" || ph == "X" || ph == "i");
    ASSERT_TRUE(o.count("name") == 1);
    ASSERT_TRUE(o.count("pid") == 1);
    if (ph == "M") continue;
    const auto lane = std::pair{static_cast<int>(o.at("pid").num()),
                                static_cast<int>(o.at("tid").num())};
    EXPECT_GE(o.at("ts").num(), 0.0);
    if (ph == "X") {
      ++spans;
      EXPECT_GE(o.at("dur").num(), 0.0);
      if (o.at("name").str() == "rank.main") lane_has_main[lane] = true;
    }
  }
  EXPECT_GT(spans, 0);
  EXPECT_EQ(lane_has_main.size(), static_cast<std::size_t>(topo.num_ranks()));

  // The metrics export must be valid JSON too, with the expected groups.
  std::ostringstream ms;
  session.write_metrics_json(ms);
  const json_value metrics = json_parser(ms.str()).parse();
  ASSERT_TRUE(metrics.is_object());
  EXPECT_TRUE(metrics.obj().at("counters").is_object());
  EXPECT_TRUE(metrics.obj().at("gauges").is_object());
  EXPECT_TRUE(metrics.obj().at("histograms").is_object());
  EXPECT_GT(
      metrics.obj().at("counters").obj().at("mailbox.app_sends").num(), 0.0);

  // ...and it records the run's resolved configuration: every knob of the
  // table, with its environment variable, value and source.
  const auto& config = metrics.obj().at("config").obj();
  EXPECT_EQ(config.size(), ygm::knob::kCount);
  for (const auto& [name, entry] : config) {
    const auto& e = entry.obj();
    EXPECT_FALSE(e.at("env").str().empty()) << name;
    const std::string& src = e.at("source").str();
    EXPECT_TRUE(src == "default" || src == "env" || src == "field") << name;
  }
  const auto& credit = config.at("credit_bytes").obj();
  EXPECT_EQ(credit.at("env").str(), "YGM_CREDIT_BYTES");
  EXPECT_DOUBLE_EQ(credit.at("value").num(), 1048576.0);
  EXPECT_EQ(credit.at("source").str(), "field");
  const std::string& backend = config.at("backend").obj().at("value").str();
  EXPECT_TRUE(backend == "inproc" || backend == "socket" || backend == "shm");
  EXPECT_EQ(config.at("statusz").obj().at("env").str(), "YGM_STATUSZ");
  EXPECT_TRUE(config.at("statusz").obj().at("value").is_number());
}

TEST(Export, SpansCoverRankWallTime) {
  // The acceptance bar for traces: per rank, top-level span coverage of the
  // measured window must be essentially total. rank.main spans the whole
  // rank function by construction; verify it brackets the mailbox spans.
  const topology topo(2, 2);
  tel::session session;
  tel::set_global(&session);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_local);
    std::uint64_t sink = 0;
    mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { sink += v; }, 64);
    for (int i = 0; i < 500; ++i) mb.send((c.rank() + i) % c.size(), 2);
    mb.wait_empty();
    c.barrier();
  });
  tel::set_global(nullptr);

  // Per lane: rank.main covers every other event on the lane.
  struct lane_info {
    double main_start = -1, main_end = -1;
    double min_ts = 1e300, max_end = 0;
  };
  std::map<std::pair<int, int>, lane_info> lanes;
  std::ostringstream os;
  session.write_chrome_trace(os);
  const json_value root = json_parser(os.str()).parse();
  for (const auto& ev : root.obj().at("traceEvents").arr()) {
    const auto& o = ev.obj();
    if (o.at("ph").str() == "M") continue;
    const auto lane = std::pair{static_cast<int>(o.at("pid").num()),
                                static_cast<int>(o.at("tid").num())};
    auto& li = lanes[lane];
    const double ts = o.at("ts").num();
    const double end =
        o.at("ph").str() == "X" ? ts + o.at("dur").num() : ts;
    if (o.at("ph").str() == "X" && o.at("name").str() == "rank.main") {
      li.main_start = ts;
      li.main_end = end;
    }
    li.min_ts = std::min(li.min_ts, ts);
    li.max_end = std::max(li.max_end, end);
  }
  ASSERT_EQ(lanes.size(), static_cast<std::size_t>(topo.num_ranks()));
  for (const auto& [lane, li] : lanes) {
    ASSERT_GE(li.main_start, 0.0) << "lane missing rank.main";
    // Small tolerance: timestamps are doubles from the same clock.
    EXPECT_LE(li.main_start, li.min_ts + 1.0);
    EXPECT_GE(li.main_end + 1.0, li.max_end);
  }
}

}  // namespace
