// Backpressure tests (docs/BACKPRESSURE.md): credit-based flow control must
// bound per-destination queued bytes when a rank is flooded — the
// unbounded-buffer-growth bug this subsystem fixes — without ever breaking
// delivery invariants or termination detection.
//
// The acceptance grid is a hot producer flooding a slow consumer across
// {inproc, socket, shm} x {engine, polling}, asserting the peak bounded
// quantity (unacked in-flight bytes per destination) never exceeded the
// budget and that every message still arrived exactly once. A seeded chaos
// sweep reruns the full delivery-invariant ledger with credit active, and
// dedicated tests cover the budget knobs, the socket transport's bounded
// outbound queue, and the stall watchdog's re-arm behavior.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/mini_json.hpp"
#include "core/invariants.hpp"
#include "core/ygm.hpp"
#include "ser/serialize.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/endpoint.hpp"

namespace {

namespace sim = ygm::mpisim;
namespace tel = ygm::telemetry;
namespace causal = ygm::telemetry::causal;
using ygm::common::json_parser;
using ygm::common::json_value;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::core::run_chaos_trial;
using ygm::core::trial_config;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// ------------------------------------------------------------ flood grid

struct flood_cell {
  ygm::transport::backend_kind backend = ygm::transport::backend_kind::inproc;
  bool engine = false;
  /// Seeds the credit chaos sweep runs in this cell: 16 on the in-process
  /// backend; socket and shm trials fork a process per rank, so a smaller
  /// block keeps wall time proportionate (same policy as the progress
  /// sweep).
  std::uint32_t chaos_seeds = 16;
};

std::string flood_cell_name(const ::testing::TestParamInfo<flood_cell>& info) {
  const auto& p = info.param;
  return "mailbox_" + std::string(ygm::transport::to_string(p.backend)) +
         "_" + (p.engine ? "engine" : "polling");
}

std::vector<flood_cell> flood_cells() {
  std::vector<flood_cell> cells;
  for (auto backend : {ygm::transport::backend_kind::inproc,
                       ygm::transport::backend_kind::socket,
                       ygm::transport::backend_kind::shm}) {
    for (bool engine : {false, true}) {
      cells.push_back(
          {backend, engine,
           backend == ygm::transport::backend_kind::inproc ? 16u : 4u});
    }
  }
  return cells;
}

/// One rank's verdict from the flood, gathered across processes.
struct flood_result {
  std::uint64_t budget = 0;
  std::uint64_t peak = 0;
  std::uint64_t stalls = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dup_or_corrupt = 0;

  template <class Ar>
  void serialize(Ar& ar) {
    ar & budget & peak & stalls & delivered & dup_or_corrupt;
  }
};

struct flood_msg {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> filler;

  template <class Ar>
  void serialize(Ar& ar) {
    ar & seq & filler;
  }
};

/// Hot producer (rank 0) floods a slow consumer (rank 1) with far more
/// bytes than the budget. The producer must stall instead of queueing
/// unboundedly; the consumer services its mailbox rarely, so the flood
/// genuinely outruns the drain.
flood_result run_flood(sim::comm& c, std::size_t capacity) {
  constexpr int kMsgs = 1500;
  constexpr std::size_t kFiller = 200;

  comm_world world(c, topology(1, 2), scheme_kind::no_route);
  flood_result r;
  std::vector<bool> seen(kMsgs, false);
  mailbox<flood_msg> mb(
      world,
      [&](const flood_msg& m) {
        ++r.delivered;
        if (m.seq >= kMsgs || seen[m.seq]) ++r.dup_or_corrupt;
        if (m.filler.size() != kFiller) ++r.dup_or_corrupt;
        if (m.seq < kMsgs) seen[m.seq] = true;
      },
      capacity);
  r.budget = mb.credit_budget();

  if (c.rank() == 0) {
    flood_msg m;
    m.filler.assign(kFiller, 0x5a);
    for (int i = 0; i < kMsgs; ++i) {
      m.seq = static_cast<std::uint64_t>(i);
      mb.send(1, m);
    }
  } else {
    // Slow consumer: long pauses between polls, so the producer's traffic
    // piles up against the budget, not against an attentive receiver.
    for (int i = 0; i < 20; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      mb.poll();
    }
  }
  mb.wait_empty();
  r.peak = mb.credit_peak_in_flight();
  r.stalls = mb.stats().credit_stalls;
  return r;
}

class FloodGrid : public ::testing::TestWithParam<flood_cell> {};

TEST_P(FloodGrid, PeakBoundedByBudgetAndExactlyOnce) {
  const auto cell = GetParam();
  constexpr std::size_t kCapacity = 1024;
  constexpr std::size_t kBudget = 8 * 1024;  // << flood volume (~320 KiB)

  ygm::run_options o;
  o.nranks = 2;
  o.backend = cell.backend;
  o.chaos = sim::chaos_config{};
  o.progress_mode = cell.engine ? ygm::progress::mode::engine
                                : ygm::progress::mode::polling;
  o.credit_bytes = kBudget;
  const auto blobs = ygm::launch_collect(o, [&](sim::comm& c) {
    const flood_result local = run_flood(c, kCapacity);
    std::vector<std::byte> out;
    ygm::ser::append_bytes(local, out);
    return out;
  });
  ASSERT_EQ(blobs.size(), 2u);
  std::uint64_t delivered = 0;
  for (std::size_t rank = 0; rank < blobs.size(); ++rank) {
    const auto r = ygm::ser::from_bytes<flood_result>(
        {blobs[rank].data(), blobs[rank].size()});
    EXPECT_EQ(r.budget, kBudget) << "rank " << rank;
    EXPECT_LE(r.peak, r.budget) << "rank " << rank;
    EXPECT_EQ(r.dup_or_corrupt, 0u) << "rank " << rank;
    delivered += r.delivered;
    if (rank == 0) {
      // The whole point: the producer had to stall. A flood 40x the budget
      // that never blocked means the gate is not engaging.
      EXPECT_GT(r.stalls, 0u);
    }
  }
  EXPECT_EQ(delivered, 1500u);
}

INSTANTIATE_TEST_SUITE_P(Matrix, FloodGrid, ::testing::ValuesIn(flood_cells()),
                         flood_cell_name);

// -------------------------------------------------------- 16-seed chaos
//
// The same grid under seeded chaos with credit active: every delivery
// invariant (exactly-once, no phantoms, conservation, sealed silence,
// counter cross-checks) must hold, and neither wait_empty nor test_empty
// may deadlock against the credit gate. Budgets rotate down to 1 byte
// (clamped to 2x capacity — the liveness floor) with the seed.

trial_config make_credit_trial(std::uint64_t seed, bool engine) {
  static constexpr std::pair<int, int> kTopos[] = {
      {2, 2}, {1, 4}, {3, 2}, {2, 3}};
  static constexpr std::size_t kCapacities[] = {1, 24, 96, 4096};
  static constexpr std::size_t kBudgets[] = {1, 64, 1024, 16384};
  trial_config t;
  t.seed = seed;
  t.scheme =
      ygm::routing::all_schemes[seed % std::size(ygm::routing::all_schemes)];
  const auto [n, c] = kTopos[seed % 4];
  t.nodes = n;
  t.cores = c;
  t.capacity = kCapacities[(seed / 2) % 4];
  t.timed = false;
  t.serialize_self_sends = (seed % 4) == 2;
  t.msgs_per_rank = 24;
  t.bcasts_per_rank = 2;
  t.epochs = 2;
  t.use_progress_guard = engine;
  t.credit_bytes = kBudgets[(seed / 3) % 4];
  t.chaos = (seed % 2) == 0 ? sim::chaos_config::light(seed)
                            : sim::chaos_config::heavy(seed);
  return t;
}

class CreditChaosSweep : public ::testing::TestWithParam<flood_cell> {};

TEST_P(CreditChaosSweep, LedgerHoldsUnderBackpressure) {
  const auto cell = GetParam();
  for (std::uint64_t seed = 0; seed < cell.chaos_seeds; ++seed) {
    const trial_config t = make_credit_trial(seed, cell.engine);
    ygm::run_options o;
    o.nranks = t.num_ranks();
    o.backend = cell.backend;
    o.chaos = t.chaos;
    o.progress_mode = cell.engine ? ygm::progress::mode::engine
                                  : ygm::progress::mode::polling;
    std::vector<std::string> all;
    const auto blobs = ygm::launch_collect(o, [&](sim::comm& c) {
      const auto local = run_chaos_trial(c, t);
      std::vector<std::byte> out;
      ygm::ser::append_bytes(local, out);
      return out;
    });
    for (const auto& blob : blobs) {
      const auto local = ygm::ser::from_bytes<std::vector<std::string>>(
          {blob.data(), blob.size()});
      all.insert(all.end(), local.begin(), local.end());
    }
    if (!all.empty()) {
      std::string joined;
      for (const auto& v : all) joined += "\n  " + v;
      FAIL() << "invariant violations for trial {" << t.describe()
             << "} backend=" << ygm::transport::to_string(cell.backend)
             << " engine=" << int(cell.engine) << joined;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, CreditChaosSweep,
                         ::testing::ValuesIn(flood_cells()), flood_cell_name);

// ----------------------------------------------------------- budget knobs

TEST(CreditConfig, LaunchFieldWinsOverEnvAndDefault) {
  ASSERT_EQ(setenv("YGM_CREDIT_BYTES", "777", 1), 0);
  ygm::run_options o;
  o.nranks = 2;
  o.credit_bytes = std::size_t{123456};
  ygm::launch(o, [](sim::comm& c) {
    comm_world world(c, topology(1, 2), scheme_kind::no_route);
    EXPECT_EQ(world.credit_bytes(), 123456u);
  });
  ygm::run_options env_only;
  env_only.nranks = 2;
  ygm::launch(env_only, [](sim::comm& c) {
    comm_world world(c, topology(1, 2), scheme_kind::no_route);
    EXPECT_EQ(world.credit_bytes(), 777u);
  });
  ASSERT_EQ(unsetenv("YGM_CREDIT_BYTES"), 0);
  ygm::run_options none;
  none.nranks = 2;
  ygm::launch(none, [](sim::comm& c) {
    comm_world world(c, topology(1, 2), scheme_kind::no_route);
    EXPECT_EQ(world.credit_bytes(), std::size_t{1} << 20);  // default 1 MiB
  });
}

TEST(CreditConfig, BudgetClampedToTwiceCapacityAndZeroDisables) {
  sim::run(2, [](sim::comm& c) {
    comm_world world(c, topology(1, 2), scheme_kind::no_route);
    world.set_credit_bytes(1);  // absurdly small: ack liveness would die
    mailbox<int> tiny(world, [](const int&) {}, 4096);
    EXPECT_EQ(tiny.credit_budget(), 2u * 4096u);

    world.set_credit_bytes(0);  // opt out entirely
    mailbox<int> off(world, [](const int&) {}, 4096);
    EXPECT_EQ(off.credit_budget(), 0u);
    // With credit off a flood must still complete (the pre-fix behavior,
    // unbounded but live) and record zero stalls.
    if (c.rank() == 0) {
      for (int i = 0; i < 2000; ++i) off.send(1, i);
    }
    off.wait_empty();
    EXPECT_EQ(off.stats().credit_stalls, 0u);
    EXPECT_EQ(off.credit_peak_in_flight(), 0u);
  });
}

// ------------------------------------------------ socket outbound bound
//
// Satellite regression: the socket backend's outbound frame queue is
// bounded. One rank stops pumping while a peer posts far more than the
// cap; post() must block at the cap and keep pumping its own progress
// (draining inbound, flushing what the kernel accepts) instead of
// queueing frames without limit — and must not deadlock.

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ygm_test_has_asan 1
#endif
#if __has_feature(thread_sanitizer)
#define ygm_test_has_tsan 1
#endif
#endif
#ifndef ygm_test_has_asan
#define ygm_test_has_asan 0
#endif
#ifndef ygm_test_has_tsan
#define ygm_test_has_tsan 0
#endif

TEST(SocketOutqBound, StalledPumpDoesNotGrowQueueUnboundedly) {
  // Ranks are forked processes on the socket backend, so violations are
  // thrown (exceptions propagate to the parent; gtest EXPECTs do not).
  sim::run_options o;
  o.nranks = 2;
  o.backend = ygm::transport::backend_kind::socket;
  o.chaos = sim::chaos_config{};
  const auto blobs = sim::run_collect(o, [](sim::comm& c) {
    constexpr int kMsgs = 800;
    constexpr std::size_t kPayload = 32 * 1024;  // 25.6 MiB total
    const auto require = [](bool ok, const std::string& what) {
      if (!ok) throw std::runtime_error(what);
    };
    std::uint64_t rss_growth_kib = 0;
    if (c.rank() == 0) {
      // Idle-CPU witness: while the receiver sleeps, the cap-stalled
      // sender must wait in poll(), not hot-loop. Process CPU time across
      // the flood therefore has to be a small fraction of the stalled
      // wall time (a busy spin shows ~100%). Skipped under sanitizers,
      // whose instrumentation skews both clocks.
      rusage ru_before{};
      getrusage(RUSAGE_SELF, &ru_before);
      const auto wall_start = std::chrono::steady_clock::now();
      // Peak-RSS proxy: VmHWM growth across the flood. With the 4 MiB
      // default cap the sender's growth stays a small multiple of the cap;
      // the pre-fix unbounded queue grew by the whole 12.8 MiB flood.
      const auto vmhwm = [] {
        std::ifstream in("/proc/self/status");
        std::string line;
        while (std::getline(in, line)) {
          if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtoull(line.c_str() + 6, nullptr, 10);  // KiB
          }
        }
        return 0ull;
      };
      const auto before_kib = vmhwm();
      std::vector<std::byte> payload(kPayload, std::byte{0x42});
      for (int i = 0; i < kMsgs; ++i) {
        auto copy = payload;
        copy[0] = static_cast<std::byte>(i);
        c.send_bytes(1, 9, std::move(copy));
      }
      rss_growth_kib = vmhwm() - before_kib;
      rusage ru_after{};
      getrusage(RUSAGE_SELF, &ru_after);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - wall_start)
              .count();
      const auto cpu_of = [](const rusage& r) {
        return (static_cast<double>(r.ru_utime.tv_sec) +
                static_cast<double>(r.ru_stime.tv_sec)) *
                   1e3 +
               (static_cast<double>(r.ru_utime.tv_usec) +
                static_cast<double>(r.ru_stime.tv_usec)) /
                   1e3;
      };
      const double cpu_ms = cpu_of(ru_after) - cpu_of(ru_before);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !ygm_test_has_asan && !ygm_test_has_tsan
      // The receiver sleeps 300 ms before its first read, so most of the
      // flood is spent cap-stalled. Measured healthy behavior is ~3% CPU;
      // a hot loop is ~100%. 40% leaves room for slow CI machines while
      // still failing any real spin.
      if (wall_ms >= 250.0) {
        require(cpu_ms < 0.4 * wall_ms,
                "cap-stalled sender burned CPU while blocked (busy spin): " +
                    std::to_string(cpu_ms) + " ms CPU over " +
                    std::to_string(wall_ms) + " ms wall");
      }
#else
      (void)cpu_ms;
      (void)wall_ms;
#endif
      // The bound is deliberately loose: growth combines the 4 MiB queue
      // cap with kernel socket buffers, pool retention, and allocator
      // fragmentation. What it must NOT be is ~the whole 25.6 MiB flood.
      // ASan's quarantine keeps freed payloads resident, so the RSS proxy
      // says nothing about queue growth there — the liveness and FIFO
      // checks below still run.
#if !defined(__SANITIZE_ADDRESS__) && !ygm_test_has_asan
      require(rss_growth_kib < 14ull * 1024,
              "sender RSS grew ~with the flood (outbound queue unbounded): " +
                  std::to_string(rss_growth_kib) + " KiB");
#endif
    } else {
      // Stalled pump: no progress at all while the flood builds up against
      // the sender's outbound cap.
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      for (int i = 0; i < kMsgs; ++i) {
        const auto msg = c.recv_bytes(0, 9);
        require(msg.size() == kPayload, "truncated flood frame");
        require(msg[0] == static_cast<std::byte>(i), "FIFO order broken");
      }
    }
    c.barrier();
    std::vector<std::byte> out;
    ygm::ser::append_bytes(rss_growth_kib, out);
    return out;
  });
  ASSERT_EQ(blobs.size(), 2u);
  const auto growth = ygm::ser::from_bytes<std::uint64_t>(
      {blobs[0].data(), blobs[0].size()});
#if !defined(__SANITIZE_ADDRESS__) && !ygm_test_has_asan
  EXPECT_LT(growth, 14ull * 1024) << "sender peak RSS growth (KiB)";
#else
  (void)growth;
#endif
}

// ------------------------------------------------- watchdog re-arm
//
// Satellite regression: the wait_empty stall watchdog used to fire once
// per process; after a successful drain it must re-arm so a second stall
// later in the run is captured too, and the postmortem JSON must carry the
// credit/flow-control state.

TEST(WatchdogRearm, SecondStallFiresAgainAndReportsCredit) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "stall watchdog compiled out with -DYGM_TELEMETRY=OFF";
#endif
  const std::string dump = "test_backpressure_postmortem.json";
  std::remove(dump.c_str());
  causal::reset_postmortem_latch();
  causal::set_postmortem_path(dump);
  causal::set_stall_timeout_ms(20);

  tel::session session;
  tel::set_global(&session);
  const int world = session.begin_world(1);
  tel::rank_scope scope(session, world, 0);

  causal::stall_watchdog wd;
  causal::stall_report r;
  r.hops_sent = 1;
  r.credit_budget = 4096;
  r.credit_in_flight = 4000;
  r.credit_stalls = 7;

  // First stall episode.
  wd.poll(r);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  wd.poll(r);
  EXPECT_TRUE(causal::postmortem_fired());
  {
    std::ifstream in(dump);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    json_value root;
    ASSERT_NO_THROW(root = json_parser(buf.str()).parse());
    const auto& credit = root.obj().at("credit").obj();
    EXPECT_EQ(credit.at("budget_bytes").num(), 4096.0);
    EXPECT_EQ(credit.at("in_flight_bytes").num(), 4000.0);
    EXPECT_EQ(credit.at("stalls").num(), 7.0);
  }

  // Progress resumes: the drain succeeded, so the watchdog re-arms and
  // releases the dedup latch. The sticky "did it ever fire" answer stays.
  r.hops_sent = 2;
  wd.poll(r);
  EXPECT_TRUE(causal::postmortem_fired());

  // Second stall episode in the same process must dump again (the old
  // behavior latched forever after the first postmortem); the rewritten
  // file is the proof the latch was handed back.
  std::remove(dump.c_str());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  wd.poll(r);
  EXPECT_TRUE(causal::postmortem_fired());
  EXPECT_TRUE(std::ifstream(dump).good())
      << "watchdog did not re-arm: second stall wrote no postmortem";

  tel::set_global(nullptr);
  causal::set_stall_timeout_ms(0);
  causal::reset_postmortem_latch();
  std::remove(dump.c_str());
}

}  // namespace
