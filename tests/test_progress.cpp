// Progress-engine tests (core/progress.hpp, docs/PROGRESS.md).
//
// Covers the progress-control API end to end: the ygm::launch entry point
// and its precedence rules, engine steal semantics, exception propagation
// from engine-executed callbacks, teardown with traffic still in flight,
// the reentrancy/engine-race exchange claim, termination under the engine
// (rank-thread-only detector rounds), and a ledger-verified chaos sweep
// across {inproc, socket} x {engine, polling}.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/connected_components.hpp"
#include "core/invariants.hpp"
#include "core/ygm.hpp"
#include "graph/rmat.hpp"
#include "routing/router.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/journey.hpp"
#include "telemetry/telemetry.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::core::run_chaos_trial;
using ygm::core::trial_config;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

struct ping {
  std::uint64_t value = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar & value;
  }
};

/// RAII environment-variable override (tests run single-threaded at the
/// gtest level; rank threads only read the environment).
class scoped_env {
 public:
  scoped_env(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~scoped_env() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::yield();
  }
  return pred();
}

// ------------------------------------------------------------- mode parsing

TEST(ProgressMode, NamesRoundTrip) {
  using ygm::progress::mode;
  EXPECT_EQ(ygm::progress::mode_from_name("polling"), mode::polling);
  EXPECT_EQ(ygm::progress::mode_from_name("engine"), mode::engine);
  EXPECT_EQ(ygm::progress::mode_from_name("Engine"), std::nullopt);
  EXPECT_EQ(ygm::progress::mode_from_name(""), std::nullopt);
  EXPECT_EQ(ygm::progress::to_string(mode::polling), "polling");
  EXPECT_EQ(ygm::progress::to_string(mode::engine), "engine");
}

TEST(ProgressMode, EnvDefaultsToPollingAndRejectsTypos) {
  {
    scoped_env env("YGM_PROGRESS", "");
    EXPECT_EQ(ygm::progress::mode_from_env(), ygm::progress::mode::polling);
  }
  {
    scoped_env env("YGM_PROGRESS", "engine");
    EXPECT_EQ(ygm::progress::mode_from_env(), ygm::progress::mode::engine);
  }
  {
    // A typo must throw, not silently fall back to polling (that would
    // fake engine coverage in CI).
    scoped_env env("YGM_PROGRESS", "engien");
    EXPECT_THROW(ygm::progress::mode_from_env(), ygm::error);
  }
}

// ------------------------------------------------- launch + precedence

TEST(Launch, FieldBeatsEnvBeatsDefault) {
  // Env says engine, field says polling: the field must win.
  scoped_env env("YGM_PROGRESS", "engine");
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::polling;
  ygm::launch(o, [](sim::comm&) {
    EXPECT_EQ(ygm::progress::current(), nullptr);
  });

  // No field: the env decides.
  ygm::run_options o2;
  o2.nranks = 2;
  ygm::launch(o2, [](sim::comm&) {
    EXPECT_NE(ygm::progress::current(), nullptr);
  });
}

TEST(Launch, DefaultIsPolling) {
  scoped_env env("YGM_PROGRESS", "");
  ygm::run_options o;
  o.nranks = 2;
  ygm::launch(o, [](sim::comm&) {
    EXPECT_EQ(ygm::progress::current(), nullptr);
  });
}

TEST(Launch, CollectRoundTrips) {
  ygm::run_options o;
  o.nranks = 3;
  o.progress_mode = ygm::progress::mode::engine;
  const auto blobs = ygm::launch_collect(o, [](sim::comm& c) {
    std::vector<std::byte> b;
    ygm::ser::append_bytes(std::uint64_t(c.rank() * 10), b);
    return b;
  });
  ASSERT_EQ(blobs.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    const auto v = ygm::ser::from_bytes<std::uint64_t>(
        {blobs[static_cast<std::size_t>(r)].data(),
         blobs[static_cast<std::size_t>(r)].size()});
    EXPECT_EQ(v, std::uint64_t(r) * 10);
  }
}

// ------------------------------------------------------ engine mechanics

TEST(ProgressEngine, LoopRunsAndCountsPasses) {
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [](sim::comm& c) {
    auto* eng = ygm::progress::current();
    ASSERT_NE(eng, nullptr);
    c.barrier();
    if (c.rank() == 0) {
      // The loop must be alive: passes keep increasing.
      const auto before = eng->stats().passes;
      EXPECT_TRUE(wait_until(
          [&] { return eng->stats().passes > before; },
          std::chrono::seconds(5)));
    }
    c.barrier();
  });
}

TEST(ProgressEngine, StealsDeliveriesWhileRankComputes) {
  static constexpr int kMsgs = 64;
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [](sim::comm& c) {
    topology topo(1, 2);
    comm_world world(c, topo, scheme_kind::no_route);
    std::atomic<int> got{0};
    mailbox<ping> mb(world, [&](const ping&) { got.fetch_add(1); });
    c.barrier();
    if (c.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) mb.send(1, ping{std::uint64_t(i)});
      mb.flush();
    } else {
      // Compute region: never poll — only the engine can move these
      // messages, executing the callbacks directly (deliver::on_engine).
      ygm::progress::guard g(world, ygm::progress::deliver::on_engine);
      EXPECT_TRUE(wait_until([&] { return got.load() >= kMsgs; },
                             std::chrono::seconds(10)))
          << "engine stole " << got.load() << "/" << kMsgs
          << " deliveries while the rank computed";
    }
    mb.wait_empty();
    if (c.rank() == 1) {
      EXPECT_EQ(got.load(), kMsgs);
    }
  });
}

TEST(ProgressEngine, DeferredDeliveriesRunOnRankThreadAtDrain) {
  static constexpr int kMsgs = 32;
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [](sim::comm& c) {
    topology topo(1, 2);
    comm_world world(c, topo, scheme_kind::no_route);
    const auto rank_tid = std::this_thread::get_id();
    std::atomic<int> got{0};
    std::atomic<bool> off_thread{false};
    mailbox<ping> mb(world, [&](const ping&) {
      if (std::this_thread::get_id() != rank_tid) off_thread.store(true);
      got.fetch_add(1);
    });
    c.barrier();
    if (c.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) mb.send(1, ping{1});
      mb.flush();
    } else {
      // Default (deferred) guard: the engine may drain the transport but
      // the callbacks only run on this thread, at poll()/wait_empty().
      ygm::progress::guard g(world, ygm::progress::deliver::deferred);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      mb.poll();
    }
    mb.wait_empty();
    if (c.rank() == 1) {
      EXPECT_EQ(got.load(), kMsgs);
      EXPECT_FALSE(off_thread.load())
          << "a deferred-mode callback ran off the rank thread";
    }
  });
}

TEST(ProgressEngine, EngineExecutedCallbackExceptionSurfacesOnRank) {
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::engine;
  try {
    ygm::launch(o, [](sim::comm& c) {
      topology topo(1, 2);
      comm_world world(c, topo, scheme_kind::no_route);
      std::atomic<bool> thrown{false};
      mailbox<ping> mb(world, [&](const ping&) {
        thrown.store(true);
        throw std::runtime_error("engine callback boom");
      });
      c.barrier();
      if (c.rank() == 1) {
        mb.send(0, ping{7});
        mb.flush();
        mb.wait_empty();
      } else {
        {
          ygm::progress::guard g(world, ygm::progress::deliver::on_engine);
          wait_until([&] { return thrown.load(); }, std::chrono::seconds(10));
        }
        // The engine parked the exception; the rank's next progress call
        // rethrows it here (or, if the engine lost the race, the rank
        // executes the callback itself — same observable failure).
        mb.wait_empty();
      }
    });
    FAIL() << "the callback exception never surfaced";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos)
        << "unexpected failure: " << e.what();
  }
}

TEST(ProgressEngine, TeardownWithTrafficInFlight) {
  // Destroy mailboxes with messages still undelivered while the engine is
  // live: remove_pump must wait out any steal in flight, never crash or
  // hang, and the world must stay usable for a fresh mailbox afterwards.
  ygm::run_options o;
  o.nranks = 4;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [](sim::comm& c) {
    topology topo(2, 2);
    comm_world world(c, topo, scheme_kind::nlnr);
    {
      mailbox<ping> mb(world, [](const ping&) {});
      ygm::progress::guard g(world);
      for (int i = 0; i < 128; ++i) {
        mb.send((c.rank() + 1 + i) % c.size(), ping{std::uint64_t(i)});
      }
      mb.flush();
      // No wait_empty: the mailbox dies with traffic in flight.
    }
    c.barrier();
    // The world (and engine) survive: a fresh mailbox on a fresh tag block
    // still completes a verified round trip.
    std::atomic<int> got{0};
    mailbox<ping> mb2(world, [&](const ping&) { got.fetch_add(1); });
    mb2.send((c.rank() + 1) % c.size(), ping{1});
    mb2.wait_empty();
    EXPECT_EQ(got.load(), 1);
  });
}

// Revert guard: defer_delivery used to record a leg-counting hop event for
// the MPSC-ring push. Every engine-delivered sampled journey then reported
// one more leg than the route has hops and `ygm_trace --selfcheck` failed.
// The ring handoff is rank-internal — legs must match the wire path
// exactly, engine or not.
TEST(ProgressEngine, DeferredHandoffAddsNoCausalLeg) {
  namespace tel = ygm::telemetry;
  namespace causal = ygm::telemetry::causal;
  tel::session session;
  tel::set_global(&session);
  ygm::run_options o;
  o.nranks = 4;
  // The journeys are stitched from this process's session, which only the
  // inproc engine records its hop events into.
  o.backend = ygm::transport::backend_kind::inproc;
  o.progress_mode = ygm::progress::mode::engine;
  o.trace_sample = 1.0;
  static constexpr int kMsgs = 20;
  const topology topo(2, 2);
  ygm::launch(o, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::atomic<int> recv{0};
    mailbox<std::uint32_t> mb(
        world, [&](const std::uint32_t&) { recv.fetch_add(1); }, 512);
    {
      // Compute window: the engine steals arrivals and defers them through
      // the ring, which is exactly the path that minted the phantom leg.
      ygm::progress::guard g(world);
      for (int i = 0; i < kMsgs; ++i) {
        for (int d = 0; d < c.size(); ++d) {
          if (d != c.rank()) mb.send(d, static_cast<std::uint32_t>(i));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    mb.wait_empty();
    EXPECT_EQ(recv.load(), kMsgs * (c.size() - 1));
  });
  tel::set_global(nullptr);

  const auto journeys = causal::stitch(causal::extract_hops(session));
  EXPECT_EQ(journeys.size(), static_cast<std::size_t>(4 * 3 * kMsgs));
  const ygm::routing::router route(scheme_kind::nlnr, topo);
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

// Revert guard for two engine-path reentrancy bugs. (a) The rank thread
// ran engine-deferred callbacks without the exchange claim, so a callback
// that polled re-entered the deferred drain once per queued batch
// (max_depth read 13-17 instead of 1). (b) A test_empty() from such a
// callback ran detector rounds over deliveries counted as received but not
// yet run; the callback ignored the verdict, the peer left, and this
// rank's wait_empty() hung. Engine-mode twin of
// Mailbox.ReentrantPollFromCallbackIsANoOp, with the receiver inside a
// guard so the engine really defers the deliveries.
TEST(ProgressEngine, ReentrantPollFromDeferredCallbackIsANoOp) {
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    mailbox<std::uint64_t>* mbp = nullptr;
    int depth = 0;
    int max_depth = 0;
    std::uint64_t got = 0;
    mailbox<std::uint64_t> mb(
        world,
        [&](const std::uint64_t& v) {
          ++depth;
          if (depth > max_depth) max_depth = depth;
          got += v;
          mbp->poll();
          mbp->test_empty();
          --depth;
        },
        64);
    mbp = &mb;
    ygm::progress::guard g(world);
    if (c.rank() == 1) {
      for (int i = 0; i < 100; ++i) mb.send(0, 1);
      mb.flush();
    } else {
      // Let the engine defer the batches before the rank runs any of them.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    mb.wait_empty();
    if (c.rank() == 0) {
      EXPECT_EQ(got, 100u);
      EXPECT_EQ(max_depth, 1);
    }
  });
}

// ------------------------------------------ termination under the engine
//
// Revert guards for the engine termination hang: the engine used to run
// detector rounds on behalf of a rank parked in wait_empty(), and kept
// starting rounds after a verdict it had already latched. That rank's
// detector then drifted out of step with ranks that returned on their own,
// and the next wait_empty() never completed. These cases hang (and hit
// their ctest TIMEOUT) when the engine runs the detector again.

/// Runs `body` on every rank and returns each rank's result. Checks made
/// from these values hold on the forked backends too, where an EXPECT in a
/// rank body never reaches the test process.
std::vector<std::uint64_t> collect_u64(
    const ygm::run_options& o,
    const std::function<std::uint64_t(sim::comm&)>& body) {
  std::vector<std::uint64_t> out;
  for (const auto& blob : ygm::launch_collect(o, [&](sim::comm& c) {
         std::vector<std::byte> b;
         ygm::ser::append_bytes(body(c), b);
         return b;
       })) {
    out.push_back(
        ygm::ser::from_bytes<std::uint64_t>({blob.data(), blob.size()}));
  }
  return out;
}

TEST(EngineTermination, BackToBackWaitEmptyThenSendEpoch) {
  const topology topo(2, 2);
  ygm::run_options o;
  o.nranks = topo.num_ranks();
  o.progress_mode = ygm::progress::mode::engine;
  for (int rep = 0; rep < 20; ++rep) {
    const auto deliveries = collect_u64(o, [&](sim::comm& c) {
      comm_world world(c, topo, scheme_kind::node_remote);
      mailbox<int> mb(world, [](const int&) {});
      mb.wait_empty();
      mb.wait_empty();
      for (int d = 0; d < c.size(); ++d) {
        if (d != c.rank()) mb.send(d, 1);
      }
      mb.wait_empty();
      return mb.stats().deliveries;
    });
    for (const auto d : deliveries) {
      ASSERT_EQ(d, std::uint64_t(topo.num_ranks() - 1))
          << "wait_empty returned before delivery, repetition " << rep;
    }
  }
}

TEST(EngineTermination, ConnectedComponentsOnRmatRepeated) {
  using ygm::graph::edge;
  using ygm::graph::vertex_id;
  const topology topo(2, 2);
  const int scale = 9;
  const vertex_id n = vertex_id{1} << scale;
  std::vector<edge> all;
  for (int r = 0; r < topo.num_ranks(); ++r) {
    ygm::graph::rmat_generator(scale, 4000,
                               ygm::graph::rmat_params::graph500(), 5, r,
                               topo.num_ranks())
        .for_each([&](const edge& e) { all.push_back(e); });
  }
  const auto oracle = ygm::apps::connected_components_reference(n, all);

  ygm::run_options o;
  o.nranks = topo.num_ranks();
  o.progress_mode = ygm::progress::mode::engine;
  for (int rep = 0; rep < 20; ++rep) {
    // Each rank reports how many of its labels differ from the oracle.
    const auto wrong = collect_u64(o, [&](sim::comm& c) {
      comm_world world(c, topo, scheme_kind::node_remote);
      const ygm::graph::round_robin_partition part{c.size()};
      std::vector<edge> mine;
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (static_cast<int>(i % static_cast<std::size_t>(c.size())) ==
            c.rank()) {
          mine.push_back(all[i]);
        }
      }
      const auto res = ygm::apps::connected_components(
          world, mine, n, ygm::graph::delegate_set{}, 1024);
      std::uint64_t bad = 0;
      for (std::uint64_t i = 0; i < res.local_labels.size(); ++i) {
        if (res.local_labels[i] != oracle[part.global_id(c.rank(), i)]) ++bad;
      }
      return bad;
    });
    ASSERT_EQ(wrong.size(), std::size_t(topo.num_ranks()));
    for (const auto w : wrong) ASSERT_EQ(w, 0u) << "repetition " << rep;
  }
}

// ------------------------------------------- exchange-claim regression
//
// Revert guard for the reentrancy bugfix: in_exchange_ used to be a plain
// bool set/cleared around the drain loop. Two bugs followed: (a) a receive
// callback that threw left the flag stuck true, permanently wedging
// poll_incoming into a no-op (this test then hangs in wait_empty until the
// stall watchdog kills it); (b) with an engine attached, rank and engine
// could both read false and drain concurrently. exchange_claim (atomic
// exchange + RAII release) fixes both; poll()'s lock-free early-out is why
// the flag must stay a std::atomic.
TEST(ExchangeClaim, ThrowingCallbackDoesNotWedgeTheMailbox) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    topology topo(1, 2);
    comm_world world(c, topo, scheme_kind::no_route);
    std::atomic<int> got{0};
    const bool receiver = c.rank() == 1;
    mailbox<ping> mb(world, [&](const ping& p) {
      got.fetch_add(1);
      if (p.value == 0xdead) throw std::runtime_error("poison");
    });
    if (c.rank() == 0) {
      mb.send(1, ping{0xdead});
      mb.flush();  // first packet: the poison alone
      mb.send(1, ping{1});
      mb.flush();  // second packet: must still be deliverable after the throw
    }
    if (receiver) {
      bool threw = false;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!threw && std::chrono::steady_clock::now() < deadline) {
        try {
          mb.poll();
        } catch (const std::runtime_error&) {
          threw = true;
        }
        std::this_thread::yield();
      }
      EXPECT_TRUE(threw) << "poison message never delivered";
    }
    // With the claim released by RAII, progress resumes: the second
    // message arrives and global quiescence is reached. (With the reverted
    // plain-bool flag, rank 1 never drains again and this hangs.)
    mb.wait_empty();
    if (receiver) {
      EXPECT_EQ(got.load(), 2);
    }
  });
}

// ----------------------------------------------------- ledger chaos sweep
//
// The acceptance sweep: seeded chaos traffic, every delivery invariant
// (exactly-once, no phantoms, conservation, sealed silence, counter
// cross-checks) verified by the ledger, across backend x progress mode.
// Engine trials wrap injection in a progress::guard so the engine
// genuinely competes with the rank for the same packets.

struct progress_cell {
  ygm::transport::backend_kind backend = ygm::transport::backend_kind::inproc;
  bool engine = false;
  /// Seeds swept in this cell. Socket trials fork whole processes per
  /// rank; a smaller seed block keeps the shard's wall time proportionate
  /// without losing the matrix.
  std::uint32_t seeds = 16;
};

std::string progress_cell_name(
    const ::testing::TestParamInfo<progress_cell>& info) {
  const auto& p = info.param;
  return "mailbox_" + std::string(ygm::transport::to_string(p.backend)) +
         "_" + (p.engine ? "engine" : "polling");
}

std::vector<progress_cell> progress_cells() {
  std::vector<progress_cell> cells;
  for (auto backend : {ygm::transport::backend_kind::inproc,
                       ygm::transport::backend_kind::socket}) {
    for (bool engine : {false, true}) {
      cells.push_back(
          {backend, engine,
           backend == ygm::transport::backend_kind::socket ? 4u : 16u});
    }
  }
  return cells;
}

trial_config make_progress_trial(std::uint64_t seed, bool engine) {
  static constexpr std::pair<int, int> kTopos[] = {
      {2, 2}, {1, 4}, {3, 2}, {2, 3}};
  static constexpr std::size_t kCapacities[] = {1, 24, 96, 65536};
  trial_config t;
  t.seed = seed;
  t.scheme = ygm::routing::all_schemes[seed %
                                       std::size(ygm::routing::all_schemes)];
  const auto [n, c] = kTopos[seed % 4];
  t.nodes = n;
  t.cores = c;
  t.capacity = kCapacities[(seed / 2) % 4];
  t.timed = false;  // engine mode requires untimed worlds
  t.serialize_self_sends = (seed % 4) == 2;
  t.msgs_per_rank = 24;
  t.bcasts_per_rank = 2;
  t.epochs = 2;
  t.use_progress_guard = engine;
  t.chaos = (seed % 2) == 0 ? sim::chaos_config::light(seed)
                            : sim::chaos_config::heavy(seed);
  return t;
}

class ProgressChaosSweep : public ::testing::TestWithParam<progress_cell> {};

TEST_P(ProgressChaosSweep, LedgerVerifiedExactlyOnce) {
  const auto cell = GetParam();
  for (std::uint64_t seed = 0; seed < cell.seeds; ++seed) {
    const trial_config t = make_progress_trial(seed, cell.engine);
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

INSTANTIATE_TEST_SUITE_P(Matrix, ProgressChaosSweep,
                         ::testing::ValuesIn(progress_cells()),
                         progress_cell_name);

}  // namespace
