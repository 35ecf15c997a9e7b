// Tests for the transport substrate (src/transport/): backend selection,
// the multi-process socket backend (point-to-point, collectives,
// communicator algebra, abort propagation), the delivery-invariant ledger
// and a reduced chaos sweep on BOTH backends, cross-backend parity of a
// seeded workload, and per-backend telemetry publication.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/invariants.hpp"
#include "core/mailbox.hpp"
#include "mpisim/runtime.hpp"
#include "ser/serialize.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/endpoint.hpp"

namespace {

namespace sim = ygm::mpisim;
namespace tp = ygm::transport;
namespace tel = ygm::telemetry;

sim::run_options on_backend(tp::backend_kind k, int nranks) {
  sim::run_options o;
  o.nranks = nranks;
  o.backend = k;
  // Pin chaos off unless a test supplies its own config, so an ambient
  // YGM_CHAOS in the environment cannot skew the deterministic tests here.
  o.chaos = ygm::mpisim::chaos_config{};
  return o;
}

// --------------------------------------------------------- backend naming

TEST(Backend, NameRoundTrip) {
  EXPECT_EQ(tp::to_string(tp::backend_kind::inproc), "inproc");
  EXPECT_EQ(tp::to_string(tp::backend_kind::socket), "socket");
  EXPECT_EQ(tp::to_string(tp::backend_kind::shm), "shm");
  EXPECT_EQ(tp::backend_from_name("inproc"), tp::backend_kind::inproc);
  EXPECT_EQ(tp::backend_from_name("socket"), tp::backend_kind::socket);
  EXPECT_EQ(tp::backend_from_name("shm"), tp::backend_kind::shm);
  EXPECT_FALSE(tp::backend_from_name("tcp").has_value());
  EXPECT_FALSE(tp::backend_from_name("").has_value());
}

TEST(Backend, EnvSelection) {
  ASSERT_EQ(unsetenv("YGM_TRANSPORT"), 0);
  EXPECT_EQ(tp::backend_from_env(), tp::backend_kind::inproc);
  ASSERT_EQ(setenv("YGM_TRANSPORT", "socket", 1), 0);
  EXPECT_EQ(tp::backend_from_env(), tp::backend_kind::socket);
  ASSERT_EQ(setenv("YGM_TRANSPORT", "shm", 1), 0);
  EXPECT_EQ(tp::backend_from_env(), tp::backend_kind::shm);
  ASSERT_EQ(setenv("YGM_TRANSPORT", "", 1), 0);
  EXPECT_EQ(tp::backend_from_env(), tp::backend_kind::inproc);
  // A typo must not silently fake multi-process coverage.
  ASSERT_EQ(setenv("YGM_TRANSPORT", "sockets", 1), 0);
  EXPECT_THROW((void)tp::backend_from_env(), ygm::error);
  ASSERT_EQ(unsetenv("YGM_TRANSPORT"), 0);
}

// ------------------------------------------------- socket backend basics

TEST(Socket, PointToPointAcrossProcesses) {
  const auto blobs = sim::run_collect(
      on_backend(tp::backend_kind::socket, 4), [](sim::comm& c) {
        // Ring: send my rank left and right, typed.
        const int p = c.size();
        c.send(c.rank() * 10, (c.rank() + 1) % p, 7);
        c.send(std::string("hi from ") + std::to_string(c.rank()),
               (c.rank() + p - 1) % p, 8);
        const int from_left = c.recv<int>((c.rank() + p - 1) % p, 7);
        EXPECT_EQ(from_left, ((c.rank() + p - 1) % p) * 10);
        sim::status st;
        const auto greeting =
            c.recv<std::string>(sim::any_source, 8, &st);
        EXPECT_EQ(st.source, (c.rank() + 1) % p);
        EXPECT_EQ(greeting, "hi from " + std::to_string((c.rank() + 1) % p));
        // Each process must really be its own rank: the static below is
        // per-process state, so with forked ranks every rank sees 1.
        static int calls = 0;
        ++calls;
        auto out = std::vector<std::byte>{};
        ygm::ser::append_bytes(calls, out);
        return out;
      });
  ASSERT_EQ(blobs.size(), 4u);
  for (const auto& b : blobs) {
    EXPECT_EQ(ygm::ser::from_bytes<int>({b.data(), b.size()}), 1);
  }
}

TEST(Socket, ProbeAndPending) {
  sim::run(on_backend(tp::backend_kind::socket, 4), [](sim::comm& c) {
    if (c.rank() == 0) {
      for (int dest = 1; dest < c.size(); ++dest) c.send(dest * 3, dest, 5);
      c.barrier();
    } else {
      const auto st = c.probe(0, 5);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
      EXPECT_GE(c.pending_messages(), 1u);
      EXPECT_EQ(c.recv<int>(0, 5), c.rank() * 3);
      c.barrier();
    }
  });
}

TEST(Socket, CollectivesMatchInprocSemantics) {
  sim::run(on_backend(tp::backend_kind::socket, 5), [](sim::comm& c) {
    const int p = c.size();
    c.barrier();

    int v = c.rank() == 2 ? 99 : -1;
    c.bcast(v, 2);
    EXPECT_EQ(v, 99);

    const int sum = c.allreduce(c.rank() + 1, sim::op_sum{});
    EXPECT_EQ(sum, p * (p + 1) / 2);
    EXPECT_EQ(c.allreduce_sum(static_cast<std::uint64_t>(c.rank() + 1)),
              static_cast<std::uint64_t>(p * (p + 1) / 2));

    const auto all = c.allgather(c.rank() * 2);
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 2);

    std::vector<int> pieces;
    for (int r = 0; r < p; ++r) pieces.push_back(100 + r);
    EXPECT_EQ(c.scatter(pieces, 1), 100 + c.rank());

    EXPECT_EQ(c.scan(1, sim::op_sum{}), c.rank() + 1);
    EXPECT_EQ(c.exscan(1, sim::op_sum{}), c.rank());

    std::vector<std::vector<int>> sendbufs(static_cast<std::size_t>(p));
    for (int dest = 0; dest < p; ++dest) {
      sendbufs[static_cast<std::size_t>(dest)] = {c.rank(), dest};
    }
    const auto recvd = c.alltoallv(sendbufs);
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(recvd[static_cast<std::size_t>(src)],
                (std::vector<int>{src, c.rank()}));
    }
  });
}

TEST(Socket, SplitAndDup) {
  sim::run(on_backend(tp::backend_kind::socket, 4), [](sim::comm& c) {
    auto half = c.split(c.rank() % 2, c.rank());
    EXPECT_EQ(half.size(), 2);
    const int hsum = half.allreduce(c.rank(), sim::op_sum{});
    EXPECT_EQ(hsum, c.rank() % 2 == 0 ? 0 + 2 : 1 + 3);

    auto clone = c.dup();
    // Traffic on the dup must not collide with the parent: exchange on both
    // with the same tag.
    const int peer = c.rank() ^ 1;
    c.send(c.rank(), peer, 3);
    clone.send(c.rank() + 100, peer, 3);
    EXPECT_EQ(c.recv<int>(peer, 3), peer);
    EXPECT_EQ(clone.recv<int>(peer, 3), peer + 100);
    c.barrier();
  });
}

TEST(Socket, RankFailurePropagatesWithoutDeadlock) {
  try {
    sim::run(on_backend(tp::backend_kind::socket, 4), [](sim::comm& c) {
      if (c.rank() == 2) throw std::runtime_error("rank 2 exploded");
      // Other ranks block forever; the abort frame must wake them.
      (void)c.recv_bytes(sim::any_source, 0);
    });
    FAIL() << "expected the rank failure to rethrow in the parent";
  } catch (const ygm::error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2 exploded"),
              std::string::npos);
  }
}

TEST(Socket, SingleRankWorld) {
  sim::run(on_backend(tp::backend_kind::socket, 1), [](sim::comm& c) {
    c.barrier();
    c.send(41, 0, 0);  // self-send loops through the own slot
    EXPECT_EQ(c.recv<int>(0, 0), 41);
    EXPECT_EQ(c.allreduce_sum(7), 7u);
  });
}

// --------------------------------------------------- shm backend basics

TEST(Shm, PointToPointAcrossProcesses) {
  const auto blobs = sim::run_collect(
      on_backend(tp::backend_kind::shm, 4), [](sim::comm& c) {
        const int p = c.size();
        c.send(c.rank() * 10, (c.rank() + 1) % p, 7);
        c.send(std::string("hi from ") + std::to_string(c.rank()),
               (c.rank() + p - 1) % p, 8);
        const int from_left = c.recv<int>((c.rank() + p - 1) % p, 7);
        EXPECT_EQ(from_left, ((c.rank() + p - 1) % p) * 10);
        sim::status st;
        const auto greeting = c.recv<std::string>(sim::any_source, 8, &st);
        EXPECT_EQ(st.source, (c.rank() + 1) % p);
        EXPECT_EQ(greeting, "hi from " + std::to_string((c.rank() + 1) % p));
        // Real process isolation, same witness as the socket test.
        static int calls = 0;
        ++calls;
        auto out = std::vector<std::byte>{};
        ygm::ser::append_bytes(calls, out);
        return out;
      });
  ASSERT_EQ(blobs.size(), 4u);
  for (const auto& b : blobs) {
    EXPECT_EQ(ygm::ser::from_bytes<int>({b.data(), b.size()}), 1);
  }
}

TEST(Shm, CollectivesMatchInprocSemantics) {
  sim::run(on_backend(tp::backend_kind::shm, 5), [](sim::comm& c) {
    const int p = c.size();
    c.barrier();
    int v = c.rank() == 2 ? 99 : -1;
    c.bcast(v, 2);
    EXPECT_EQ(v, 99);
    const int sum = c.allreduce(c.rank() + 1, sim::op_sum{});
    EXPECT_EQ(sum, p * (p + 1) / 2);
    const auto all = c.allgather(c.rank() * 2);
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 2);
    }
    std::vector<std::vector<int>> sendbufs(static_cast<std::size_t>(p));
    for (int dest = 0; dest < p; ++dest) {
      sendbufs[static_cast<std::size_t>(dest)] = {c.rank(), dest};
    }
    const auto recvd = c.alltoallv(sendbufs);
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(recvd[static_cast<std::size_t>(src)],
                (std::vector<int>{src, c.rank()}));
    }
  });
}

TEST(Shm, LargePayloadsSpillThroughSharedPool) {
  // Payloads far beyond the inline threshold (16 KiB) and beyond the spill
  // ring itself (256 KiB) must stream through intact, both directions at
  // once so the chunked spill protocol is exercised under crossing traffic.
  sim::run(on_backend(tp::backend_kind::shm, 2), [](sim::comm& c) {
    const int peer = c.rank() ^ 1;
    std::vector<std::uint8_t> big(3 * 256 * 1024 + 12345);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>((i * 131 + c.rank()) & 0xff);
    }
    c.send(big, peer, 4);
    const auto got = c.recv<std::vector<std::uint8_t>>(peer, 4);
    ASSERT_EQ(got.size(), big.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<std::uint8_t>((i * 131 + peer) & 0xff))
          << "corrupt spill byte at offset " << i;
    }
    c.barrier();
  });
}

TEST(Shm, RankFailurePropagatesWithoutDeadlock) {
  try {
    sim::run(on_backend(tp::backend_kind::shm, 4), [](sim::comm& c) {
      if (c.rank() == 2) throw std::runtime_error("rank 2 exploded");
      (void)c.recv_bytes(sim::any_source, 0);
    });
    FAIL() << "expected the rank failure to rethrow in the parent";
  } catch (const ygm::error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2 exploded"),
              std::string::npos);
  }
}

TEST(Shm, SingleRankWorld) {
  sim::run(on_backend(tp::backend_kind::shm, 1), [](sim::comm& c) {
    c.barrier();
    c.send(41, 0, 0);
    EXPECT_EQ(c.recv<int>(0, 0), 41);
    EXPECT_EQ(c.allreduce_sum(7), 7u);
  });
}

// ------------------------------------- ledger + reduced chaos, all backends

ygm::core::trial_config reduced_trial(std::uint64_t seed) {
  ygm::core::trial_config t;
  t.seed = seed;
  t.scheme = ygm::routing::scheme_kind::no_route;
  t.nodes = 2;
  t.cores = 2;
  t.capacity = 256;
  t.msgs_per_rank = 24;
  t.bcasts_per_rank = 2;
  t.epochs = 2;
  t.chaos = (seed % 2) == 0 ? sim::chaos_config::light(seed)
                            : sim::chaos_config::heavy(seed);
  return t;
}

std::vector<std::string> sweep_on(tp::backend_kind backend,
                                  const ygm::core::trial_config& t) {
  sim::run_options opts;
  opts.nranks = t.num_ranks();
  opts.backend = backend;
  opts.chaos = t.chaos;
  const auto blobs = sim::run_collect(opts, [&t](sim::comm& c) {
    const auto local = ygm::core::run_chaos_trial(c, t);
    auto out = std::vector<std::byte>{};
    ygm::ser::append_bytes(local, out);
    return out;
  });
  std::vector<std::string> all;
  for (const auto& b : blobs) {
    auto local =
        ygm::ser::from_bytes<std::vector<std::string>>({b.data(), b.size()});
    all.insert(all.end(), local.begin(), local.end());
  }
  return all;
}

class LedgerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedgerSweep, InprocHoldsInvariants) {
  const auto t = reduced_trial(GetParam());
  const auto v = sweep_on(tp::backend_kind::inproc, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

TEST_P(LedgerSweep, SocketHoldsInvariants) {
  const auto t = reduced_trial(GetParam());
  const auto v = sweep_on(tp::backend_kind::socket, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

TEST_P(LedgerSweep, ShmHoldsInvariants) {
  const auto t = reduced_trial(GetParam());
  const auto v = sweep_on(tp::backend_kind::shm, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

// NLNR on the process backends: node-local pivots and remote relays both
// cross a process boundary, so every forward re-serializes through a
// coalescing buffer on its way to the next hop.
TEST_P(LedgerSweep, SocketNlnrHoldsInvariants) {
  auto t = reduced_trial(GetParam());
  t.scheme = ygm::routing::scheme_kind::nlnr;
  const auto v = sweep_on(tp::backend_kind::socket, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

TEST_P(LedgerSweep, ShmNlnrHoldsInvariants) {
  auto t = reduced_trial(GetParam());
  t.scheme = ygm::routing::scheme_kind::nlnr;
  const auto v = sweep_on(tp::backend_kind::shm, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerSweep, ::testing::Values(2u, 3u));

// ------------------------------------------------- cross-backend parity

// One rank's digest of everything its mailbox delivered: count plus an
// order-independent content hash (deliveries may interleave differently
// per backend; the multiset of delivered messages must not).
std::vector<std::byte> parity_workload(sim::comm& c, std::uint64_t seed) {
  const ygm::routing::topology topo(2, 2);
  ygm::core::comm_world world(c, topo,
                              ygm::routing::scheme_kind::node_local);
  std::uint64_t count = 0;
  std::uint64_t hash = 0;
  ygm::core::mailbox<ygm::core::probe_msg> mb(
      world,
      [&](const ygm::core::probe_msg& m) {
        std::uint64_t byte_sum = 0;
        for (const auto b : m.filler) byte_sum += b;
        ++count;
        hash += ygm::splitmix64(m.origin ^ ygm::splitmix64(m.kind) ^
                                ygm::splitmix64(m.seq + 1) ^
                                ygm::splitmix64(byte_sum + m.filler.size()));
      },
      256);

  ygm::core::delivery_ledger ledger(c.rank(), c.size());
  ygm::xoshiro256 rng(ygm::splitmix64(seed) ^
                      static_cast<std::uint64_t>(c.rank()));
  for (int i = 0; i < 48; ++i) {
    const int dest =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
    mb.send(dest, ledger.make_p2p(dest, static_cast<std::size_t>(rng.below(40))));
    if (rng.below(3) == 0) mb.poll();
  }
  for (int b = 0; b < 3; ++b) {
    mb.send_bcast(ledger.make_bcast(static_cast<std::size_t>(rng.below(24))));
  }
  mb.wait_empty();
  c.barrier();

  auto out = std::vector<std::byte>{};
  ygm::ser::append_bytes(std::pair<std::uint64_t, std::uint64_t>{count, hash},
                         out);
  return out;
}

TEST(Parity, SameSeededWorkloadSameLedgerOnAllBackends) {
  const std::uint64_t seed = 20260807;
  const auto digest_on = [&](tp::backend_kind k) {
    return sim::run_collect(on_backend(k, 4), [&](sim::comm& c) {
      return parity_workload(c, seed);
    });
  };
  const auto a = digest_on(tp::backend_kind::inproc);
  for (const auto k : {tp::backend_kind::socket, tp::backend_kind::shm}) {
    const auto b = digest_on(k);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
      const auto da =
          ygm::ser::from_bytes<std::pair<std::uint64_t, std::uint64_t>>(
              {a[r].data(), a[r].size()});
      const auto db =
          ygm::ser::from_bytes<std::pair<std::uint64_t, std::uint64_t>>(
              {b[r].data(), b[r].size()});
      EXPECT_EQ(da.first, db.first)
          << "delivery count diverged at rank " << r << " on "
          << tp::to_string(k);
      EXPECT_EQ(da.second, db.second)
          << "content hash diverged at rank " << r << " on "
          << tp::to_string(k);
      EXPECT_GT(da.first, 0u) << "rank " << r << " delivered nothing";
    }
  }
}

// ---------------------------------------------- telemetry per backend lane

TEST(Telemetry, ProbeCountersPublishedPerBackendLane) {
  tel::session session;
  tel::set_global(&session);

  sim::run_options opts = on_backend(tp::backend_kind::inproc, 2);
  opts.chaos = sim::chaos_config::heavy(11);  // probe misses active
  sim::run(opts, [](sim::comm& c) {
    const int peer = c.rank() ^ 1;
    // Enough probe rounds that the 30% deterministic miss stream is
    // guaranteed to fire at least once.
    for (int i = 0; i < 32; ++i) {
      c.send(7 + i, peer, 1);
      while (!c.iprobe(peer, 1)) {
      }
      EXPECT_EQ(c.recv<int>(peer, 1), 7 + i);
    }
  });
  tel::set_global(nullptr);

  const auto m = session.merged_metrics();
  EXPECT_GT(m.counters().at("transport.inproc.posts"), 0u);
  EXPECT_GT(m.counters().at("transport.inproc.post_bytes"), 0u);
  EXPECT_GT(m.counters().at("transport.inproc.iprobe_calls"), 0u);
  EXPECT_GT(m.counters().at("transport.inproc.iprobe_draws"), 0u);
  // heavy chaos injects probe misses; the loop above retries through them.
  EXPECT_GT(m.counters().at("transport.inproc.iprobe_misses"), 0u);
}

TEST(Telemetry, SocketLaneShipsAcrossProcesses) {
  tel::session session;
  tel::set_global(&session);
  sim::run(on_backend(tp::backend_kind::socket, 3), [](sim::comm& c) {
    tel::count("test.sockets.child_counter", 5);
    c.send(c.rank(), (c.rank() + 1) % c.size(), 2);
    (void)c.recv<int>(sim::any_source, 2);
    c.barrier();
  });
  tel::set_global(nullptr);

  const auto m = session.merged_metrics();
  // Child-recorded metrics arrive in the parent session...
  EXPECT_EQ(m.counters().at("test.sockets.child_counter"), 15u);
  // ...as do the endpoint's own transport counters, wire stats included.
  EXPECT_GT(m.counters().at("transport.socket.posts"), 0u);
  EXPECT_GT(m.counters().at("transport.socket.wire_tx_bytes"), 0u);
  EXPECT_GT(m.counters().at("transport.socket.wire_rx_bytes"), 0u);
  EXPECT_GT(m.counters().at("transport.socket.wire_sendmsg_calls"), 0u);
  EXPECT_GT(m.counters().at("mpi.sends"), 0u);
}

TEST(Telemetry, ShmLaneShipsAcrossProcesses) {
  tel::session session;
  tel::set_global(&session);
  sim::run(on_backend(tp::backend_kind::shm, 3), [](sim::comm& c) {
    tel::count("test.shm.child_counter", 5);
    c.send(c.rank(), (c.rank() + 1) % c.size(), 2);
    (void)c.recv<int>(sim::any_source, 2);
    c.barrier();
  });
  tel::set_global(nullptr);

  const auto m = session.merged_metrics();
  EXPECT_EQ(m.counters().at("test.shm.child_counter"), 15u);
  // The endpoint's teardown publishes ring traffic onto the rank lane,
  // which must ship to the parent like any other counter.
  EXPECT_GT(m.counters().at("transport.shm.posts"), 0u);
  EXPECT_GT(m.counters().at("transport.shm.ring_tx_bytes"), 0u);
  EXPECT_GT(m.counters().at("transport.shm.ring_rx_bytes"), 0u);
  EXPECT_GT(m.counters().at("mpi.sends"), 0u);
}

}  // namespace
