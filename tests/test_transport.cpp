// Tests for the transport substrate (src/transport/): backend selection,
// the endpoint contract on every backend (point-to-point, probing,
// collectives, communicator algebra, abort propagation, single-rank
// worlds), rank death and hostile frame headers on the forked backends,
// the delivery-invariant ledger and a reduced chaos sweep on every backend,
// cross-backend parity of a seeded workload, and per-backend telemetry
// publication.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/invariants.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "ser/serialize.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/endpoint.hpp"
#include "transport/shm/shm_transport.hpp"
#include "transport/socket/socket_transport.hpp"
#include "transport/wire.hpp"

namespace {

namespace sim = ygm::mpisim;
namespace tp = ygm::transport;
namespace tel = ygm::telemetry;

ygm::run_options on_backend(tp::backend_kind k, int nranks) {
  ygm::run_options o;
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

// ------------------------------------------- the contract, every backend

class Contract : public ::testing::TestWithParam<tp::backend_kind> {
 protected:
  ygm::run_options opts(int nranks) const {
    return on_backend(GetParam(), nranks);
  }
};

std::string backend_name(
    const ::testing::TestParamInfo<tp::backend_kind>& info) {
  return std::string(tp::to_string(info.param));
}

TEST_P(Contract, PointToPoint) {
  const bool forked = GetParam() != tp::backend_kind::inproc;
  const auto blobs = ygm::launch_collect(opts(4), [forked](sim::comm& c) {
    // Ring: send my rank left and right, typed.
    const int p = c.size();
    c.send(c.rank() * 10, (c.rank() + 1) % p, 7);
    c.send(std::string("hi from ") + std::to_string(c.rank()),
           (c.rank() + p - 1) % p, 8);
    const int from_left = c.recv<int>((c.rank() + p - 1) % p, 7);
    EXPECT_EQ(from_left, ((c.rank() + p - 1) % p) * 10);
    tp::status st;
    const auto greeting = c.recv<std::string>(tp::any_source, 8, &st);
    EXPECT_EQ(st.source, (c.rank() + 1) % p);
    EXPECT_EQ(greeting, "hi from " + std::to_string((c.rank() + 1) % p));
    auto out = std::vector<std::byte>{};
    if (forked) {
      // Each process must really be its own rank: the static below is
      // per-process state, so with forked ranks every rank sees 1. (Rank
      // threads would share it, so inproc ranks leave it alone.)
      static int calls = 0;
      ++calls;
      ygm::ser::append_bytes(calls, out);
    }
    return out;
  });
  ASSERT_EQ(blobs.size(), 4u);
  if (!forked) return;
  for (const auto& b : blobs) {
    EXPECT_EQ(ygm::ser::from_bytes<int>({b.data(), b.size()}), 1);
  }
}

TEST_P(Contract, ProbeAndPending) {
  ygm::launch(opts(4), [](sim::comm& c) {
    if (c.rank() == 0) {
      for (int dest = 1; dest < c.size(); ++dest) c.send(dest * 3, dest, 5);
      c.barrier();
    } else {
      const auto st = c.probe(0, 5);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
      EXPECT_EQ(c.recv<int>(0, 5), c.rank() * 3);
      c.barrier();
    }
  });
}

TEST_P(Contract, Collectives) {
  ygm::launch(opts(5), [](sim::comm& c) {
    const int p = c.size();
    c.barrier();

    int v = c.rank() == 2 ? 99 : -1;
    c.bcast(v, 2);
    EXPECT_EQ(v, 99);

    const int sum = c.allreduce(c.rank() + 1, sim::op_sum{});
    EXPECT_EQ(sum, p * (p + 1) / 2);
    EXPECT_EQ(c.allreduce(static_cast<std::uint64_t>(c.rank() + 1),
                          sim::op_sum{}),
              static_cast<std::uint64_t>(p * (p + 1) / 2));

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

TEST_P(Contract, SplitAndDup) {
  ygm::launch(opts(4), [](sim::comm& c) {
    auto half = c.split(c.rank() % 2, c.rank());
    EXPECT_EQ(half.size(), 2);
    const int hsum = half.allreduce(c.rank(), sim::op_sum{});
    EXPECT_EQ(hsum, c.rank() % 2 == 0 ? 0 + 2 : 1 + 3);

    const int peer = c.rank() ^ 1;
    c.send(c.rank(), peer, 3);
    EXPECT_EQ(c.recv<int>(peer, 3), peer);
    c.barrier();
  });
}

TEST_P(Contract, RankFailure) {
  try {
    ygm::launch(opts(4), [](sim::comm& c) {
      if (c.rank() == 2) throw std::runtime_error("rank 2 exploded");
      // Other ranks block forever; the world abort must wake them.
      (void)c.recv_bytes(tp::any_source, 0);
    });
    FAIL() << "expected the rank failure to rethrow in the caller";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2 exploded"),
              std::string::npos);
    // Inproc rethrows the rank's own exception; a forked launcher only has
    // the message and must rethrow it as ygm::error.
    if (GetParam() != tp::backend_kind::inproc) {
      EXPECT_NE(dynamic_cast<const ygm::error*>(&e), nullptr)
          << "forked launcher rethrew a non-ygm::error";
    }
  }
}

TEST_P(Contract, SingleRank) {
  ygm::launch(opts(1), [](sim::comm& c) {
    c.barrier();
    c.send(41, 0, 0);  // self-send loops through the own slot
    EXPECT_EQ(c.recv<int>(0, 0), 41);
    EXPECT_EQ(c.allreduce(std::uint64_t{7}, sim::op_sum{}), 7u);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, Contract,
                         ::testing::Values(tp::backend_kind::inproc,
                                           tp::backend_kind::socket,
                                           tp::backend_kind::shm),
                         backend_name);

// ------------------------------------------------------------ rank death

class RankDeath : public ::testing::TestWithParam<tp::backend_kind> {};

TEST_P(RankDeath, KilledRankEndsTheRunAndIsNamed) {
  // Rank 1 dies by signal while rank 0 blocks in recv on it. The launcher
  // must end rank 0 and name rank 1 as the cause, promptly. Rank 0 arms an
  // alarm so a launcher that waits on it anyway still ends (late, failing
  // the bound) instead of hanging the suite.
  const auto t0 = std::chrono::steady_clock::now();
  try {
    ygm::launch(on_backend(GetParam(), 2), [](sim::comm& c) {
      c.barrier();
      if (c.rank() == 1) ::raise(SIGKILL);
      ::alarm(30);
      (void)c.recv_bytes(1, 0);
    });
    FAIL() << "expected the killed rank to fail the run";
  } catch (const ygm::error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1 terminated without reporting"),
              std::string::npos)
        << what;
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(secs, 10.0) << "the surviving rank was left blocked";
}

INSTANTIATE_TEST_SUITE_P(Forked, RankDeath,
                         ::testing::Values(tp::backend_kind::socket,
                                           tp::backend_kind::shm),
                         backend_name);

// ---------------------------------------------------- frame header checks

// Run `a` and `b` on two threads and join both (endpoint constructors
// block until their world has rendezvoused).
template <class A, class B>
void concurrently(A&& a, B&& b) {
  std::thread t(std::forward<B>(b));
  a();
  t.join();
}

// A 2-rank socket world whose rank 1 is played by hand: `fd` is rank 1's
// connection to rank 0's endpoint, hello already sent.
struct hand_played_socket_peer {
  std::string dir;
  std::unique_ptr<tp::socket::endpoint> ep;
  int fd = -1;

  hand_played_socket_peer() {
    char tmpl[] = "/tmp/ygm-hdr-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) return;
    dir = tmpl;
    concurrently(
        [&] {
          ep = std::make_unique<tp::socket::endpoint>(dir, 0, 2, nullptr);
        },
        [&] {
          sockaddr_un addr{};
          addr.sun_family = AF_UNIX;
          const std::string path = dir + "/r0.sock";
          std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
          for (int i = 0; i < 5000; ++i) {
            fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0) {
              break;
            }
            ::close(fd);
            fd = -1;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          if (fd < 0) return;
          tp::wire_header hello{};
          hello.kind = static_cast<std::uint32_t>(tp::frame_kind::hello);
          hello.src = 1;
          if (::write(fd, &hello, sizeof(hello)) !=
              static_cast<ssize_t>(sizeof(hello))) {
            ::close(fd);
            fd = -1;
          }
        });
  }

  ~hand_played_socket_peer() {
    ep.reset();
    if (fd >= 0) ::close(fd);
    if (!dir.empty()) {
      ::unlink((dir + "/r0.sock").c_str());
      ::rmdir(dir.c_str());
    }
  }

  // Send a header of an unknown kind that announces 1 MiB of payload and
  // sends none.
  bool send_bad_header() const {
    tp::wire_header bad{};
    bad.kind = 99;
    bad.payload_len = 1u << 20;
    return ::write(fd, &bad, sizeof(bad)) == static_cast<ssize_t>(sizeof(bad));
  }
};

TEST(FrameHeader, SocketRejectsUnknownKindBeforeReadingPayload) {
  // Rank 0 must reject the bad header on arrival, naming rank 1, not wait
  // for the payload.
  hand_played_socket_peer w;
  ASSERT_TRUE(w.ep);
  ASSERT_GE(w.fd, 0);
  ASSERT_TRUE(w.send_bad_header());
  auto& ep = w.ep;

  std::string what;
  for (int i = 0; i < 2000 && what.empty(); ++i) {
    try {
      (void)ep->iprobe(tp::any_source, tp::any_tag, tp::world_context);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } catch (const ygm::error& e) {
      what = e.what();
    }
  }
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("unknown frame kind 99"), std::string::npos) << what;
  // The error sticks: the rank sees it again rather than a silent peer.
  EXPECT_THROW(
      (void)ep->iprobe(tp::any_source, tp::any_tag, tp::world_context),
      ygm::error);
}

TEST(FrameHeader, SocketAbortWorldReportsBadHeaderWithoutThrowing) {
  // A rank aborting its world (its own error is on the way out) pumps once
  // to send the abort frames. A bad header met in that pump must be
  // reported, not thrown over the rank's own error, and the abort must
  // still reach the slot.
  hand_played_socket_peer w;
  ASSERT_TRUE(w.ep);
  ASSERT_GE(w.fd, 0);
  ASSERT_TRUE(w.send_bad_header());
  ::testing::internal::CaptureStderr();
  EXPECT_NO_THROW(w.ep->abort_world());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown frame kind 99"), std::string::npos) << err;
  try {
    (void)w.ep->iprobe(tp::any_source, tp::any_tag, tp::world_context);
    ADD_FAILURE() << "iprobe on an aborted world returned";
  } catch (const ygm::error& e) {
    EXPECT_NE(std::string(e.what()).find("world aborted"), std::string::npos)
        << e.what();
  }
}

TEST(FrameHeader, ShmRejectsTruncatedDataFrameWithoutConsumingIt) {
  // Publish, into rank 0's inbound ring from rank 1, a data-frame header
  // whose payload was never published. Rank 0 must reject it before any
  // payload read: the error names rank 1 and the ring is left unconsumed.
  char tmpl[] = "/tmp/ygm-hdr-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  std::unique_ptr<tp::shm::endpoint> ep0;
  std::unique_ptr<tp::shm::endpoint> ep1;
  concurrently(
      [&] { ep0 = std::make_unique<tp::shm::endpoint>(dir, 0, 2, nullptr); },
      [&] { ep1 = std::make_unique<tp::shm::endpoint>(dir, 1, 2, nullptr); });
  ASSERT_TRUE(ep0 && ep1);

  const std::string name = tp::shm::segment_name(dir, 0);
  const int sfd = ::shm_open(name.c_str(), O_RDWR, 0600);
  ASSERT_GE(sfd, 0);
  const std::size_t bytes = tp::shm::segment_bytes(2);
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, sfd, 0);
  ::close(sfd);
  ASSERT_NE(base, MAP_FAILED);
  auto* from1 = reinterpret_cast<tp::shm::pair_block*>(
      static_cast<std::byte*>(base) + sizeof(tp::shm::seg_header) +
      sizeof(tp::shm::pair_block));
  tp::shm::ring_view ring(&from1->main_ctrl, from1->main_data,
                          tp::shm::main_ring_bytes);
  tp::wire_header bad{};
  bad.kind = static_cast<std::uint32_t>(tp::frame_kind::data);
  bad.payload_len = 1000;
  ring.stage(&bad, sizeof(bad));
  ASSERT_EQ(ring.publish(), sizeof(bad));

  std::string what;
  try {
    (void)ep0->iprobe(tp::any_source, tp::any_tag, tp::world_context);
  } catch (const ygm::error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("not fully published"), std::string::npos) << what;
  EXPECT_EQ(from1->main_ctrl.head.load(), 0u)
      << "the bad frame's bytes were consumed";

  ::munmap(base, bytes);
  ep0.reset();
  ep1.reset();
  ::rmdir(dir.c_str());
}

// This process's resident set, in bytes (Linux /proc/self/statm).
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE))
                : 0;
}

TEST(FrameHeader, ShmSpillHeaderClaimCostsNoMemoryUntilBytesArrive) {
  // Publish, into rank 0's inbound ring from rank 1, a spill header that
  // claims 256 MiB and stream none of it. The claim is legal on its face
  // (a spill may be any size), so rank 0 accepts it, but its reassembly
  // buffer must grow with the bytes that arrive, not with the claim.
  char tmpl[] = "/tmp/ygm-hdr-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  std::unique_ptr<tp::shm::endpoint> ep0;
  std::unique_ptr<tp::shm::endpoint> ep1;
  concurrently(
      [&] { ep0 = std::make_unique<tp::shm::endpoint>(dir, 0, 2, nullptr); },
      [&] { ep1 = std::make_unique<tp::shm::endpoint>(dir, 1, 2, nullptr); });
  ASSERT_TRUE(ep0 && ep1);

  const std::string name = tp::shm::segment_name(dir, 0);
  const int sfd = ::shm_open(name.c_str(), O_RDWR, 0600);
  ASSERT_GE(sfd, 0);
  const std::size_t bytes = tp::shm::segment_bytes(2);
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, sfd, 0);
  ::close(sfd);
  ASSERT_NE(base, MAP_FAILED);
  auto* from1 = reinterpret_cast<tp::shm::pair_block*>(
      static_cast<std::byte*>(base) + sizeof(tp::shm::seg_header) +
      sizeof(tp::shm::pair_block));
  tp::shm::ring_view ring(&from1->main_ctrl, from1->main_data,
                          tp::shm::main_ring_bytes);
  constexpr std::size_t claim = std::size_t{256} << 20;
  tp::wire_header spill{};
  spill.kind = static_cast<std::uint32_t>(tp::frame_kind::spill);
  spill.payload_len = claim;
  ring.stage(&spill, sizeof(spill));
  ASSERT_EQ(ring.publish(), sizeof(spill));

  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  EXPECT_FALSE(
      ep0->iprobe(tp::any_source, tp::any_tag, tp::world_context).has_value());
  EXPECT_EQ(from1->main_ctrl.head.load(), sizeof(spill))
      << "the spill header was not taken";
  const std::size_t after = resident_bytes();
  EXPECT_LT(after, before + claim / 8)
      << "resident set grew by " << (after - before) << " bytes";

  // The spill never completes, so end the world by abort (teardown would
  // otherwise wait for it); an aborted world keeps its segments.
  ::munmap(base, bytes);
  ep0->abort_world();
  ep0.reset();
  ep1.reset();
  for (int r = 0; r < 2; ++r) {
    ::shm_unlink(tp::shm::segment_name(dir, r).c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(Shm, LargePayloadsSpillThroughSharedPool) {
  // Payloads far beyond the inline threshold (16 KiB) and beyond the spill
  // ring itself (256 KiB) must stream through intact, both directions at
  // once so the chunked spill protocol is exercised under crossing traffic.
  ygm::launch(on_backend(tp::backend_kind::shm, 2), [](sim::comm& c) {
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
  ygm::run_options opts;
  opts.nranks = t.num_ranks();
  opts.backend = backend;
  opts.chaos = t.chaos;
  const auto blobs = ygm::launch_collect(opts, [&t](sim::comm& c) {
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
    return ygm::launch_collect(on_backend(k, 4), [&](sim::comm& c) {
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

  ygm::run_options opts = on_backend(tp::backend_kind::inproc, 2);
  opts.chaos = sim::chaos_config::heavy(11);  // probe misses active
  ygm::launch(opts, [](sim::comm& c) {
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
  ygm::launch(on_backend(tp::backend_kind::socket, 3), [](sim::comm& c) {
    tel::count("test.sockets.child_counter", 5);
    c.send(c.rank(), (c.rank() + 1) % c.size(), 2);
    (void)c.recv<int>(tp::any_source, 2);
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
  ygm::launch(on_backend(tp::backend_kind::shm, 3), [](sim::comm& c) {
    tel::count("test.shm.child_counter", 5);
    c.send(c.rank(), (c.rank() + 1) % c.size(), 2);
    (void)c.recv<int>(tp::any_source, 2);
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
