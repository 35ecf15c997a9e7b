// The hybrid deployment of paper §VII on multi-core machine shapes: one OS
// process per rank, node-local hops over shared memory (the shm backend),
// core::mailbox on top. test_mailbox.cpp runs the same machine grid with
// threads as ranks (inproc); this suite checks that exactly-once delivery,
// broadcast fan-out and callback-cascade termination hold unchanged when
// every rank is its own process sharing the host's memory. Rank bodies run
// in forked children, so each returns its (observed, expected) pairs and
// the parent process makes the assertions.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/ygm.hpp"
#include "mpisim/runtime.hpp"
#include "ser/serialize.hpp"
#include "transport/endpoint.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

struct machine_case {
  scheme_kind kind;
  int nodes;
  int cores;
  std::size_t capacity;
};

std::vector<machine_case> machine_cases() {
  std::vector<machine_case> cases;
  for (auto kind : ygm::routing::all_schemes) {
    for (auto [n, c] : {std::pair{1, 4}, {2, 2}, {2, 4}, {4, 2}, {3, 3}}) {
      cases.push_back({kind, n, c, 1024});
    }
    // Tiny capacity: nearly every send flushes a shm frame.
    cases.push_back({kind, 2, 4, 1});
  }
  return cases;
}

sim::run_options on_shm(const topology& topo) {
  sim::run_options o;
  o.nranks = topo.num_ranks();
  o.backend = ygm::transport::backend_kind::shm;
  // Pin chaos off so an ambient YGM_CHAOS cannot skew the exact counts.
  o.chaos = sim::chaos_config{};
  return o;
}

// (observed, expected) pairs one rank reports back to the parent.
using checks = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

void expect_on_every_rank(const topology& topo,
                          const std::function<checks(sim::comm&)>& body) {
  const auto blobs = sim::run_collect(
      on_shm(topo), [&](sim::comm& c) { return ygm::ser::to_bytes(body(c)); });
  ASSERT_EQ(blobs.size(), static_cast<std::size_t>(topo.num_ranks()));
  for (std::size_t r = 0; r < blobs.size(); ++r) {
    const auto got =
        ygm::ser::from_bytes<checks>({blobs[r].data(), blobs[r].size()});
    ASSERT_FALSE(got.empty()) << "rank " << r;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, got[i].second) << "rank " << r << " check " << i;
    }
  }
}

class HybridMachines : public ::testing::TestWithParam<machine_case> {};

TEST_P(HybridMachines, RandomTrafficDeliversExactlyOnce) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  expect_on_every_rank(topo, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);
    std::uint64_t recv_count = 0;
    std::uint64_t recv_sum = 0;
    mailbox<std::uint64_t> mb(
        world,
        [&](const std::uint64_t& v) {
          ++recv_count;
          recv_sum += v;
        },
        mc.capacity);

    ygm::xoshiro256 rng(7 + static_cast<std::uint64_t>(c.rank()));
    const int sends = 150 + static_cast<int>(rng.below(150));
    std::vector<std::uint64_t> count_to(static_cast<std::size_t>(c.size()), 0);
    std::vector<std::uint64_t> sum_to(static_cast<std::size_t>(c.size()), 0);
    for (int i = 0; i < sends; ++i) {
      const int dest =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
      const std::uint64_t value = rng() >> 20;
      mb.send(dest, value);
      ++count_to[static_cast<std::size_t>(dest)];
      sum_to[static_cast<std::size_t>(dest)] += value;
    }
    mb.wait_empty();

    const auto expect_count = c.allreduce_vec(count_to, sim::op_sum{});
    const auto expect_sum = c.allreduce_vec(sum_to, sim::op_sum{});
    const auto me = static_cast<std::size_t>(c.rank());
    return checks{{recv_count, expect_count[me]}, {recv_sum, expect_sum[me]}};
  });
}

TEST_P(HybridMachines, BroadcastReachesEveryOtherRankOnce) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  expect_on_every_rank(topo, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);
    std::vector<int> copies_from(static_cast<std::size_t>(c.size()), 0);
    mailbox<std::uint32_t> mb(
        world,
        [&](const std::uint32_t& origin) {
          ++copies_from[static_cast<std::size_t>(origin)];
        },
        mc.capacity);
    constexpr int kBcasts = 4;
    for (int i = 0; i < kBcasts; ++i) {
      mb.send_bcast(static_cast<std::uint32_t>(c.rank()));
    }
    mb.wait_empty();
    checks out;
    for (int origin = 0; origin < c.size(); ++origin) {
      out.emplace_back(
          static_cast<std::uint64_t>(copies_from[static_cast<std::size_t>(origin)]),
          origin == c.rank() ? 0u : std::uint64_t{kBcasts});
    }
    return out;
  });
}

TEST_P(HybridMachines, CallbackCascadesTerminate) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  struct hop_msg {
    std::uint32_t ttl = 0;
    std::uint64_t seed = 0;
  };
  expect_on_every_rank(topo, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);
    std::uint64_t deliveries = 0;
    mailbox<hop_msg>* mbp = nullptr;
    mailbox<hop_msg> mb(
        world,
        [&](const hop_msg& m) {
          ++deliveries;
          if (m.ttl > 0) {
            const auto next = ygm::splitmix64(m.seed);
            mbp->send(static_cast<int>(
                          next % static_cast<std::uint64_t>(c.size())),
                      hop_msg{m.ttl - 1, next});
          }
        },
        mc.capacity);
    mbp = &mb;
    constexpr std::uint32_t kTtl = 5;
    constexpr int kSeeds = 12;
    for (int i = 0; i < kSeeds; ++i) {
      const auto seed = ygm::splitmix64(
          static_cast<std::uint64_t>(c.rank()) * 77 + static_cast<std::uint64_t>(i));
      mb.send(static_cast<int>(seed % static_cast<std::uint64_t>(c.size())),
              hop_msg{kTtl, seed});
    }
    mb.wait_empty();
    const auto total = c.allreduce(deliveries, sim::op_sum{});
    return checks{
        {total, static_cast<std::uint64_t>(c.size()) * kSeeds * (kTtl + 1)}};
  });
}

INSTANTIATE_TEST_SUITE_P(
    Machines, HybridMachines, ::testing::ValuesIn(machine_cases()),
    [](const ::testing::TestParamInfo<machine_case>& info) {
      return std::string(ygm::routing::to_string(info.param.kind)) + "_N" +
             std::to_string(info.param.nodes) + "_C" +
             std::to_string(info.param.cores) + "_cap" +
             std::to_string(info.param.capacity);
    });

}  // namespace
