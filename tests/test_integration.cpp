// Cross-module integration tests: full pipelines that chain several
// subsystems the way the benches and a real application would, plus
// failure-injection paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cc_disjoint_set.hpp"
#include "apps/connected_components.hpp"
#include "apps/degree_count.hpp"
#include "apps/spmv.hpp"
#include "containers/counting_set.hpp"
#include "core/ygm.hpp"
#include "graph/degree_model.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "linalg/combblas_lite.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::graph::edge;
using ygm::graph::vertex_id;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// The full delegate pipeline of the paper's §V-B experiment: generate an
// RMAT graph, count degrees (Algorithm 1), scale the threshold with the
// expected max degree, select delegates, run CC with broadcast-synchronized
// replicas, and verify against the union-find oracle AND the disjoint-set
// implementation.
TEST(Pipeline, FullDelegatePipelineOnRmat) {
  const topology topo(2, 4);
  const int scale = 8;
  const std::uint64_t m = 6000;
  const vertex_id n = vertex_id{1} << scale;
  const auto params = ygm::graph::rmat_params::graph500();

  // Serial oracle from the (deterministic) union of all rank streams.
  std::vector<edge> all;
  for (int r = 0; r < topo.num_ranks(); ++r) {
    ygm::graph::rmat_generator g(scale, m, params, 99, r, topo.num_ranks());
    g.for_each([&](const edge& e) { all.push_back(e); });
  }
  const auto oracle = ygm::apps::connected_components_reference(n, all);

  sim::run(topo.num_ranks(), [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    const ygm::graph::rmat_generator gen(scale, m, params, 99, c.rank(),
                                         c.size());
    const ygm::graph::round_robin_partition part{c.size()};

    // Phase 1: degrees.
    const auto deg = ygm::apps::degree_count(world, gen, 512);

    // Phase 2: threshold from the closed-form degree model.
    const ygm::graph::rmat_degree_model dm(scale, m, params);
    auto threshold = static_cast<std::uint64_t>(dm.max_degree() / 8);
    if (threshold < 2) threshold = 2;
    const auto delegates = ygm::graph::select_delegates(
        world, deg.local_degrees, part, threshold);
    const auto ndeleg = c.allreduce(delegates.size(), sim::op_max{});
    EXPECT_GT(ndeleg, 0u) << "skewed graph must produce delegates";

    // Phase 3: CC with delegates.
    std::vector<edge> mine;
    gen.for_each([&](const edge& e) { mine.push_back(e); });
    const auto cc =
        ygm::apps::connected_components(world, mine, n, delegates, 512);

    // Phase 4: CC again via the disjoint-set container.
    const auto ds =
        ygm::apps::connected_components_disjoint_set(world, mine, n, 512);

    for (std::uint64_t j = 0; j < cc.local_labels.size(); ++j) {
      const vertex_id id = part.global_id(c.rank(), j);
      ASSERT_EQ(cc.local_labels[j], oracle[id]) << "label-prop vertex " << id;
      ASSERT_EQ(ds.local_labels[j], oracle[id]) << "disjoint-set vertex " << id;
    }
    EXPECT_GT(cc.broadcasts + 1, 0u);
  });
}

// The Fig. 8 head-to-head: one matrix, three SpMV implementations (YGM with
// delegates, YGM without, CombBLAS-lite), all agreeing with the serial
// reference.
TEST(Pipeline, ThreeWaySpmvAgreement) {
  const int ranks = 16;  // 4x4 grid, 4 cores/node
  const std::uint64_t n = 1 << 9;
  const std::uint64_t nnz = 8 * n;
  const auto params = ygm::graph::rmat_params::graph500();

  std::vector<ygm::linalg::triplet> all;
  for (int r = 0; r < ranks; ++r) {
    ygm::graph::rmat_generator g(9, nnz, params, 5, r, ranks);
    g.for_each([&](const edge& e) {
      all.push_back({e.src, e.dst, 1.0 + static_cast<double>(e.dst % 5)});
    });
  }
  std::vector<double> x(n);
  for (std::uint64_t i = 0; i < n; ++i) x[i] = 0.25 * static_cast<double>(i % 11) - 1;
  const auto ref = ygm::linalg::spmv_reference(n, all, x);

  sim::run(ranks, [&](sim::comm& c) {
    comm_world world(c, 4, scheme_kind::node_remote);
    const ygm::graph::round_robin_partition part{c.size()};
    const ygm::graph::rmat_generator gen(9, nnz, params, 5, c.rank(),
                                         c.size());
    std::vector<ygm::linalg::triplet> mine;
    gen.for_each([&](const edge& e) {
      mine.push_back({e.src, e.dst, 1.0 + static_cast<double>(e.dst % 5)});
    });

    std::vector<double> x_local(part.local_count(c.rank(), n));
    for (std::uint64_t j = 0; j < x_local.size(); ++j) {
      x_local[j] = x[part.global_id(c.rank(), j)];
    }

    ygm::apps::dist_spmv plain(world, n, mine, {});
    const auto y_plain = plain.multiply(x_local);

    ygm::apps::dist_spmv delegated(world, n, mine,
                                   ygm::graph::delegate_set({0, 1, 2, 3}));
    const auto y_del = delegated.multiply(x_local);

    ygm::linalg::combblas_lite grid(c, n, mine);
    std::vector<double> xb(grid.block_size(grid.grid_col()), 0.0);
    if (grid.on_diagonal()) {
      for (std::uint64_t i = 0; i < xb.size(); ++i) {
        xb[i] = x[grid.block_begin(grid.grid_col()) + i];
      }
    }
    const auto y_grid = grid.spmv(xb);

    for (std::uint64_t j = 0; j < y_plain.local_y.size(); ++j) {
      const vertex_id row = part.global_id(c.rank(), j);
      ASSERT_NEAR(y_plain.local_y[j], ref[row], 1e-9);
      ASSERT_NEAR(y_del.local_y[j], ref[row], 1e-9);
    }
    if (grid.on_diagonal()) {
      const std::uint64_t r0 = grid.block_begin(grid.grid_row());
      for (std::uint64_t i = 0; i < y_grid.size(); ++i) {
        ASSERT_NEAR(y_grid[i], ref[r0 + i], 1e-9);
      }
    }
  });
}

// Mailbox-driven BFS on an RMAT graph must match the sequential oracle
// level by level.
TEST(Pipeline, MailboxBfsMatchesOracleLevels) {
  const topology topo(2, 4);
  const int scale = 7;
  const vertex_id n = vertex_id{1} << scale;
  std::vector<edge> all;
  {
    ygm::graph::rmat_generator g(scale, 900,
                                 ygm::graph::rmat_params::graph500(), 3, 0,
                                 1);
    g.for_each([&](const edge& e) { all.push_back(e); });
  }
  const vertex_id root = all.front().src;
  const auto oracle = ygm::apps::bfs_reference(n, all, root);

  sim::run(topo.num_ranks(), [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_local);
    std::vector<edge> mine;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(c.size())) ==
          c.rank()) {
        mine.push_back(all[i]);
      }
    }
    const ygm::apps::local_adjacency adj(world, mine, n, false);
    const auto& part = adj.partition();
    const auto bfs = ygm::apps::bfs(world, adj, root, 256);

    for (std::uint64_t j = 0; j < bfs.local_levels.size(); ++j) {
      const vertex_id id = part.global_id(c.rank(), j);
      ASSERT_EQ(bfs.local_levels[j], oracle[id]);
    }
  });
}

// Degree counting through the counting_set container must agree with the
// Algorithm 1 implementation.
TEST(Pipeline, CountingSetReproducesDegreeCount) {
  const topology topo(2, 2);
  const vertex_id n = 100;
  const std::uint64_t m = 1200;
  sim::run(topo.num_ranks(), [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    const ygm::graph::erdos_renyi_generator gen(n, m, 8, c.rank(), c.size());

    const auto direct = ygm::apps::degree_count(world, gen, 256);

    ygm::container::counting_set<vertex_id> cs(world, 256);
    gen.for_each([&](const edge& e) {
      cs.async_insert(e.src);
      cs.async_insert(e.dst);
    });
    cs.wait_empty();
    EXPECT_EQ(cs.global_total(), 2 * m);

    // Compare each vertex's count: the container hashes ownership, so ask
    // the container on the rank that owns each vertex under ITS partition.
    const ygm::graph::round_robin_partition part{c.size()};
    std::uint64_t checked = 0;
    for (vertex_id v = 0; v < n; ++v) {
      if (cs.owner(v) == c.rank() && part.owner(v) == c.rank()) {
        EXPECT_EQ(cs.local_count(v),
                  direct.local_degrees[part.local_index(v)]);
        ++checked;
      }
    }
    // Cross-partition comparisons need communication; enough overlap exists
    // on small worlds for this spot check to be meaningful.
    const auto total_checked = c.allreduce(checked, sim::op_sum{});
    EXPECT_GT(total_checked, 0u);
  });
}

// Failure injection: an exception thrown from a receive callback on one
// rank must abort the world and propagate, not deadlock the others.
TEST(FailureInjection, CallbackExceptionAbortsCleanly) {
  const topology topo(2, 2);
  EXPECT_THROW(
      sim::run(topo.num_ranks(),
               [&](sim::comm& c) {
                 comm_world world(c, topo, scheme_kind::node_remote);
                 ygm::core::mailbox<int> mb(
                     world, [&](const int& v) {
                       if (v == 13 && c.rank() == 1) {
                         throw std::runtime_error("poison message");
                       }
                     });
                 for (int d = 0; d < c.size(); ++d) {
                   if (d != c.rank()) mb.send(d, 13);
                 }
                 mb.wait_empty();
               }),
      std::runtime_error);
}

// Failure injection: malformed wire bytes on the mailbox's data tag must
// surface as ygm::error, not memory corruption.
TEST(FailureInjection, CorruptPacketIsRejected) {
  const topology topo(1, 2);
  EXPECT_THROW(
      sim::run(topo.num_ranks(),
               [&](sim::comm& c) {
                 comm_world world(c, topo, scheme_kind::no_route);
                 ygm::core::mailbox<std::string> mb(world,
                                                    [](const std::string&) {});
                 if (c.rank() == 0) {
                   // Forge a packet: header varint claims a huge payload.
                   std::vector<std::byte> evil;
                   ygm::ser::varint_encode((1ULL << 1), evil);    // addr 1, p2p
                   ygm::ser::varint_encode(1ULL << 40, evil);     // len lie
                   c.send_bytes(1, 1 << 20, std::move(evil));     // data tag
                 }
                 // Sends are eager, so after the barrier the forged packet
                 // is already queued at rank 1 and its first poll hits it.
                 c.barrier();
                 mb.wait_empty();
               }),
      ygm::error);
}

}  // namespace
