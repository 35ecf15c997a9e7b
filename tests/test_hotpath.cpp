// Tests for the zero-copy mailbox hot path (docs/PERF.md):
//
//   * byte-identity fuzz of packet_append_inplace against the copy-based
//     packet_append across addresses (incl. the trace escape), payload
//     sizes straddling every varint width boundary, bcast flags, and
//     length-slot hints (matching, too narrow, too wide);
//   * buffer_pool unit behaviour: hit/miss accounting, the bounded
//     high-water retention that frees oversized buffers, the max_pooled
//     cap, and the sliding-window decay of the retention bound;
//   * a counting operator-new hook asserting the warm steady-state
//     send->flush->drain cycle performs ~zero heap allocations per
//     message;
//   * a 16-seed chaos sweep cross-checking that pooling never recycles a
//     buffer that still backs an in-flight span (payload corruption or
//     duplicate/lost deliveries would trip the delivery ledger).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/invariants.hpp"
#include "core/packet.hpp"
#include "core/ygm.hpp"
#include "mpisim/chaos.hpp"
#include "ser/serialize.hpp"

// ------------------------------------------------- counting operator new
//
// Global replacement, counting only while the calling thread opted in —
// gtest bookkeeping and the other rank threads never perturb a window.
// POD thread_locals only (no dynamic TLS init inside operator new).
namespace hotpath_alloc {
thread_local bool counting = false;
thread_local std::uint64_t news = 0;

struct window {
  window() { news = 0; counting = true; }
  ~window() { counting = false; }
  std::uint64_t count() const { return news; }
};
}  // namespace hotpath_alloc

// GCC pairs its builtin knowledge of new[]/free and flags the (correct,
// matched) malloc-backed replacements below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (hotpath_alloc::counting) ++hotpath_alloc::news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (hotpath_alloc::counting) ++hotpath_alloc::news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

namespace sim = ygm::mpisim;
using ygm::core::buffer_pool;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::core::packet_append;
using ygm::core::packet_append_inplace;
using ygm::core::packet_reader;
using ygm::core::packet_trace_escape;
using ygm::core::run_chaos_trial;
using ygm::core::trial_config;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// ------------------------------------------------ in-place byte identity

std::vector<std::byte> fuzz_payload(std::size_t len, std::uint64_t seed) {
  std::vector<std::byte> p(len);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (auto& b : p) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::byte>(x & 0xFF);
  }
  return p;
}

TEST(PacketInplace, ByteIdenticalToCopyAppendAcrossTheMatrix) {
  // Lengths straddle every varint width boundary the slot patching must
  // handle; hints force the matching, too-narrow, and too-wide cases.
  const std::size_t lens[] = {0, 1, 2, 127, 128, 129, 16383, 16384, 16385};
  const int addrs[] = {0, 1, 63, 64, 1000, packet_trace_escape};
  const std::size_t hints[] = {0, 1, 127, 128, 300, 16383, 16384, 70000};

  std::uint64_t seed = 0;
  for (const std::size_t len : lens) {
    const auto payload = fuzz_payload(len, ++seed);
    for (const int addr : addrs) {
      for (const bool bcast : {false, true}) {
        std::vector<std::byte> reference;
        packet_append(reference, bcast, addr, payload);
        for (const std::size_t hint : hints) {
          std::vector<std::byte> inplace;
          const auto rec = packet_append_inplace(
              inplace, bcast, addr, hint, [&](std::vector<std::byte>& out) {
                out.insert(out.end(), payload.begin(), payload.end());
              });
          ASSERT_EQ(inplace, reference)
              << "len=" << len << " addr=" << addr << " bcast=" << bcast
              << " hint=" << hint;
          ASSERT_EQ(rec.payload_size, len);
          ASSERT_EQ(rec.payload_offset + len, inplace.size());
        }
      }
    }
  }
}

TEST(PacketInplace, MultiRecordPacketRoundTripsThroughReader) {
  // Mixed hints and sizes in one packet, then read everything back.
  std::vector<std::byte> packet;
  std::vector<std::vector<std::byte>> payloads;
  std::size_t hint = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    payloads.push_back(fuzz_payload((i * 37) % 700, 100 + i));
    const auto rec = packet_append_inplace(
        packet, (i % 3) == 0, static_cast<int>(i), hint,
        [&](std::vector<std::byte>& out) {
          out.insert(out.end(), payloads.back().begin(),
                     payloads.back().end());
        });
    hint = rec.payload_size;  // the mailboxes' feedback loop
  }
  std::size_t i = 0;
  for (packet_reader r({packet.data(), packet.size()}); !r.done(); ++i) {
    const auto rec = r.next();
    ASSERT_LT(i, payloads.size());
    EXPECT_EQ(rec.addr, static_cast<int>(i));
    EXPECT_EQ(rec.is_bcast, (i % 3) == 0);
    ASSERT_EQ(rec.payload.size(), payloads[i].size());
    EXPECT_EQ(0, std::memcmp(rec.payload.data(), payloads[i].data(),
                             payloads[i].size()));
  }
  EXPECT_EQ(i, payloads.size());
}

// ----------------------------------------------------- buffer_pool units

TEST(BufferPool, HitAndMissAccounting) {
  buffer_pool pool;
  auto a = pool.acquire(256);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_GE(a.capacity(), 256u);

  a.resize(100);
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);

  auto b = pool.acquire(256);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_TRUE(b.empty());          // recycled buffers come back cleared...
  EXPECT_GE(b.capacity(), 256u);   // ...with their capacity intact
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(pool.pooled_bytes(), 0u);  // the hit gave its capacity back
}

TEST(BufferPool, OversizedBuffersAreFreedNotPooled) {
  buffer_pool pool;
  // Establish a small working set: released sizes ~1 KiB.
  for (int i = 0; i < 4; ++i) {
    auto buf = pool.acquire();
    buf.resize(1024);
    pool.release(std::move(buf));
  }
  EXPECT_GE(pool.retain_bound(), 2 * buffer_pool::min_retain_bytes);

  // A buffer whose capacity blows past 2x the high-water must be dropped.
  std::vector<std::byte> big;
  big.reserve(4 * pool.retain_bound());
  const std::size_t before = pool.pooled();
  pool.release(std::move(big));
  EXPECT_EQ(pool.pooled(), before);  // freed, not pooled
}

TEST(BufferPool, RetentionBoundDecaysAfterTwoWindows) {
  buffer_pool pool;
  // One huge release raises the high-water (and thus the bound)...
  std::vector<std::byte> huge(1 << 20);
  pool.release(std::move(huge));
  const std::size_t raised = pool.retain_bound();
  EXPECT_GE(raised, std::size_t{2} << 20);
  // ...but after two full windows of small releases it must decay back.
  for (std::uint32_t i = 0; i < 2 * buffer_pool::window_releases; ++i) {
    std::vector<std::byte> small(64);
    pool.release(std::move(small));
  }
  EXPECT_EQ(pool.retain_bound(), 2 * buffer_pool::min_retain_bytes);
}

TEST(BufferPool, MaxPooledCapsRetention) {
  buffer_pool pool;
  for (std::size_t i = 0; i < buffer_pool::max_pooled + 16; ++i) {
    std::vector<std::byte> buf(128);
    pool.release(std::move(buf));
  }
  EXPECT_EQ(pool.pooled(), buffer_pool::max_pooled);
  pool.trim();
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(pool.pooled_bytes(), 0u);
}

TEST(BufferPool, ByteBudgetCapsRetention) {
  buffer_pool pool;
  constexpr std::size_t mib = std::size_t{1} << 20;
  // Each release feeds the high-water *before* the drop check, so 1 MiB
  // buffers pass the size bound; only the byte budget stops retention —
  // well before the (large) count cap would.
  for (int i = 0; i < 17; ++i) {
    pool.release(std::vector<std::byte>(mib));
  }
  EXPECT_GE(pool.pooled(), 1u);
  EXPECT_LT(pool.pooled(), 16u);
  EXPECT_LE(pool.pooled_bytes(), buffer_pool::max_retained_bytes);
  EXPECT_GT(pool.drops(), 0u);
}

// ------------------------------------- steady-state allocation behaviour

/// Allocations counted on rank 0's thread across `msgs` all-to-all sends
/// (plus the flush/drain/forward work they trigger) after a warm-up pass
/// that populates the pools and grows every buffer to its working size.
std::uint64_t steady_state_allocs(int msgs) {
  std::uint64_t allocs = 0;
  const topology topo(2, 2);
  sim::run(topo.num_ranks(), [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::uint64_t sink = 0;
    mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { sink += v; }, 2048);

    auto all_to_all = [&](int rounds) {
      for (int i = 0; i < rounds; ++i) {
        for (int d = 0; d < c.size(); ++d) {
          if (d != c.rank()) mb.send(d, static_cast<std::uint64_t>(i));
        }
      }
    };

    // Warm-up: grow the coalescing buffers, seed every rank's pool, let
    // the termination detector allocate its state.
    all_to_all(msgs);
    mb.wait_empty();
    c.barrier();

    if (c.rank() == 0) {
      hotpath_alloc::window w;
      all_to_all(msgs);
      mb.flush();
      mb.poll();
      allocs = w.count();
    } else {
      all_to_all(msgs);
      mb.flush();
      mb.poll();
    }
    mb.wait_empty();
    c.barrier();
  });
  return allocs;
}

TEST(SteadyState, WarmHotPathIsAllocationFreePerMessage) {
  constexpr int kMsgs = 2000;
  const std::uint64_t allocs = steady_state_allocs(kMsgs);
  const std::uint64_t sends = static_cast<std::uint64_t>(kMsgs) * 3;  // 3 peers
  // Residual allocations (mail_slot deque block churn, occasional pool
  // refills when traffic is momentarily asymmetric) must be noise, not
  // per-message cost: well under 2% of messages sent. Before pooling and
  // in-place serialization this ratio was > 1.
  EXPECT_LT(static_cast<double>(allocs), 0.02 * static_cast<double>(sends))
      << allocs << " allocations across " << sends << " sends";
}

// -------------------------------------- pooling vs in-flight spans (chaos)

/// 16 seeds: the delivery ledger checks every payload
/// byte-for-byte at quiescence, so a pooled buffer recycled while a span
/// into it was still in flight (the forward path holds spans into received
/// packets; bcast fan-out holds spans into sibling buffers) shows up as
/// corruption, duplication, or loss.
std::vector<std::string> pooled_trial(std::uint64_t seed) {
  trial_config t;
  t.seed = seed;
  t.scheme = static_cast<scheme_kind>(seed % 4);
  t.nodes = 2 + static_cast<int>(seed % 2);
  t.cores = 2;
  t.capacity = (seed % 3 == 0) ? 48 : 1024;  // tiny: flush mid-fan-out
  t.timed = (seed % 5) == 0;
  t.msgs_per_rank = 40;
  t.bcasts_per_rank = 4;
  t.epochs = 2;
  t.chaos = sim::chaos_config::heavy(seed);

  std::vector<std::string> all;
  sim::run(t.num_ranks(), t.chaos, [&](sim::comm& c) {
    const auto local = run_chaos_trial(c, t);
    const auto gathered = c.gather(local, 0);
    if (c.rank() == 0) {
      for (const auto& per_rank : gathered) {
        all.insert(all.end(), per_rank.begin(), per_rank.end());
      }
    }
  });
  return all;
}

TEST(PoolingChaos, RecycledBuffersNeverAliasInFlightSpans) {
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    const auto v = pooled_trial(seed);
    EXPECT_TRUE(v.empty()) << "seed " << seed << ": " << v[0];
  }
}

}  // namespace
