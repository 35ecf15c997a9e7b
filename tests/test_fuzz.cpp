// Fuzz and hostile-input tests: the serialization archives, the packet
// reader and the transport frame-header check must reject malformed bytes
// with ygm::error — never crash, hang, or read out of bounds — and the
// mailbox must survive degenerate message shapes (empty payloads, messages
// far larger than the coalescing capacity).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/packet.hpp"
#include "core/ygm.hpp"
#include "transport/shm/shm_transport.hpp"
#include "transport/wire.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// ----------------------------------------------------------- archive fuzz

template <class T>
void expect_parse_or_throw(std::span<const std::byte> bytes) {
  try {
    (void)ygm::ser::from_bytes<T>(bytes);
  } catch (const ygm::error&) {
    // rejection is fine; crashing is not
  }
}

class ArchiveFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArchiveFuzz, RandomBytesNeverCrashDeserialization) {
  ygm::xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::byte> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng() & 0xff);
    const std::span<const std::byte> s(junk.data(), junk.size());
    expect_parse_or_throw<std::string>(s);
    expect_parse_or_throw<std::vector<std::uint64_t>>(s);
    expect_parse_or_throw<std::map<std::string, std::uint32_t>>(s);
    expect_parse_or_throw<std::vector<std::vector<std::string>>>(s);
  }
}

TEST_P(ArchiveFuzz, TruncatedValidArchivesAlwaysThrow) {
  ygm::xoshiro256 rng(GetParam() + 1000);
  for (int iter = 0; iter < 100; ++iter) {
    std::map<std::string, std::vector<std::uint64_t>> value;
    const std::size_t keys = 1 + rng.below(4);
    for (std::size_t i = 0; i < keys; ++i) {
      value[std::string(1 + rng.below(8), static_cast<char>('a' + i))] =
          std::vector<std::uint64_t>(rng.below(6), rng());
    }
    const auto bytes = ygm::ser::to_bytes(value);
    // Any strict prefix must throw (the encoding has no padding).
    const std::size_t cut = rng.below(bytes.size());
    using value_type = std::map<std::string, std::vector<std::uint64_t>>;
    const auto parse_prefix = [&] {
      (void)ygm::ser::from_bytes<value_type>({bytes.data(), cut});
    };
    EXPECT_THROW(parse_prefix(), ygm::error);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchiveFuzz, ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------------ packet fuzz

TEST(PacketFuzz, RandomBytesNeverCrashReader) {
  ygm::xoshiro256 rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::byte> junk(rng.below(48));
    for (auto& b : junk) b = static_cast<std::byte>(rng() & 0xff);
    ygm::core::packet_reader reader({junk.data(), junk.size()});
    try {
      while (!reader.done()) {
        const auto rec = reader.next();
        // Touch the payload to catch bad spans under ASan-like scrutiny.
        std::uint64_t sum = 0;
        for (const auto b : rec.payload) sum += static_cast<std::uint8_t>(b);
        (void)sum;
      }
    } catch (const ygm::error&) {
    }
  }
}

TEST(PacketFuzz, WellFormedPacketsAlwaysRoundTrip) {
  ygm::xoshiro256 rng(88);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::byte> packet;
    std::vector<std::pair<int, std::size_t>> expected;  // (addr, len)
    const std::size_t records = rng.below(10);
    for (std::size_t i = 0; i < records; ++i) {
      const int addr = static_cast<int>(rng.below(1 << 20));
      std::vector<std::byte> payload(rng.below(40));
      ygm::core::packet_append(packet, (rng() & 1) != 0, addr,
                               {payload.data(), payload.size()});
      expected.emplace_back(addr, payload.size());
    }
    ygm::core::packet_reader reader({packet.data(), packet.size()});
    std::size_t i = 0;
    while (!reader.done()) {
      const auto rec = reader.next();
      ASSERT_LT(i, expected.size());
      EXPECT_EQ(rec.addr, expected[i].first);
      EXPECT_EQ(rec.payload.size(), expected[i].second);
      ++i;
    }
    EXPECT_EQ(i, expected.size());
  }
}

// -------------------------------------------------------- frame headers

// Random headers against both backends' rules. Whatever check_frame
// accepts is then used the way a pump uses it — a data frame's payload is
// copied out of a buffer holding exactly the readable bytes — so an
// accepted-but-bad header is an out-of-bounds read (ASan) or a failed
// expectation, and a rejection must name the peer.
TEST(FrameFuzz, HeadersAreCheckedBeforeUse) {
  namespace tp = ygm::transport;
  const tp::frame_rules socket_rules{kind_bit(tp::frame_kind::data) |
                                     kind_bit(tp::frame_kind::abort) |
                                     kind_bit(tp::frame_kind::fin)};
  const tp::frame_rules shm_rules{kind_bit(tp::frame_kind::data) |
                                      kind_bit(tp::frame_kind::spill),
                                  tp::shm::inline_payload_max};
  ygm::xoshiro256 rng(99);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    tp::wire_header h{};
    std::uint64_t raw[3] = {rng(), rng(), rng()};
    std::memcpy(&h, raw, sizeof(h));
    // Bias toward the interesting region: small kinds, lengths near the
    // inline limit and near the readable bytes.
    if (rng.below(4) != 0) h.kind = static_cast<std::uint32_t>(rng.below(8));
    if (rng.below(4) != 0) {
      h.payload_len = static_cast<std::uint32_t>(
          rng.below(2 * tp::shm::inline_payload_max + 64));
    }
    if (rng.below(8) == 0) h.payload_len = 0;
    const bool shm = (iter & 1) != 0;
    const auto& rules = shm ? shm_rules : socket_rules;
    const std::size_t readable =
        shm ? sizeof(tp::wire_header) +
                  rng.below(tp::shm::inline_payload_max + 64)
            : SIZE_MAX;
    const int peer = static_cast<int>(rng.below(64));
    try {
      tp::check_frame(h, rules, peer, readable);
    } catch (const ygm::error& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()).find("rank " + std::to_string(peer)),
                std::string::npos)
          << e.what();
      continue;
    }
    ++accepted;
    ASSERT_LT(h.kind, 32u);
    ASSERT_NE(rules.kinds & (1u << h.kind), 0u) << "kind " << h.kind;
    const auto kind = static_cast<tp::frame_kind>(h.kind);
    if (kind == tp::frame_kind::abort || kind == tp::frame_kind::fin) {
      EXPECT_EQ(h.payload_len, 0u);
    }
    if (kind == tp::frame_kind::spill) {
      EXPECT_GT(h.payload_len, rules.inline_max);
    }
    if (kind == tp::frame_kind::data && shm) {
      ASSERT_LE(h.payload_len, rules.inline_max);
      std::vector<std::byte> ring(readable);
      std::vector<std::byte> payload(h.payload_len);
      std::memcpy(payload.data(), ring.data() + sizeof(tp::wire_header),
                  payload.size());
    }
  }
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

// --------------------------------------------------- degenerate messages

struct empty_msg {
  bool operator==(const empty_msg&) const = default;
  template <class Archive>
  void serialize(Archive&) {}
};

TEST(MailboxEdge, EmptyPayloadMessagesDeliver) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    int got = 0;
    mailbox<empty_msg> mb(world, [&](const empty_msg&) { ++got; }, 64);
    for (int d = 0; d < c.size(); ++d) {
      if (d != c.rank()) mb.send(d, empty_msg{});
    }
    mb.send_bcast(empty_msg{});
    mb.wait_empty();
    EXPECT_EQ(got, 2 * (c.size() - 1));
  });
}

TEST(MailboxEdge, MessagesLargerThanCapacityStillFlow) {
  // Capacity is a flush trigger, not a size limit: a message bigger than
  // the whole mailbox must be shipped in its own oversized packet.
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_remote);
    std::size_t got_bytes = 0;
    mailbox<std::string> mb(
        world, [&](const std::string& s) { got_bytes += s.size(); },
        /*capacity=*/128);
    const std::string big(10000, 'z');
    const int dest = (c.rank() + 1) % c.size();
    mb.send(dest, big);
    mb.wait_empty();
    EXPECT_EQ(got_bytes, big.size());
  });
}

TEST(MailboxEdge, ManySmallMessagesUnderTinyCapacity) {
  // Worst-case flush churn: capacity 1 forces an exchange per record, across
  // a routing scheme with forwarding.
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::uint64_t got = 0;
    mailbox<std::uint8_t> mb(world, [&](const std::uint8_t& v) { got += v; },
                             1);
    for (int i = 0; i < 200; ++i) {
      mb.send((c.rank() + 1 + i % (c.size() - 1)) % c.size(), 1);
    }
    mb.wait_empty();
    const auto total = c.allreduce(got, sim::op_sum{});
    EXPECT_EQ(total, 200u * static_cast<std::uint64_t>(c.size()));
  });
}

TEST(MailboxEdge, InterleavedSendAndBcastStreams) {
  const topology topo(2, 3);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_local);
    std::uint64_t p2p = 0;
    std::uint64_t bc = 0;
    mailbox<std::pair<bool, std::uint64_t>> mb(
        world,
        [&](const std::pair<bool, std::uint64_t>& m) {
          (m.first ? bc : p2p) += m.second;
        },
        96);
    ygm::xoshiro256 rng(4 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 60; ++i) {
      if (rng.below(4) == 0) {
        mb.send_bcast({true, 1});
      } else {
        mb.send(static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(c.size()))),
                {false, 1});
      }
    }
    mb.wait_empty();
    const auto sent_bcasts = c.allreduce(mb.stats().app_bcasts, sim::op_sum{});
    const auto got_bc = c.allreduce(bc, sim::op_sum{});
    EXPECT_EQ(got_bc,
              sent_bcasts * static_cast<std::uint64_t>(c.size() - 1));
    const auto sent_p2p = c.allreduce(mb.stats().app_sends, sim::op_sum{});
    const auto got_p2p = c.allreduce(p2p, sim::op_sum{});
    EXPECT_EQ(got_p2p, sent_p2p);
  });
}

}  // namespace
