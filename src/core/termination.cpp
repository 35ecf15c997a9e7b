#include "core/termination.hpp"

#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::core {

namespace {
// Wire formats carry the sender's round explicitly, in addition to the
// round-windowed tag (tag_base_ + round_ % 4).
//
// Why both: in a clean run the %4 window alone is collision-free, because
// per-edge lag is bounded at ONE round — a child cannot enter round k+1
// before it received the round-k verdict, and a parent cannot finish round
// k without every child's round-k contribution, so matching endpoints are
// never more than one round apart. But that invariant is load-bearing and
// entirely implicit: one duplicated, replayed, or forged message desyncs
// the window permanently, after which counts that are exactly 4 rounds
// stale get silently folded into every 4th verdict — quiescence can then
// fire with messages still in flight. The explicit round stamp turns that
// silent corruption into an immediate, attributable error.
using contrib = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
// (quiescent flag, round)
using verdict = std::pair<std::uint64_t, std::uint64_t>;
}  // namespace

termination_detector::termination_detector(comm_world& world, int tag_base)
    : world_(&world),
      tag_base_(tag_base),
      rank_(world.rank()),
      size_(world.size()) {}

int termination_detector::num_children() const noexcept {
  int n = 0;
  for (int i = 0; i < 2; ++i) {
    if (child(i) < size_) ++n;
  }
  return n;
}

bool termination_detector::poll(std::uint64_t sent, std::uint64_t received) {
  if (quiescent_) {
    // Detection already fired; a further poll means the caller started a new
    // communication epoch. Resume rounds with the four-counter memory intact
    // (counters are monotonic, so stale history stays sound).
    quiescent_ = false;
  }

  auto& mpi = world_->mpi();

  if (size_ == 1) {
    // Single rank: quiescent iff balanced and stable across two polls.
    const bool q = sent == received && sent == prev_sent_ &&
                   received == prev_recv_;
    prev_sent_ = sent;
    prev_recv_ = received;
    ++round_;
    quiescent_ = q;
    telemetry::add(telemetry::fast_counter::term_rounds);
    if (q) telemetry::instant("term.quiescent", "round", round_);
    return q;
  }

  for (;;) {
    if (stage_ == stage::gather_children) {
      if (!children_initialized_) {
        children_pending_ = num_children();
        acc_sent_ = 0;
        acc_recv_ = 0;
        children_initialized_ = true;
      }
      while (children_pending_ > 0) {
        // Children send on the round-specific tag; any child's message works.
        const auto st = mpi.iprobe(transport::any_source, contrib_tag());
        if (!st) return false;  // no progress possible without blocking
        const auto c = mpi.recv<contrib>(st->source, contrib_tag());
        YGM_CHECK(std::get<2>(c) == round_,
                  "termination contribution from a different round (protocol "
                  "desync: duplicated or stale detector message)");
        acc_sent_ += std::get<0>(c);
        acc_recv_ += std::get<1>(c);
        --children_pending_;
      }
      // Subtree complete: fold in our own sample, taken now (after the
      // previous round's sample, as the four-counter method requires).
      acc_sent_ += sent;
      acc_recv_ += received;
      if (rank_ == 0) {
        const bool q = acc_sent_ == acc_recv_ && acc_sent_ == prev_sent_ &&
                       acc_recv_ == prev_recv_;
        prev_sent_ = acc_sent_;
        prev_recv_ = acc_recv_;
        for (int i = 0; i < 2; ++i) {
          if (child(i) < size_) {
            mpi.send(verdict{q ? 1 : 0, round_}, child(i), verdict_tag());
          }
        }
        apply_verdict(q);
        if (quiescent_) return true;
        continue;  // next round may already be able to progress
      }
      mpi.send(contrib{acc_sent_, acc_recv_, round_}, parent(), contrib_tag());
      stage_ = stage::await_verdict;
    }

    if (stage_ == stage::await_verdict) {
      const auto st = mpi.iprobe(parent(), verdict_tag());
      if (!st) return false;
      const auto v = mpi.recv<verdict>(parent(), verdict_tag());
      YGM_CHECK(v.second == round_,
                "termination verdict from a different round (protocol "
                "desync: duplicated or stale detector message)");
      const bool q = v.first != 0;
      for (int i = 0; i < 2; ++i) {
        if (child(i) < size_) {
          mpi.send(verdict{q ? 1 : 0, round_}, child(i), verdict_tag());
        }
      }
      apply_verdict(q);
      if (quiescent_) return true;
    }
  }
}

void termination_detector::apply_verdict(bool quiescent) {
  ++round_;
  stage_ = stage::gather_children;
  children_initialized_ = false;
  quiescent_ = quiescent;
  telemetry::add(telemetry::fast_counter::term_rounds);
  // One timeline mark when detection fires (per-round instants would crowd
  // the ring during long TEST_EMPTY polling phases; the round count is the
  // "term.rounds" counter).
  if (quiescent) telemetry::instant("term.quiescent", "round", round_);
}

}  // namespace ygm::core
