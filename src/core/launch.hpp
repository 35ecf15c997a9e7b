// ygm::launch — the one way to start a run: run a rank function on N ranks
// over a chosen transport backend, propagate failures.
//
// Backends (src/transport/): `inproc` spawns N rank threads inside this
// process; `socket` forks N OS processes connected by Unix-domain sockets;
// `shm` forks N OS processes connected by shared-memory SPSC rings.
//
// One options struct and one entry point configure everything:
//
//   ygm::run_options o;
//   o.nranks = 8;
//   o.progress_mode = ygm::progress::mode::engine;
//   ygm::launch(o, [](ygm::mpisim::comm& c) { ... });
//
// Precedence, for every knob (docs/KNOBS.md lists them all):
//
//   explicit run_options field  >  YGM_* environment variable  >  default
//
// launch() owns the rank runtime: it builds the world communicator for each
// rank and, in every OS process hosting rank bodies — the driver process
// on inproc, each forked child on socket and shm — starts the progress
// engine (progress_mode = engine, core/progress.hpp) and the live
// telemetry services before any rank body runs, tearing them down after
// every rank body in that process has finished.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/progress.hpp"
#include "mpisim/chaos.hpp"
#include "mpisim/comm.hpp"
#include "transport/endpoint.hpp"

namespace ygm {

/// Everything a run can be configured with. Each field but nranks and
/// socket_dir is a knob: left unset (nullopt, or -1) it defers to the
/// variable named beside it. A designated initializer may name any subset:
/// `ygm::launch({.nranks = 4, .chaos = cfg}, fn)`.
struct run_options {
  int nranks = 1;
  std::optional<transport::backend_kind> backend{};  ///< YGM_TRANSPORT
  std::optional<mpisim::chaos_config> chaos{};       ///< YGM_CHAOS*

  /// Process-per-rank backends (socket, shm) only: rendezvous directory
  /// ("" = fresh mkdtemp under $TMPDIR, removed after the run). The shm
  /// backend also derives its segment names from the directory's basename.
  std::string socket_dir{};

  /// YGM_PROGRESS. `engine` starts one progress thread per OS process
  /// hosting ranks.
  std::optional<progress::mode> progress_mode{};
  std::optional<double> trace_sample{};  ///< YGM_TRACE_SAMPLE, in [0, 1]

  /// YGM_CREDIT_BYTES: per-destination mailbox credit budget
  /// (docs/BACKPRESSURE.md; 0 = off). Mailboxes clamp the effective budget
  /// to at least twice their flush capacity so acks stay live.
  std::optional<std::size_t> credit_bytes{};
  /// YGM_OUTQ_CAP_BYTES: the transport's outbound byte cap per channel,
  /// beneath the credit budget (0 = off).
  std::optional<std::size_t> outq_cap_bytes{};

  /// YGM_SAMPLE_MS: live-telemetry sampling period (0 = sampler off). With
  /// the progress engine on, sampling rides the engine thread; otherwise a
  /// dedicated low-rate thread runs per OS process hosting ranks.
  int sample_ms = -1;
  /// YGM_STATUSZ: per-process introspection endpoint (a Unix-domain socket
  /// answering metrics/series/latency/health as JSON, see tools/ygm_top);
  /// 0 off, 1 on.
  int statusz = -1;
};

/// Run `fn(world_comm)` on opts.nranks ranks, like `mpirun -n <nranks>`.
/// Blocks until every rank returns.
///
/// If any rank throws, the world is aborted: ranks blocked in communication
/// wake with ygm::error, every rank is joined/reaped, and the first rank's
/// exception (process-per-rank backends: its message) is rethrown here.
/// This keeps failing tests from deadlocking.
void launch(const run_options& opts,
            const std::function<void(mpisim::comm&)>& fn);

/// As launch(), for rank functions returning a byte blob; returns one blob
/// per rank, ordered by rank. This is the cross-backend result channel: on
/// inproc the blobs are moved across threads, on socket and shm they are
/// shipped over the result pipe — callers serialize with ygm::ser and
/// cannot rely on shared memory with the rank bodies.
std::vector<std::vector<std::byte>> launch_collect(
    const run_options& opts,
    const std::function<std::vector<std::byte>(mpisim::comm&)>& fn);

}  // namespace ygm
