// The fork launcher of the process-per-rank backends (socket, shm): fork
// one OS process per rank, rendezvous them over a shared directory, and
// collect per-rank results and telemetry back in the parent. The two
// backends differ only in the endpoint each child builds over the
// rendezvous directory and in what the parent sweeps up afterwards (the
// directory's socket files vs. orphaned shm segments); launch() switches on
// the backend for both.
//
// Result channel: one pipe per rank. A child runs the rank body, then ships
// a single framed blob — status, error text, the body's result bytes, and a
// telemetry lane snapshot — and _exits without returning through the
// parent's stack. The parent drains every pipe to EOF (before waiting, so a
// child blocked on a full pipe cannot deadlock the join), reaps the
// children, absorbs the telemetry lanes into the installed session, and
// rethrows the first real rank error.
//
// Rank death: a child closes its pipe only by exiting, so a pipe that
// reaches EOF without a report means that rank died abnormally (a signal,
// an _exit mid-run). Its peers may be blocked on it for good — a shm peer
// has no EOF to notice — so the parent ends every surviving rank at once
// and rethrows the dead rank's message as the root cause.
//
// Telemetry across the fork: the parent opens the world's lane group
// *before* forking, so every child inherits a session whose (world, rank)
// indices agree with the parent's; a child records into its copy-on-write
// recorder, serializes the lane (names, metrics, retained ring events) into
// its result blob, and the parent splices it into the original recorder —
// name ids re-interned, counters summed, gauges maxed, histograms merged.
// The session epoch is a steady_clock point captured pre-fork, so child
// timestamps land on the parent's timeline unadjusted.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "transport/chaos.hpp"
#include "transport/endpoint.hpp"

namespace ygm::transport::proc {

/// Run `body` on `nranks` forked processes connected by a `backend`
/// endpoint (socket or shm); returns one result blob per rank, ordered by
/// rank. `dir_hint` names the rendezvous directory ("" = fresh mkdtemp
/// under $TMPDIR, removed afterwards); it doubles as the statusz endpoint
/// directory of every child, so live tooling discovers the whole job from
/// it. Throws ygm::error carrying the first failing rank's message if any
/// rank fails.
std::vector<std::vector<std::byte>> launch(
    backend_kind backend, int nranks, const std::optional<chaos_config>& chaos,
    const std::string& dir_hint,
    const std::function<std::vector<std::byte>(transport::endpoint&)>& body);

}  // namespace ygm::transport::proc
