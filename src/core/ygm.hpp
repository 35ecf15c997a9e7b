// Umbrella header: everything a YGM application needs.
//
// Typical usage (see examples/quickstart.cpp):
//
//   ygm::run_options opts;
//   opts.nranks = n_ranks;
//   opts.progress_mode = ygm::progress::mode::engine;  // or omit: YGM_PROGRESS
//   ygm::launch(opts, [](ygm::mpisim::comm& c) {
//     ygm::core::comm_world world(c, /*cores_per_node=*/4,
//                                 ygm::routing::scheme_kind::nlnr);
//     ygm::core::mailbox<MyMsg> mb(world, [&](const MyMsg& m) { ... });
//     mb.send(dest, msg);
//     mb.send_bcast(msg);
//     mb.wait_empty();
//   });
//
// ygm::launch (core/launch.hpp) is the only way to start ranks.
#pragma once

#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "core/packet.hpp"
#include "core/progress.hpp"
#include "core/stats.hpp"
#include "core/termination.hpp"
#include "net/evaluator.hpp"
#include "net/params.hpp"
#include "routing/router.hpp"
#include "routing/topology.hpp"
#include "ser/serialize.hpp"
