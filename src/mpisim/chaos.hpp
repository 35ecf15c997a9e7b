// Compatibility shim: chaos fault injection moved to the transport
// substrate (src/transport/chaos.hpp) so all backends share one engine
// (same seed, same fault pattern on any); mpisim re-exports the config
// so existing call sites keep compiling.
#pragma once

#include "transport/chaos.hpp"

namespace ygm::mpisim {

using transport::chaos_config;

}  // namespace ygm::mpisim
