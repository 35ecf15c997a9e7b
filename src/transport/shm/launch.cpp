#include "transport/shm/launch.hpp"

#include <sys/mman.h>

#include <memory>

#include "transport/proc/launch.hpp"
#include "transport/shm/shm_transport.hpp"

namespace ygm::transport::shm {

std::vector<std::vector<std::byte>> launch(
    int nranks, const std::optional<chaos_config>& chaos,
    const std::string& dir_hint,
    const std::function<std::vector<std::byte>(transport::endpoint&)>& body) {
  proc::launch_hooks hooks;
  hooks.backend_name = "shm";
  hooks.dir_prefix = "ygm-shm";
  hooks.make_endpoint = [](const std::string& dir, int rank, int world,
                           const chaos_config* cfg)
      -> std::unique_ptr<transport::endpoint> {
    return std::make_unique<endpoint>(dir, rank, world, cfg);
  };
  hooks.post_reap = [](const std::string& dir, int world) {
    // Healthy ranks unlinked their own segment already (ENOENT here); this
    // catches ranks that died before their endpoint destructor ran and the
    // segments an aborted world's endpoints leave for late rendezvousers.
    for (int r = 0; r < world; ++r) {
      (void)::shm_unlink(segment_name(dir, r).c_str());
    }
  };
  return proc::launch(nranks, chaos, dir_hint, hooks, body);
}

}  // namespace ygm::transport::shm
