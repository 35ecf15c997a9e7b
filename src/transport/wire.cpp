#include "transport/wire.hpp"

#include <string>

#include "common/assert.hpp"

namespace ygm::transport {

void check_frame(const wire_header& h, const frame_rules& rules, int peer,
                 std::size_t readable) {
  const auto fail = [&](const std::string& why) {
    throw ygm::error("bad frame header from rank " + std::to_string(peer) +
                     ": " + why);
  };
  if (h.kind >= 32 || (rules.kinds & (std::uint32_t{1} << h.kind)) == 0) {
    fail("unknown frame kind " + std::to_string(h.kind));
  }
  const std::size_t len = h.payload_len;
  switch (static_cast<frame_kind>(h.kind)) {
    case frame_kind::data:
      if (len > rules.inline_max) {
        fail("data frame of " + std::to_string(len) + " bytes exceeds " +
             std::to_string(rules.inline_max));
      }
      if (readable < sizeof(wire_header) + len) {
        fail("data frame of " + std::to_string(len) +
             " bytes is not fully published (" + std::to_string(readable) +
             " bytes readable)");
      }
      break;
    case frame_kind::spill:
      if (len <= rules.inline_max) {
        fail("spill frame of " + std::to_string(len) +
             " bytes fits inline");
      }
      break;
    case frame_kind::hello:
    case frame_kind::abort:
    case frame_kind::fin:
      if (len != 0) {
        fail("control frame kind " + std::to_string(h.kind) + " carries " +
             std::to_string(len) + " payload bytes");
      }
      break;
  }
}

}  // namespace ygm::transport
