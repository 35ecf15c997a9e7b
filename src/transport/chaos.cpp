#include "transport/chaos.hpp"

#include <sstream>
#include <string>

namespace ygm::transport {

chaos_config chaos_config::light(std::uint64_t seed) {
  chaos_config c;
  c.seed = seed;
  c.delay_prob = 0.25;
  c.max_delay_ticks = 6;
  c.iprobe_miss_prob = 0.10;
  c.max_consecutive_misses = 8;
  c.stall_prob = 0.01;
  c.max_stall_us = 50;
  return c;
}

chaos_config chaos_config::heavy(std::uint64_t seed) {
  chaos_config c;
  c.seed = seed;
  c.delay_prob = 0.50;
  c.max_delay_ticks = 16;
  c.iprobe_miss_prob = 0.30;
  c.max_consecutive_misses = 32;
  c.stall_prob = 0.04;
  c.max_stall_us = 100;
  return c;
}

std::optional<chaos_config> chaos_config::from_knobs(const knob::table& t) {
  using knob::id;
  const knob::value& preset = t[id::chaos];
  if (preset.from == knob::source::env) {
    if (preset.text == "off") return std::nullopt;
    return preset.text == "heavy" ? heavy(preset.num) : light(preset.num);
  }
  bool any = false;
  for (int k = int(id::chaos_seed); k <= int(id::chaos_max_stall_us); ++k) {
    any |= t[id(k)].from == knob::source::env;
  }
  if (!any) return std::nullopt;
  chaos_config c;
  c.seed = t[id::chaos_seed].num;
  c.delay_prob = t[id::chaos_delay_prob].real;
  c.max_delay_ticks = std::uint32_t(t[id::chaos_max_delay_ticks].num);
  c.iprobe_miss_prob = t[id::chaos_iprobe_miss_prob].real;
  c.stall_prob = t[id::chaos_stall_prob].real;
  c.max_stall_us = std::uint32_t(t[id::chaos_max_stall_us].num);
  return c;
}

std::string chaos_config::describe() const {
  std::ostringstream oss;
  oss << "seed=" << seed << " delay=" << delay_prob << "x" << max_delay_ticks
      << " miss=" << iprobe_miss_prob << "/" << max_consecutive_misses
      << " stall=" << stall_prob << "x" << max_stall_us << "us";
  return oss.str();
}

}  // namespace ygm::transport
